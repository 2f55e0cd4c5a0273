"""Deployment-spec configuration for the tiered segment store."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

__all__ = [
    "StorageConfig",
    "storage_config_to_dict",
    "storage_config_from_dict",
]


@dataclass(frozen=True)
class StorageConfig:
    """The ``storage`` block of a :class:`~repro.api.spec.DeploymentSpec`.

    ``root`` is the snapshot directory (per-shard / per-replica
    subdirectories are derived beneath it).  Every checkpoint and every
    snapshot-shipping resync publishes a fresh snapshot.

    ``resident_segments`` is accepted and ignored, here and as the keyword
    of ``open_storage`` / ``recover_from_storage``, so saved specs and
    their callers keep loading: it sized a residency LRU that no read
    needs any more (a top-k normalises the columns it queries straight
    from the mapping).  Retire it with ROADMAP item 4.
    """

    root: Optional[str] = None
    resident_segments: int = 8


def storage_config_to_dict(config: StorageConfig) -> Dict[str, object]:
    return {"root": config.root, "resident_segments": config.resident_segments}


def storage_config_from_dict(payload: Mapping[str, object]) -> StorageConfig:
    known = ("root", "resident_segments")
    kwargs = {key: payload[key] for key in known if key in payload}
    return StorageConfig(**kwargs)  # type: ignore[arg-type]
