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
    subdirectories are derived beneath it) and ``resident_segments``
    bounds how many segment groups the fault-in LRU keeps resident at
    once.  Every checkpoint and every snapshot-shipping resync publishes
    a fresh snapshot.
    """

    root: Optional[str] = None
    resident_segments: int = 8

    def __post_init__(self) -> None:
        if self.resident_segments < 1:
            raise ValueError("storage.resident_segments must be >= 1")


def storage_config_to_dict(config: StorageConfig) -> Dict[str, object]:
    return {"root": config.root, "resident_segments": config.resident_segments}


def storage_config_from_dict(payload: Mapping[str, object]) -> StorageConfig:
    known = ("root", "resident_segments")
    kwargs = {key: payload[key] for key in known if key in payload}
    return StorageConfig(**kwargs)  # type: ignore[arg-type]
