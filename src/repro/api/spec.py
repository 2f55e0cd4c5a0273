"""Declarative deployment specification: one document, any topology.

A :class:`DeploymentSpec` describes *what to stand up* — which of the five
deployment shapes, with which build / sharding / replication / durability
/ serving parameters — without any imperative build calls.  One
:func:`repro.api.client.connect` call turns a spec into a running
:class:`~repro.api.client.Client`, whatever the shape:

========================  ====================================================
topology                  what connect() builds
========================  ====================================================
``plain``                 one :class:`~repro.core.smartstore.SmartStore`
``durable``               a store behind a WAL-backed
                          :class:`~repro.ingest.pipeline.IngestPipeline`
``sharded``               N stores behind a
                          :class:`~repro.shard.router.ShardRouter`
``replicated``            a :class:`~repro.replication.group.ReplicaGroup`
``sharded_replicated``    a router whose every shard is a replica group
========================  ====================================================

Specs are plain data: :meth:`DeploymentSpec.to_dict` /
:meth:`DeploymentSpec.from_dict` round-trip through JSON-safe dicts
(reusing ``config_to_dict`` / ``config_from_dict`` for the nested
:class:`~repro.core.smartstore.SmartStoreConfig`), and
:func:`save_spec` / :func:`load_spec` persist them as JSON documents the
CLI can load with ``--spec``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.smartstore import SmartStoreConfig, config_from_dict, config_to_dict
from repro.replication.group import REPLICATION_MODES, ReplicationConfig
from repro.service.service import ServiceConfig
from repro.storage import (
    StorageConfig,
    storage_config_from_dict,
    storage_config_to_dict,
)

__all__ = [
    "EXECUTION_MODES",
    "TOPOLOGIES",
    "DeploymentSpec",
    "load_spec",
    "save_spec",
    "service_config_from_dict",
    "service_config_to_dict",
]

PathLike = Union[str, Path]

SPEC_FORMAT = "repro.deployment-spec"
SPEC_VERSION = 1

#: The five deployment shapes one ``connect(spec)`` can build.
TOPOLOGIES = ("plain", "durable", "sharded", "replicated", "sharded_replicated")

#: How a sharded deployment executes its scatter: ``"threads"`` keeps every
#: shard in-process and calls them in turn on the thread that asked (they
#: share one GIL, so a pool would overlap nothing), ``"processes"`` runs one
#: worker *process* per shard, scattered to from a thread pool over the wire
#: protocol (see :mod:`repro.server.worker`) so scan-heavy work uses every
#: core.
EXECUTION_MODES = ("threads", "processes")

_SHARDED = ("sharded", "sharded_replicated")
_REPLICATED = ("replicated", "sharded_replicated")


def service_config_to_dict(config: ServiceConfig) -> Dict[str, Any]:
    """Serialise the JSON-safe fields of a service configuration.

    Driven by ``dataclasses.fields`` (every :class:`ServiceConfig` field
    is a JSON-safe scalar), so a field added later cannot be silently
    dropped from spec round-trips.
    """
    return {f.name: getattr(config, f.name) for f in fields(ServiceConfig)}


def service_config_from_dict(payload: Dict[str, Any]) -> ServiceConfig:
    """Rebuild a :class:`ServiceConfig`; unknown keys are ignored."""
    known = service_config_to_dict(ServiceConfig())
    kwargs = {key: payload[key] for key in known if key in payload}
    return ServiceConfig(**kwargs)


@dataclass(frozen=True)
class DeploymentSpec:
    """Everything needed to stand one deployment up, as plain data.

    Fields outside their topology are ignored by ``connect`` but
    validated for consistency where they would be misleading (a ``plain``
    spec must not name a WAL directory — that is what ``durable`` means).

    ``population`` optionally names a JSON-Lines file population (as
    written by :func:`repro.persistence.jsonl.save_files` or the CLI's
    ``trace --population-output``); ``connect`` loads it when the caller
    does not pass files directly.
    """

    topology: str = "plain"
    store: SmartStoreConfig = field(default_factory=SmartStoreConfig)
    # Sharding (sharded / sharded_replicated).
    shards: int = 2
    partitioner: str = "semantic"
    partition_strategy: str = "slice"
    units_per_shard: Optional[int] = None
    # Replication (replicated / sharded_replicated).
    replicas: int = 1
    replication_mode: str = "async"
    max_lag: int = 64
    # Durability (durable always; optional for sharded/replicated shapes).
    wal_dir: Optional[str] = None
    fsync_every: int = 1
    # Tiered segment storage (any topology): a root directory makes
    # checkpoints publish mmap-able segment snapshots there, cold starts
    # restore from them in O(WAL tail), and replica resync ships
    # snapshots instead of rebuilding.
    storage: Optional[StorageConfig] = None
    # Serving.
    service: ServiceConfig = field(default_factory=ServiceConfig)
    # Transport: scatter execution mode and the optional default bind
    # address the ``repro serve`` front door listens on for this spec.
    execution: str = "threads"
    listen: Optional[str] = None
    # Optional population source for connect(spec) without explicit files.
    population: Optional[str] = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        if self.topology in _SHARDED and self.shards < 2:
            raise ValueError("a sharded topology needs shards >= 2")
        if self.topology in _REPLICATED and self.replicas < 1:
            raise ValueError("a replicated topology needs replicas >= 1")
        if self.replication_mode not in REPLICATION_MODES:
            raise ValueError(f"replication_mode must be one of {REPLICATION_MODES}")
        if self.max_lag < 1:
            raise ValueError("max_lag must be >= 1")
        if self.fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        if self.topology == "durable" and self.wal_dir is None:
            raise ValueError("topology 'durable' requires wal_dir")
        if self.topology == "plain" and self.wal_dir is not None:
            raise ValueError(
                "topology 'plain' does not take wal_dir; use topology 'durable'"
            )
        if self.units_per_shard is not None and self.units_per_shard < 1:
            raise ValueError("units_per_shard must be >= 1")
        if self.execution not in EXECUTION_MODES:
            raise ValueError(f"execution must be one of {EXECUTION_MODES}")
        if self.execution == "processes" and self.topology != "sharded":
            raise ValueError(
                "execution 'processes' (one worker process per shard) requires "
                "topology 'sharded'; replicated shards stay in-process"
            )
        if self.listen is not None and not self.listen.startswith("tcp://"):
            raise ValueError(
                f"listen must be a tcp://host:port address, got {self.listen!r}"
            )
        if self.storage is not None and self.storage.root is None:
            raise ValueError(
                "spec.storage needs a root directory (StorageConfig.root)"
            )
        if self.storage is not None and self.execution == "processes":
            raise ValueError(
                "spec.storage is in-process tiered storage; execution "
                "'processes' workers manage their own state"
            )

    # ------------------------------------------------------------------ derived views
    @property
    def sharded(self) -> bool:
        return self.topology in _SHARDED

    @property
    def replicated(self) -> bool:
        return self.topology in _REPLICATED

    @property
    def durable(self) -> bool:
        return self.wal_dir is not None

    def replication_config(self) -> ReplicationConfig:
        return ReplicationConfig(
            replicas=self.replicas,
            mode=self.replication_mode,
            max_lag=self.max_lag,
        )

    def with_store(self, **changes: Any) -> "DeploymentSpec":
        """A copy with the nested store configuration updated."""
        return replace(self, store=replace(self.store, **changes))

    # ------------------------------------------------------------------ (de)serialisation
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": SPEC_FORMAT,
            "version": SPEC_VERSION,
            "topology": self.topology,
            "store": config_to_dict(self.store),
            "shards": self.shards,
            "partitioner": self.partitioner,
            "partition_strategy": self.partition_strategy,
            "units_per_shard": self.units_per_shard,
            "replicas": self.replicas,
            "replication_mode": self.replication_mode,
            "max_lag": self.max_lag,
            "wal_dir": self.wal_dir,
            "fsync_every": self.fsync_every,
            "storage": (
                storage_config_to_dict(self.storage)
                if self.storage is not None
                else None
            ),
            "service": service_config_to_dict(self.service),
            "execution": self.execution,
            "listen": self.listen,
            "population": self.population,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DeploymentSpec":
        if payload.get("format") not in (None, SPEC_FORMAT):
            raise ValueError(
                f"not a deployment spec (format={payload.get('format')!r})"
            )
        kwargs: Dict[str, Any] = {}
        for key in (
            "topology",
            "shards",
            "partitioner",
            "partition_strategy",
            "units_per_shard",
            "replicas",
            "replication_mode",
            "max_lag",
            "wal_dir",
            "fsync_every",
            "execution",
            "listen",
            "population",
        ):
            if key in payload:
                kwargs[key] = payload[key]
        if payload.get("store") is not None:
            kwargs["store"] = config_from_dict(dict(payload["store"]))
        if payload.get("storage") is not None:
            kwargs["storage"] = storage_config_from_dict(dict(payload["storage"]))
        if payload.get("service") is not None:
            kwargs["service"] = service_config_from_dict(dict(payload["service"]))
        return cls(**kwargs)


def save_spec(spec: DeploymentSpec, path: PathLike) -> None:
    """Write a spec as pretty-printed JSON (what ``--spec`` loads)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spec(path: PathLike) -> DeploymentSpec:
    """Load a spec written by :func:`save_spec`."""
    with Path(path).open("r", encoding="utf-8") as fh:
        return DeploymentSpec.from_dict(json.load(fh))
