"""Replication: replica groups, live failover and fault injection.

The serving path built by the earlier layers — query service, durable
ingest, scatter-gather sharding — had exactly one copy of every shard: one
object dies, every scatter-gather fails.  This package supplies the missing
availability layer, mirroring the reliability argument §4.3 makes for root
multi-mapping:

``repro.replication.group``
    :class:`ReplicaGroup` — one primary plus N replicas, each a complete
    SmartStore deployment.  Writes go WAL-first to the primary and are
    shipped as WAL-segment records to the replicas (asynchronously within a
    bounded lag window, or synchronously in ``sync`` mode); reads scatter
    across healthy replicas with catch-up-on-read, so every acked write is
    visible no matter which replica answers; on primary failure the
    freshest replica (highest applied WAL seq) is promoted after replaying
    its shipped log; an anti-entropy pass reconciles population
    fingerprints and rebuilds divergent replicas.
``repro.replication.health``
    :class:`HealthTracker` — per-replica consecutive-failure circuit
    breaker with deterministic (selection-counted, not wall-clock)
    open → half-open → closed transitions.
``repro.replication.fault``
    :class:`FaultInjector` — crash / pause / slow faults against *real*
    replica objects (contrast with the visibility-overlay injector in
    :mod:`repro.cluster.failures`), used by the tests, the failover drill
    and the ``repro bench replica`` kill-every-primary drill (CI's
    ``drills`` job).
"""

from repro.replication.fault import (
    FaultInjector,
    GroupUnavailableError,
    ReplicaCrashedError,
    ReplicaPausedError,
    ReplicaUnavailableError,
)
from repro.replication.group import (
    Replica,
    ReplicaGroup,
    ReplicationConfig,
    population_fingerprint,
)
from repro.replication.health import BreakerPolicy, HealthTracker

__all__ = [
    "BreakerPolicy",
    "FaultInjector",
    "GroupUnavailableError",
    "HealthTracker",
    "Replica",
    "ReplicaCrashedError",
    "ReplicaGroup",
    "ReplicaPausedError",
    "ReplicaUnavailableError",
    "ReplicationConfig",
    "population_fingerprint",
]
