"""Horizontal sharding: many SmartStore deployments behind one router.

SmartStore decentralises metadata *within* one deployment; this package
scales *across* deployments, the way the paper's "heavy traffic" setting
demands:

``repro.shard.partitioner``
    :class:`SemanticShardPartitioner` (LSI-space k-way split of the corpus,
    balanced and semantically coherent) and :class:`HashShardPartitioner`
    (stable file-id modulo fallback), plus :func:`corpus_index_bounds`, the
    corpus-wide normalisation bounds every shard must be built with.
``repro.shard.router``
    :class:`ShardRouter` — scatter-gather point/range/top-k execution over
    the shards with exact summary-based pruning (per-shard filename Bloom
    filters + index-space bounding boxes, a shared MaxD threshold shipped
    between shards for top-k), per-shard ingest pipelines (one WAL, overlay
    and compactor each) routed by ownership/partitioner, and full
    duck-compatibility with :class:`~repro.service.service.QueryService`.
``repro.shard.build``
    :func:`~repro.shard.build.build_router` — corpus split, per-shard
    WALs / segment roots / replica groups, cold start from snapshots
    (what ``connect`` calls for the sharded topologies).
``repro.shard.load``
    :class:`PartitionLoad` — the shared partition-skew model (population
    share, busy utilization, the degeneracy verdict) used identically by
    the live router, the reshard controller and the scaling benchmarks.
``repro.shard.reshard``
    :class:`ReshardController` — online elasticity: detects a degenerate
    partition from the router's live load report and repairs it without
    stopping the deployment.  The primary repair is a **rebalance**
    (refit the partitioner at fresh popularity-weighted quantiles,
    migrate misplaced files as WAL-logged delete+insert pairs, repack
    every store over its drained population); when the fresh cuts
    already match the placement it falls back to **splitting** the hot
    shard — backfilling the new shard through the replication mutation
    feed while the old owner keeps serving, then flipping ownership
    atomically under the router's topology write lock.  Either way the
    composite cache epoch grows arity (a global flush by construction)
    and paginated cursors survive by placement independence.

The correctness contract — sharded scatter-gather answers are
fingerprint-identical to an unsharded deployment over the union population
— is asserted by ``repro bench shard``; the elasticity contract — a reshard
storm under mixed traffic loses no request and changes no answer, and the
rebalanced topology clears the utilization floor the degenerate one
failed — by ``repro bench reshard``.

For availability, ``DeploymentSpec(topology="sharded_replicated")`` runs
every shard as a
:class:`~repro.replication.group.ReplicaGroup` (1 primary + N replicas
with WAL-segment shipping and live failover); ``repro bench replica``
asserts the same fingerprints survive killing every primary mid-workload.
"""

from repro.shard.load import PartitionLoad
from repro.shard.partitioner import (
    HashShardPartitioner,
    SemanticShardPartitioner,
    corpus_index_bounds,
    make_partitioner,
)
from repro.shard.reshard import ReshardController, ReshardOutcome, ReshardPolicy
from repro.shard.router import ShardRouter, ShardSummary

__all__ = [
    "HashShardPartitioner",
    "PartitionLoad",
    "ReshardController",
    "ReshardOutcome",
    "ReshardPolicy",
    "SemanticShardPartitioner",
    "ShardRouter",
    "ShardSummary",
    "corpus_index_bounds",
    "make_partitioner",
]
