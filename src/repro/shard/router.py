"""Scatter-gather query routing across independent SmartStore shards.

A :class:`ShardRouter` owns ``N`` complete SmartStore deployments (each
with its own cluster, semantic R-tree, version chains and durable ingest
pipeline) and presents them as one logical store:

* **Queries** are executed scatter-gather on the calling thread and merged
  into a single
  :class:`~repro.core.queries.QueryResult` in the same canonical order a
  single store produces (file-id order for point/range,
  ``(distance, file_id)`` for top-k).
* **Shard summaries** prune the scatter set exactly: each shard advertises
  a filename Bloom filter and an index-space bounding box, both maintained
  across routed mutations (boxes only ever grow, Bloom filters only ever
  gain keys, so pruning stays conservative).  A point query contacts only
  shards whose filter may contain the filename (no false negatives ⇒ a
  pruned shard provably has no match); a range query skips shards whose
  box misses the window; a top-k query ranks shards by MINDIST to their
  boxes, scans the most correlated shard first, and ships that shard's
  k-th-best distance as a shared ``MaxD`` bound to the remaining shards —
  which then prune their own group scans against it (or are skipped
  outright when even their box cannot beat the bound).
* **Mutations** are routed by ownership (a known file's mutations go to
  the shard that holds it, so insert-then-delete nets out inside one
  shard's chain) or, for new records, by the
  :class:`~repro.shard.partitioner.SemanticShardPartitioner`; each shard
  drains its own staged mutations through its own compactor.

Exactness: every pruning rule only skips work that provably cannot change
the merged payload, and every shard is built with the *corpus-wide*
index-space bounds (``SmartStore.build(..., index_bounds=...)``), so with
an exhaustive ``search_breadth`` the merged results are
fingerprint-identical to an unsharded deployment over the union population
— the gate ``repro bench shard`` asserts.  (With the default bounded breadth each shard bounds its local
search scope exactly like a single store does, and recall behaves the same
way.)

The router deliberately quacks like both halves of the serving stack so
:class:`~repro.service.service.QueryService` runs over it unchanged:

* like a **store** — ``execute(query, ctx)`` (the shared read entry
  point, see :class:`~repro.core.queries.ReadContext`), a ``cluster``
  shim for home-unit draws, a ``versioning``
  composite whose ``change_clock`` is the *tuple of per-shard clocks* (the
  service's cache epochs therefore track every shard independently) and
  whose subscribers hear every shard's flushes;
* like an **IngestPipeline** — ``insert`` / ``delete`` / ``modify``
  returning :class:`~repro.ingest.pipeline.MutationReceipt`, a
  ``compactor`` driving all per-shard compactors, and ``stats()``.

All mutations must flow through the router: mutating a shard's store
directly would bypass the summaries and break pruning exactness.

When every shard is a :class:`~repro.replication.group.ReplicaGroup`
instead of a bare store (``DeploymentSpec(topology="sharded_replicated")``)
scatter-gather calls land on whichever healthy replica the group picks
(catch-up-on-read keeps answers identical), a primary crash promotes the
freshest replica mid-scatter without failing the client request, and the
router aggregates per-group failover/degraded-read counters for the
service telemetry (:meth:`ShardRouter.drain_replication_events`).

Shard backends
--------------
The router programs against a *shard backend* contract, so one router
implementation serves bare stores and replica groups alike:

* ``shard.execute(query, ctx)`` — the context the router received,
  rewritten per shard (mapped home unit, shipped ``MaxD`` bound);
* ``shard.schema`` / ``shard.config`` / ``shard.cluster`` /
  ``shard.versioning`` / ``shard.index_lower`` / ``shard.index_upper``
  for home-unit mapping, cache epochs and summary geometry, and
  ``shard.file_count()`` for the live population size;
* a paired *pipeline* with ``insert`` / ``delete`` / ``modify`` /
  ``compactor`` / ``overlay`` / ``close``, and ``materialized_files()``,
  the population the owner map and summaries are derived from.

:class:`~repro.core.smartstore.SmartStore` (+
:class:`~repro.ingest.pipeline.IngestPipeline`) and
:class:`~repro.replication.group.ReplicaGroup` satisfy it.  Engine steps
share one GIL and cannot overlap, so the scatter calls the shards in order
on the thread that asked (docs/INVARIANTS.md §14).

Building a router from a corpus (partitioning, per-shard WALs and segment
roots, cold start from published snapshots) lives in
:mod:`repro.shard.build`.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import replace
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bloom.bloom import BloomFilter
from repro.cluster.metrics import Metrics
from repro.concurrency import ReadWriteLock
from repro.core.queries import QueryResult, ReadContext, to_index_space
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.core.versioning import VersioningManager
from repro.ingest.pipeline import IngestPipeline, MutationReceipt
from repro.metadata.attributes import AttributeSchema
from repro.metadata.file_metadata import FileMetadata
from repro.metadata.matrix import attribute_matrix, log_transform
from repro.obs import get_tracer
from repro.replication.group import ReplicaGroup
from repro.shard.load import PartitionLoad
from repro.shard.partitioner import ShardPartitioner
from repro.workloads.types import PointQuery, Query, RangeQuery, TopKQuery, kind_of

__all__ = ["ShardSummary", "ShardRouter"]

#: What one shard's part of a scatter looks like to the per-type planners:
#: ``call(shard_id)`` or, for the bounded top-k fan-out, ``call(shard_id,
#: max_d_bound)``.
ShardCall = Callable[..., QueryResult]


#: Geometry of the router-level per-shard filename Bloom filters.  Sized for
#: corpora of tens of thousands of filenames per shard at a negligible
#: false-positive rate (a false positive only costs one extra shard probe —
#: it can never change an answer).
SUMMARY_BLOOM_BITS = 1 << 17
SUMMARY_BLOOM_HASHES = 5


class ShardSummary:
    """What the router knows about one shard without contacting it.

    ``lower``/``upper`` bound every record the shard has ever held in index
    space (they never shrink — deletions keep the box conservative), and
    the Bloom filter covers every filename ever inserted.  Both are updated
    by the router on every routed mutation, so staged-but-uncompacted
    records are covered too.
    """

    def __init__(self, shard_id: int, *, bits: int, hashes: int) -> None:
        self.shard_id = shard_id
        self.bloom = BloomFilter(bits, hashes)
        self.lower: Optional[np.ndarray] = None
        self.upper: Optional[np.ndarray] = None

    def observe_rows(self, rows: np.ndarray, filenames: Sequence[str]) -> None:
        """Fold records (``(n, D)`` index-space coordinates and their
        filenames) into the summary."""
        if len(filenames) == 0:
            return
        self.bloom.add_many(filenames)
        lower, upper = rows.min(axis=0), rows.max(axis=0)
        if self.lower is None:
            self.lower = np.array(lower, dtype=np.float64)
            self.upper = np.array(upper, dtype=np.float64)
        else:
            np.minimum(self.lower, lower, out=self.lower)
            np.maximum(self.upper, upper, out=self.upper)

    def intersects_window(
        self, attr_idx: Sequence[int], lower: np.ndarray, upper: np.ndarray
    ) -> bool:
        """Box-overlap test restricted to the constrained attributes."""
        if self.lower is None:
            return False
        idx = list(attr_idx)
        return bool(
            np.all(self.lower[idx] <= upper) and np.all(lower <= self.upper[idx])
        )

    def mindist(
        self,
        attr_idx: Sequence[int],
        point: np.ndarray,
        norm_lower: np.ndarray,
        norm_upper: np.ndarray,
    ) -> float:
        """MINDIST from a query point to the shard box, in normalised space.

        Same geometry as
        :meth:`~repro.core.semantic_rtree.SemanticNode.min_distance_subrange`
        — including the clip to ``[0, 1]`` that actual distance
        computations apply — so the value is directly comparable with
        per-group MINDISTs, top-k distances and the shipped MaxD bound
        even for query points outside the corpus bounds.
        """
        if self.lower is None:
            return float("inf")
        idx = list(attr_idx)
        span = np.where(norm_upper - norm_lower > 0, norm_upper - norm_lower, 1.0)
        box_lo = np.clip((self.lower[idx] - norm_lower) / span, 0.0, 1.0)
        box_hi = np.clip((self.upper[idx] - norm_lower) / span, 0.0, 1.0)
        q = np.clip((np.asarray(point, dtype=np.float64) - norm_lower) / span, 0.0, 1.0)
        delta = np.maximum(np.maximum(box_lo - q, 0.0), np.maximum(q - box_hi, 0.0))
        return float(np.sqrt(np.sum(delta**2)))


class _CompositeVersioning:
    """The union view of every shard's versioning manager.

    ``change_clock`` is the tuple of per-shard clocks: the service snapshots
    it as the cache epoch, so a mutation on *any* shard makes in-flight
    results stale — per-shard cache epochs without teaching the cache about
    shards.  A topology change (live shard split) grows the tuple's arity,
    which can never compare equal to any pre-split epoch: every stale
    snapshot reads as a global flush by construction.

    Subscribers are registered on every shard *and remembered*, so each
    shard's mutations flush the service cache exactly as a single store's
    would — including shards installed after the subscription
    (:meth:`attach` rewires every remembered listener onto the new
    shard's manager; without that memory a split-off shard's mutations
    would silently never flush the cache).
    """

    def __init__(self, managers: Sequence[VersioningManager]) -> None:
        self._managers = list(managers)
        self._listeners: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    @property
    def change_clock(self) -> Tuple[int, ...]:
        return tuple(m.change_clock for m in self._managers)

    def subscribe(self, listener: Callable[[], None]) -> None:
        with self._lock:
            self._listeners.append(listener)
            managers = list(self._managers)
        for manager in managers:
            manager.subscribe(listener)

    def unsubscribe(self, listener: Callable[[], None]) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)
            managers = list(self._managers)
        for manager in managers:
            manager.unsubscribe(listener)

    def attach(self, manager: VersioningManager) -> None:
        """Fold a new shard's manager into the composite (live reshard):
        the clock tuple grows and every remembered listener starts hearing
        the new shard's flushes."""
        with self._lock:
            self._managers.append(manager)
            listeners = list(self._listeners)
        for listener in listeners:
            manager.subscribe(listener)


class _RouterCluster:
    """Cluster shim: the home-unit domain the service draws from.

    The service draws per-request home units from ``unit_ids()``; the
    router maps them onto each shard's own unit range.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router

    @property
    def num_units(self) -> int:
        return max(s.cluster.num_units for s in self._router.shards)

    def unit_ids(self) -> List[int]:
        return list(range(self.num_units))


class _RouterCompactor:
    """Drives the shards' compactors (the service's ``auto_compact`` hook).

    ``run_once`` visits only the shards that can have something due: those a
    mutation was routed to since the last call, plus any whose last visit
    compacted something (folding one group changes the sizes the policy
    weighs the others against).  Every policy input moves only when its own
    shard stages, so any other visit is a no-op that pays for the policy.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router

    def run_once(self) -> int:
        router = self._router
        applied = 0
        for shard_id in router._take_touched():
            count = router.pipelines[shard_id].compactor.run_once()
            if count:
                router._touch(shard_id)
                applied += count
        return applied

    def drain(self) -> int:
        self._router._take_touched()
        return sum(p.compactor.drain() for p in self._router.pipelines)


class ShardRouter:
    """Scatter-gather execution over independent SmartStore shards.

    Use :func:`repro.shard.build.build_router` (or ``connect`` with a sharded
    :class:`~repro.api.spec.DeploymentSpec`) to construct one from a corpus;
    direct instantiation takes already-opened shards (all sharing one schema
    and identical corpus-wide index bounds) plus the partitioner that routes
    new records.  The owner map and summaries are derived from what each
    shard's pipeline holds, replayed records included.
    """

    def __init__(
        self,
        shards: Sequence[SmartStore],
        partitioner: ShardPartitioner,
        *,
        pipelines: Optional[Sequence[IngestPipeline]] = None,
        summary_bloom_bits: int = SUMMARY_BLOOM_BITS,
        summary_bloom_hashes: int = SUMMARY_BLOOM_HASHES,
    ) -> None:
        self.shards = list(shards)
        if not self.shards:
            raise ValueError("a ShardRouter needs at least one shard")
        self.partitioner = partitioner
        self.schema: AttributeSchema = self.shards[0].schema
        base = self.shards[0]
        for shard in self.shards[1:]:
            if shard.schema is not base.schema and shard.schema.names != base.schema.names:
                raise ValueError("all shards must share one attribute schema")
            if not (
                np.allclose(shard.index_lower, base.index_lower)
                and np.allclose(shard.index_upper, base.index_upper)
            ):
                raise ValueError(
                    "shards disagree on index-space bounds; build every shard "
                    "with index_bounds=corpus_index_bounds(corpus) or merged "
                    "top-k distances will not be comparable"
                )
        self.pipelines = (
            list(pipelines)
            if pipelines is not None
            else [s.default_pipeline() for s in self.shards]
        )
        if len(self.pipelines) != len(self.shards):
            raise ValueError("one ingest pipeline per shard is required")

        self.versioning = _CompositeVersioning([s.versioning for s in self.shards])
        self.cluster = _RouterCluster(self)
        self.compactor = _RouterCompactor(self)
        self.config: SmartStoreConfig = base.config
        # Summary geometry: the corpus-wide transform and bounds every
        # shard was built with (validated identical above).
        self._log_mask = np.asarray(self.schema.log_scale_mask(), dtype=bool)
        self._index_lower = np.asarray(base.index_lower, dtype=np.float64)
        self._index_upper = np.asarray(base.index_upper, dtype=np.float64)
        self._plans: Dict[str, Callable[..., QueryResult]] = {
            "point": self._point,
            "range": self._range,
            "topk": self._topk,
        }
        # file_id -> shard id, for ownership routing of deletes/modifies.
        # A delete keeps the entry: a later re-insert must land on the shard
        # whose chain stages the delete, so the pair nets out in order.
        self._owner: Dict[int, int] = {}
        # Every summary filter has these parameters, so a point query
        # hashes its filename once for all of them.
        self._summary_bloom = (summary_bloom_bits, summary_bloom_hashes)
        # Both derive from each pipeline's population, replayed records too.
        self._summaries: List[ShardSummary] = []
        for sid, pipeline in enumerate(self.pipelines):
            files = pipeline.materialized_files()
            self._summaries.append(self.summarise(sid, files))
            self._owner.update((file.file_id, sid) for file in files)
        # Shard ids the compactor has yet to look at (see _RouterCompactor);
        # guarded by _mutation_lock.
        self._touched: Set[int] = set()
        self._mutation_lock = threading.Lock()
        self._shard_locks = [threading.Lock() for _ in self.shards]
        self._stats_lock = threading.Lock()
        # Topology gate: queries and routed mutations take the read side
        # (many in parallel, as before); installing a split-off shard takes
        # the write side, so the shard/pipeline/summary/lock lists never
        # change shape under an in-flight scatter.  Lock order is topology
        # -> _mutation_lock -> _shard_locks[i]; the flip itself touches
        # only pipeline-level locks below the write side.
        self._topology = ReadWriteLock()
        self.reshards = 0
        self.queries: Dict[str, int] = {"point": 0, "range": 0, "topk": 0}
        self.shards_contacted = 0
        self.shards_pruned = 0
        self.mutations_routed = 0
        # Simulated busy time each shard has accumulated answering its part
        # of the scatter-gather work.  Shards are independent deployments,
        # so the *busiest* shard bounds the cluster's sustainable query
        # rate: throughput = queries / max(shard_busy_seconds) — the
        # quantity the scaling benchmark gates on.
        self.shard_busy_seconds: List[float] = [0.0] * len(self.shards)
        self._replication_events_seen: Dict[str, int] = {}
        self._closed = False

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Close every shard pipeline."""
        if self._closed:
            return
        self._closed = True
        for pipeline in self.pipelines:
            pipeline.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def file_count(self) -> int:
        """Indexed files across the shards (no record is read)."""
        return sum(shard.file_count() for shard in self.shards)

    def default_pipeline(self) -> "ShardRouter":
        """The router is its own write path (see :class:`SmartStore` hook)."""
        return self

    # ------------------------------------------------------------------ helpers
    def _index_rows(self, files: Sequence[FileMetadata]) -> np.ndarray:
        return log_transform(attribute_matrix(files, self.schema), self.schema)

    def summarise(self, shard_id: int, files: Sequence[FileMetadata]) -> ShardSummary:
        """A fresh summary of ``files`` for the shard numbered ``shard_id``."""
        bits, hashes = self._summary_bloom
        summary = ShardSummary(shard_id, bits=bits, hashes=hashes)
        if files:
            summary.observe_rows(self._index_rows(files), [f.filename for f in files])
        return summary

    def _count(self, kind: str, contacted: int) -> None:
        with self._stats_lock:
            self.queries[kind] += 1
            self.shards_contacted += contacted
            self.shards_pruned += len(self.shards) - contacted

    def _shard_call(self, shard_id: int, query: Query, ctx: ReadContext) -> QueryResult:
        """One shard's part of a scatter: execute and account its busy time.

        The context travels whole — only the home unit is rewritten, mapped
        onto this shard's own unit range.  The span parents under the
        caller's, so replica / WAL spans underneath do too.
        """
        shard = self.shards[shard_id]
        if ctx.home_unit is not None:
            units = shard.cluster.unit_ids()
            ctx = replace(ctx, home_unit=units[ctx.home_unit % len(units)])
        with get_tracer().span("shard.scan", shard=shard_id, kind=kind_of(query)):
            result = shard.execute(query, ctx)
        with self._stats_lock:
            self.shard_busy_seconds[shard_id] += result.latency
        return result

    def reset_busy(self) -> None:
        with self._stats_lock:
            self.shard_busy_seconds = [0.0] * len(self.shards)

    # ------------------------------------------------------------------ queries
    def execute(self, query: Query, ctx: Optional[ReadContext] = None) -> QueryResult:
        """Scatter one query over the shards its summaries admit and merge.

        The shared read entry point (see
        :class:`~repro.core.queries.ReadContext`): the deadline is checked
        between scatter phases and forwarded to every shard, the
        consistency preference rides through to replicated shards.  The
        merged :class:`~repro.cluster.metrics.Metrics` is this request's
        cost: router probes plus every contacted shard's charges.
        """
        ctx = ctx if ctx is not None else ReadContext()
        plan = self._plans[kind_of(query)]

        def call(shard_id: int, max_d_bound: Optional[float] = None) -> QueryResult:
            shard_ctx = (
                ctx if max_d_bound is None else replace(ctx, max_d_bound=max_d_bound)
            )
            return self._shard_call(shard_id, query, shard_ctx)

        with self._topology.read_locked():
            return plan(query, ctx, call)

    def _expired(self, kind: str, metrics: Metrics) -> QueryResult:
        """The deadline ran out before any shard could be contacted."""
        self._count(kind, 0)
        return QueryResult.empty(metrics, self.config.cost_model)

    def _merge_by_id(
        self, results: Sequence[QueryResult], router_metrics: Metrics
    ) -> QueryResult:
        """Merge point/range scatter results into canonical file-id order.

        Shards hold disjoint id sets by construction, so the union *is* the
        answer; the dict-merge is defensive.  Latency is the cost model's
        figure for shards on machines of their own — the router's probe cost
        plus the slowest shard — although the calls here ran one after
        another.
        """
        overhead = router_metrics.latency(self.config.cost_model)
        merged: Dict[int, FileMetadata] = {}
        groups_visited = 0
        shard_latency = 0.0
        complete = True
        for result in results:
            for file in result.files:
                merged.setdefault(file.file_id, file)
            router_metrics.merge(result.metrics)
            groups_visited += result.groups_visited
            shard_latency = max(shard_latency, result.latency)
            complete = complete and result.complete
        files = sorted(merged.values(), key=lambda f: f.file_id)
        groups_visited = max(1, groups_visited)
        return QueryResult(
            files=files,
            metrics=router_metrics,
            # Parallel fan-out: the router's own probe cost plus the slowest
            # contacted shard (the merged metrics still account all work).
            latency=overhead + shard_latency,
            groups_visited=groups_visited,
            hops=max(0, groups_visited - 1),
            found=bool(files),
            distances=[],
            complete=complete,
        )

    def _point(self, query: PointQuery, ctx: ReadContext, call: ShardCall) -> QueryResult:
        """Filename point query over the shards the Bloom summaries admit."""
        metrics = Metrics()
        metrics.record_bloom_probe(len(self.shards))
        if ctx.expired():
            return self._expired("point", metrics)
        positions = self._summaries[0].bloom.positions(query.filename)
        targets = [
            s.shard_id
            for s in self._summaries
            if s.bloom.contains_positions(positions)
        ]
        self._count("point", len(targets))
        return self._merge_by_id([call(sid) for sid in targets], metrics)

    def _range(self, query: RangeQuery, ctx: ReadContext, call: ShardCall) -> QueryResult:
        """Range query over the shards whose boxes intersect the window."""
        metrics = Metrics()
        metrics.record_index_access(len(self.shards))
        if ctx.expired():
            return self._expired("range", metrics)
        attr_idx = list(self.schema.indices(query.attributes))
        lower = to_index_space(self._log_mask, attr_idx, query.lower)
        upper = to_index_space(self._log_mask, attr_idx, query.upper)
        targets = [
            s.shard_id
            for s in self._summaries
            if s.intersects_window(attr_idx, lower, upper)
        ]
        self._count("range", len(targets))
        return self._merge_by_id([call(sid) for sid in targets], metrics)

    def _topk(self, query: TopKQuery, ctx: ReadContext, call: ShardCall) -> QueryResult:
        """Global top-k: primary shard first, MaxD shipped to the rest.

        Shards are ranked by MINDIST to their boxes; the closest (primary)
        shard is searched unbounded and, when it returns a full ``k``, its
        k-th-best distance becomes the shared ``MaxD`` bound: shards whose
        boxes cannot beat it are skipped outright, the rest prune their own
        group scans against it.  The k-way merge orders the pooled
        candidates by ``(distance, file_id)`` — the same canonical order a
        single store produces — and truncates to ``k``.
        """
        metrics = Metrics()
        metrics.record_index_access(len(self.shards))
        if ctx.expired():
            return self._expired("topk", metrics)
        attr_idx = list(self.schema.indices(query.attributes))
        index_point = to_index_space(self._log_mask, attr_idx, query.values)
        norm_lo = self._index_lower[attr_idx]
        norm_hi = self._index_upper[attr_idx]

        mindists = [
            summary.mindist(attr_idx, index_point, norm_lo, norm_hi)
            for summary in self._summaries
        ]
        order = sorted(range(len(self.shards)), key=lambda sid: (mindists[sid], sid))
        primary_result = call(order[0])
        bound: Optional[float] = None
        if len(primary_result.distances) >= query.k:
            bound = primary_result.distances[query.k - 1]
        rest = [
            sid
            for sid in order[1:]
            if bound is None or mindists[sid] <= bound
        ]
        truncated = False
        if rest and ctx.expired():
            # The budget ran out between the primary scan and the bounded
            # fan-out: serve what the primary gathered, marked partial.
            rest, truncated = [], True
        self._count("topk", 1 + len(rest))
        rest_results = [call(sid, bound) for sid in rest]

        overhead = metrics.latency(self.config.cost_model)
        best: Dict[int, Tuple[float, FileMetadata]] = {}
        groups_visited = 0
        rest_latency = 0.0
        complete = not truncated
        for result in [primary_result, *rest_results]:
            complete = complete and result.complete
            for dist, file in zip(result.distances, result.files):
                kept = best.get(file.file_id)
                if kept is None or dist < kept[0]:
                    best[file.file_id] = (dist, file)
            metrics.merge(result.metrics)
            groups_visited += result.groups_visited
            if result is not primary_result:
                rest_latency = max(rest_latency, result.latency)
        top = sorted(best.values(), key=lambda pair: (pair[0], pair[1].file_id))[
            : query.k
        ]
        files = [f for _, f in top]
        distances = [d for d, _ in top]
        groups_visited = max(1, groups_visited)
        return QueryResult(
            files=files,
            metrics=metrics,
            # Two-phase schedule: the primary scan completes before the
            # bounded fan-out starts, so the phases add; the fan-out itself
            # is parallel, so only its slowest shard counts.
            latency=overhead + primary_result.latency + rest_latency,
            groups_visited=groups_visited,
            hops=max(0, groups_visited - 1),
            found=bool(files),
            distances=distances,
            complete=complete,
        )

    # ------------------------------------------------------------------ mutations
    def _route_mutation(self, kind: str, file: FileMetadata) -> MutationReceipt:
        # Refused before the partitioner reads the attributes (and before
        # any shard logs), with the error the single-store pipeline raises.
        if kind != "delete":
            self.schema.require(file.path, file.attributes)
        # The topology read side pins the shard/pipeline lists for the
        # whole route-stage-account sequence: a live split can neither
        # renumber the owner map nor swap the summary list mid-mutation.
        with self._topology.read_locked():
            return self._route_mutation_locked(kind, file)

    def _route_mutation_locked(self, kind: str, file: FileMetadata) -> MutationReceipt:
        # Routing (owner map lookup) holds the router-wide lock only
        # briefly; the pipeline call — which may fsync a WAL — holds just
        # its shard's lock, so writers to different shards proceed in
        # parallel.  Mutations of one file always resolve to one shard
        # (ownership, or the deterministic partitioner), so per-file
        # ordering degenerates to per-shard ordering.
        with self._mutation_lock:
            shard_id = self._owner.get(file.file_id)
            if shard_id is None and kind == "delete":
                # No shard owns the file, and a delete carries no
                # attributes to place it by: the shard its id picks logs
                # it and reports it unknown.
                shard_id = int(file.file_id % len(self.shards))
            elif shard_id is None:
                shard_id = int(self.partitioner.shard_for(file)) % len(self.shards)
        with self._shard_locks[shard_id]:
            receipt: MutationReceipt = getattr(self.pipelines[shard_id], kind)(file)
            if receipt.known and kind != "delete":
                # The summary box/filter must cover the staged record
                # *before* any later query could miss it (deletes never
                # shrink either structure — conservative by design).
                self._summaries[shard_id].observe_rows(
                    self._index_rows([file]), (file.filename,)
                )
        with self._mutation_lock:
            self.mutations_routed += 1
            self._touched.add(shard_id)
            if receipt.known:
                self._owner[file.file_id] = shard_id
        return receipt

    def insert(self, file: FileMetadata) -> MutationReceipt:
        """Insert one record on its semantic shard (immediately queryable)."""
        return self._route_mutation("insert", file)

    def delete(self, file: FileMetadata) -> MutationReceipt:
        """Delete one record on the shard that owns it."""
        return self._route_mutation("delete", file)

    def modify(self, file: FileMetadata) -> MutationReceipt:
        """Replace one record's attribute values on the shard that owns it."""
        return self._route_mutation("modify", file)

    def _touch(self, shard_id: int) -> None:
        with self._mutation_lock:
            self._touched.add(shard_id)

    def _take_touched(self) -> List[int]:
        """Hand the compactor its worklist (ascending) and start a new one."""
        with self._mutation_lock:
            touched, self._touched = self._touched, set()
        return sorted(touched)

    def owner_of(self, file_id: int) -> Optional[int]:
        """The shard currently responsible for ``file_id`` (None = unknown)."""
        with self._mutation_lock:
            return self._owner.get(file_id)

    # ------------------------------------------------------------------ topology
    def load_report(self) -> PartitionLoad:
        """Snapshot the live partition-load picture for elasticity decisions.

        Populations come from each pipeline's materialized file set (base
        population plus staged net effect — what the shard actually owns
        right now), busy seconds from the scatter accounting.  The
        :class:`~repro.shard.reshard.ReshardController` feeds this to
        :class:`~repro.shard.load.PartitionLoad.degenerate` to decide when
        a split is warranted.
        """
        with self._topology.read_locked():
            populations = [len(p.materialized_files()) for p in self.pipelines]
            with self._stats_lock:
                busy = list(self.shard_busy_seconds)
        return PartitionLoad(
            shards=len(populations), populations=populations, busy_seconds=busy
        )

    def _install_shard_locked(
        self,
        store: SmartStore,
        pipeline: IngestPipeline,
        summary: ShardSummary,
        moving_ids: Sequence[int],
    ) -> int:
        """Flip a fully backfilled shard into the topology.

        The caller — the reshard controller — MUST hold the topology
        *write* side (``self._topology.write_locked()``): the flip spans
        several steps (final backlog drain, partitioner recut, this
        install, handoff deletes) that must all land inside one exclusive
        section, so the controller owns the lock and this method only does
        the list surgery.  With the write side held, the append across the
        five parallel per-shard lists plus the owner-map rewrite is one
        atomic transition as far as queries and routed mutations are
        concerned.  ``versioning.attach`` grows the cache-epoch tuple's
        arity, which no pre-split epoch can compare equal to: every cached
        result goes stale at the flip, by construction.
        """
        new_id = len(self.shards)
        if summary.shard_id != new_id:
            raise ValueError(
                f"summary built for shard {summary.shard_id}, "
                f"installing as {new_id}"
            )
        self.shards.append(store)
        self.pipelines.append(pipeline)
        self._summaries.append(summary)
        self._shard_locks.append(threading.Lock())
        with self._stats_lock:
            self.shard_busy_seconds.append(0.0)
        with self._mutation_lock:
            for fid in moving_ids:
                self._owner[fid] = new_id
            self.reshards += 1
            # The handoff stages deletes on the source behind the router's
            # back; the next compaction pass looks at everyone.
            self._touched.update(range(len(self.shards)))
        self.versioning.attach(store.versioning)
        return new_id

    # ------------------------------------------------------------------ storage
    def checkpoint(
        self, exclusive: Callable[[], ContextManager[Any]] = nullcontext
    ) -> List[Dict[str, object]]:
        """Publish a segment snapshot on every storage-backed shard.

        The shard list is snapshotted under the topology read gate, but
        every publish — segment writes and their fsyncs — runs *outside*
        it (INVARIANTS §12: no segment fsync under the topology lock);
        each shard's publish serialises on its own pipeline lock, and a
        shard split concurrent with the walk simply joins the next
        checkpoint round.  Each shard drains under ``exclusive`` (see
        :meth:`IngestPipeline.checkpoint`).  Returns the per-shard
        manifests.
        """
        with self._topology.read_locked():
            pipelines = list(self.pipelines)
        manifests: List[Dict[str, object]] = []
        for pipeline in pipelines:
            if isinstance(pipeline, ReplicaGroup):
                if any(
                    getattr(m.pipeline, "storage", None) is not None
                    for m in pipeline.members
                ):
                    manifests.append(pipeline.checkpoint(exclusive))
            elif getattr(pipeline, "storage", None) is not None:
                manifests.append(pipeline.checkpoint(exclusive))
        if not manifests:
            raise ValueError(
                "checkpoint() needs segment stores attached to the shards "
                "(DeploymentSpec.storage)"
            )
        return manifests

    # ------------------------------------------------------------------ replication
    def replica_groups(self) -> List[ReplicaGroup]:
        """The shards that are replica groups (empty for an unreplicated router)."""
        return [s for s in self.shards if isinstance(s, ReplicaGroup)]

    @property
    def replicated(self) -> bool:
        return bool(self.replica_groups())

    def anti_entropy(self) -> Dict[str, int]:
        """Run one anti-entropy pass over every replica group."""
        checked = repaired = 0
        for group in self.replica_groups():
            outcome = group.anti_entropy()
            checked += outcome["checked"]
            repaired += outcome["repaired"]
        return {"checked": checked, "repaired": repaired}

    def drain_replication_events(self) -> Dict[str, int]:
        """Failover/degraded-read/retry counts since the last drain.

        The query service polls this after engine executions so its
        telemetry accounts replication events without the router having to
        know about the service.  Returns an empty dict for an unreplicated
        router.
        """
        groups = self.replica_groups()
        if not groups:
            return {}
        totals = {
            "failovers": sum(g.failovers for g in groups),
            "degraded_reads": sum(g.degraded_reads for g in groups),
            "replica_retries": sum(g.read_retries for g in groups),
        }
        with self._stats_lock:
            seen = self._replication_events_seen
            delta = {k: v - seen.get(k, 0) for k, v in totals.items()}
            self._replication_events_seen = totals
        return delta

    # ------------------------------------------------------------------ introspection
    def stats(self) -> Dict[str, object]:
        with self._stats_lock:
            routed = dict(self.queries)
            contacted, pruned = self.shards_contacted, self.shards_pruned
        d: Dict[str, object] = {
            "shards": len(self.shards),
            "partitioner": getattr(self.partitioner, "kind", "custom"),
            "files_per_shard": [s.file_count() for s in self.shards],
            "queries_routed": routed,
            "shards_contacted": contacted,
            "shards_pruned": pruned,
            "mutations_routed": self.mutations_routed,
            "reshards": self.reshards,
            "shard_busy_seconds": list(self.shard_busy_seconds),
            "staged_per_shard": [len(p.overlay) for p in self.pipelines],
            "compactions": sum(
                p.compactor.stats.group_compactions for p in self.pipelines
            ),
        }
        groups = self.replica_groups()
        if groups:
            d["replication"] = {
                "mode": groups[0].mode,
                "replicas_per_shard": groups[0].num_replicas,
                "failovers": sum(g.failovers for g in groups),
                "degraded_reads": sum(g.degraded_reads for g in groups),
                "read_retries": sum(g.read_retries for g in groups),
                "resyncs": sum(g.resyncs for g in groups),
                "max_observed_lag": max(g.max_observed_lag for g in groups),
                "groups": [g.stats() for g in groups],
            }
        return d

    def __repr__(self) -> str:
        return (
            f"ShardRouter(shards={len(self.shards)}, files={self.file_count()}, "
            f"partitioner={getattr(self.partitioner, 'kind', 'custom')!r})"
        )
