"""On-line and off-line query engines (§3.3, §3.4).

The engine executes the three query types against a built SmartStore
deployment and accounts every message, index probe and record scan on a
per-query :class:`~repro.cluster.metrics.Metrics` object:

* **Point query** — routed over the hierarchical Bloom filters; candidate
  storage units verify the filename locally.
* **Range query** — target groups (first-level index units) are located
  either by local computation over replicated index summaries (*off-line*
  mode) or by multicasting to the index units (*on-line* mode); the storage
  units of the target groups whose MBR intersects the window run vectorised
  local scans of their raw columns against the user's bounds.
* **Top-k query** — the most semantically correlated group is scanned first
  to obtain ``MaxD`` (the current k-th best distance); sibling groups are
  then checked only when their MBR's MINDIST is below ``MaxD``.

Geometry convention: users express queries in natural ("raw") units; the
engine converts them into the deployment's *index space* (wide-range
attributes are ``log1p``-transformed — a per-dimension monotone transform,
so a box that misses a window holds no file inside it) where all MBRs and
distances live; a range scan alone compares raw units.  Top-k distances
additionally use the deployment-wide min-max normalisation of that space
so that dimensions are comparable.

Pending changes (the version chains, §4.4) reach every read through one
merge, :meth:`QueryEngine._pending`: with versioning enabled a read adds
the chains' latest records at a small extra latency (Figure 14), and with
an ingest pipeline attached pending records also replace or hide their
indexed copies (read-your-writes).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import compress
from typing import AbstractSet, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.metrics import Metrics
from repro.cluster.node import StorageServer, in_window
from repro.cluster.simulator import ClusterSimulator
from repro.core.offline import OfflineRouter
from repro.core.semantic_rtree import SemanticNode, SemanticRTree
from repro.core.versioning import PendingView, VersioningManager
from repro.lsi.model import LSIModel
from repro.metadata.attributes import AttributeSchema
from repro.metadata.file_metadata import FileMetadata
from repro.rtree.mbr import MBRStack
from repro.workloads.types import PointQuery, Query, RangeQuery, TopKQuery

__all__ = ["QueryResult", "ReadContext", "QueryEngine", "to_index_space"]


@dataclass
class QueryResult:
    """Outcome of one query.

    Attributes
    ----------
    files:
        Matching metadata records (for top-k, sorted by ascending distance).
    metrics:
        Per-query event counters.
    latency:
        Simulated latency in seconds under the engine's cost model.
    groups_visited:
        Number of first-level semantic groups that did local work.
    hops:
        Routing distance in groups: ``max(0, groups_visited - 1)`` — the
        quantity Figure 8 reports (0 hops = served within a single group).
    found:
        Convenience flag: non-empty result set.
    distances:
        For top-k queries, the distance of each returned file (same order).
    complete:
        False when a cooperative deadline expired before every relevant
        group could be visited: the payload is then a correct *subset* of
        the full answer (every file returned does match), but files from
        unvisited groups may be missing.
    """

    files: List[FileMetadata]
    metrics: Metrics
    latency: float
    groups_visited: int
    hops: int
    found: bool
    distances: List[float] = field(default_factory=list)
    complete: bool = True

    @classmethod
    def empty(
        cls,
        metrics: Optional[Metrics] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> "QueryResult":
        """The *incomplete* empty result: nothing could be gathered (the
        deadline expired before any work started, or the backend is
        unreachable).  ``metrics`` carries whatever routing work was
        already charged."""
        metrics = metrics if metrics is not None else Metrics()
        return cls(
            files=[],
            metrics=metrics,
            latency=metrics.latency(cost_model),
            groups_visited=0,
            hops=0,
            found=False,
            complete=False,
        )


@dataclass(frozen=True)
class ReadContext:
    """Everything one read carries besides the query itself.

    Every store-shaped backend — :class:`QueryEngine`, ``SmartStore``,
    ``ShardRouter``, ``ReplicaGroup`` — answers
    ``execute(query, ctx=None)``.  The context is packed once (by the query
    service, from the admitted request), forwarded whole by every hop (a
    router rewrites it per shard with ``dataclasses.replace``) and unpacked
    once, in :meth:`QueryEngine.execute`.

    ``home_unit``
        The storage unit the request lands on (``None``: drawn from the
        cluster's shared RNG).  The service pins it per request so that
        concurrent execution keeps the cost accounting reproducible.
    ``deadline``
        Cooperative budget — any object with ``expired()`` / ``remaining()``
        (:class:`repro.api.options.Deadline`), checked between units of
        work: on expiry no further storage unit is contacted and the result
        is a correct subset marked ``complete=False``.
    ``consistency`` / ``max_staleness``
        Where a replica group may serve the read
        (:meth:`~repro.replication.group.ReplicaGroup.read`).  Unreplicated
        backends are trivially at primary consistency and ignore both.
    ``max_d_bound``
        Top-k only: an externally known upper bound on the global
        k-th-best distance (a router ships the primary shard's).
    """

    home_unit: Optional[int] = None
    deadline: Optional[Any] = None
    consistency: str = "primary"
    max_staleness: int = 0
    max_d_bound: Optional[float] = None

    def expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, bit-identical to ``np.linalg.norm(row)``
    row by row: both reduce to the BLAS dot product (``np.sum(r * r)``
    rounds differently in about one row in ten)."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _overlaid(
    hits: List[FileMetadata],
    records: List[FileMetadata],
    masked: Optional[AbstractSet[int]],
) -> List[FileMetadata]:
    """A set-valued answer with pending changes merged in: the indexed hits
    (one per id) less the ``masked`` ids, then the pending ``records`` that
    qualify, each replacing any indexed copy.  A masked id whose record no
    longer qualifies (a modify moved it out of the window) is dropped."""
    unique: Dict[int, FileMetadata] = {}
    for f in hits:
        if masked is None or f.file_id not in masked:
            unique.setdefault(f.file_id, f)
    for f in records:
        unique[f.file_id] = f
    return list(unique.values())


def live_candidates(
    server: StorageServer,
    query_norm: np.ndarray,
    k: int,
    metrics: Optional[Metrics],
    *,
    attr_indices: Sequence[int],
    masked: AbstractSet[int],
    extra: int,
    within: Optional[float] = None,
) -> Tuple[List[float], List[int], List[int]]:
    """The unit's ``k`` best records whose ids are not ``masked``, as
    ``server.knn_candidates`` returns them.  ``extra`` bounds how many
    masked ids the unit holds (:attr:`PendingView.per_unit`): asking for
    ``k + extra`` and dropping the masked ones gives the records that
    masking before the unit's cut gives, ties included."""
    distances, file_ids, rows = server.knn_candidates(
        query_norm, k + extra, metrics, attr_indices=attr_indices, within=within
    )
    if extra:
        keep = [i for i, file_id in enumerate(file_ids) if file_id not in masked][:k]
        distances = [distances[i] for i in keep]
        file_ids = [file_ids[i] for i in keep]
        rows = [rows[i] for i in keep]
    return distances, file_ids, rows


def to_index_space(
    log_mask: np.ndarray, attr_indices: Sequence[int], values: Sequence[float]
) -> np.ndarray:
    """Raw query values → index space (``log1p`` on wide-range attributes).

    ``log_mask`` is the schema's per-attribute ``log_scale`` mask as a
    boolean array; a shard router applies the same transform to test
    queries against its shard summaries.  ``values`` is one point or a
    ``(n, len(attr_indices))`` stack of points.
    """
    idx = np.asarray(attr_indices, dtype=np.intp)
    vals = np.asarray(values, dtype=np.float64).copy()
    logs = log_mask[idx]
    vals[..., logs] = np.log1p(np.maximum(vals[..., logs], 0.0))
    return vals


class QueryEngine:
    """Executes point/range/top-k queries against a SmartStore deployment.

    Parameters
    ----------
    tree, cluster, lsi, schema:
        The deployment's semantic R-tree, cluster simulator, fitted LSI
        model and attribute schema.  The tree's node filters and every
        cluster server's own filter must share one Bloom geometry (both
        come from ``SmartStoreConfig.bloom_bits`` / ``bloom_hashes``): a
        point query hashes its filename once and probes all of them at the
        same positions.
    index_lower, index_upper:
        Deployment-wide per-attribute bounds of the index space (the
        log-transformed attribute matrix of the build-time population),
        used both for min-max normalisation and for folding queries into
        the LSI subspace.
    log_mask:
        Per-attribute flags selecting which attributes the index-space
        transform applies ``log1p`` to (from the schema).
    versioning, offline_router:
        The version chains and the replicated-index router (required for
        ``mode="offline"``).
    mode:
        ``"offline"`` (replica-based routing, the default) or ``"online"``
        (multicast discovery).
    search_breadth:
        Maximum number of first-level groups a complex query contacts.
        SmartStore deliberately bounds the search scope to the most
        correlated groups (that is the whole point of the semantic
        organisation); the bound keeps query traffic low at the price of
        occasionally missing results that live in a less correlated group —
        which is why the paper's recall figures sit below 100 %.
    """

    def __init__(
        self,
        *,
        tree: SemanticRTree,
        cluster: ClusterSimulator,
        lsi: LSIModel,
        schema: AttributeSchema,
        index_lower: np.ndarray,
        index_upper: np.ndarray,
        log_mask: Sequence[bool],
        center: Optional[np.ndarray] = None,
        versioning: Optional[VersioningManager] = None,
        offline_router: Optional[OfflineRouter] = None,
        mode: str = "offline",
        versioning_enabled: bool = True,
        search_breadth: int = 4,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        if mode not in ("offline", "online"):
            raise ValueError(f"mode must be 'offline' or 'online', got {mode!r}")
        if mode == "offline" and offline_router is None:
            raise ValueError("offline mode requires an OfflineRouter")
        if search_breadth < 1:
            raise ValueError("search_breadth must be >= 1")
        self.tree = tree
        self.cluster = cluster
        self.lsi = lsi
        self.schema = schema
        self.index_lower = np.asarray(index_lower, dtype=np.float64)
        self.index_upper = np.asarray(index_upper, dtype=np.float64)
        self.log_mask = np.asarray(log_mask, dtype=bool)
        self.center = (
            np.asarray(center, dtype=np.float64)
            if center is not None
            else np.full(schema.dimension, 0.5, dtype=np.float64)
        )
        self.versioning = versioning
        self.offline_router = offline_router
        self.mode = mode
        self.versioning_enabled = versioning_enabled and versioning is not None
        self.search_breadth = search_breadth
        self.cost_model = cost_model
        # The pending-change store read with read-your-writes visibility:
        # ``versioning`` itself once an ingest pipeline attaches, None before
        # (the chain view alone).  See :meth:`_pending`.
        self.overlay: Optional[VersioningManager] = None
        self._nodes_by_id: Dict[int, SemanticNode] = {n.node_id: n for n in tree.nodes}

    def refresh_topology(self) -> None:
        """Re-index the tree's nodes after a structural change.

        Compaction may split hot groups (allocating new index units); the
        id → node map used by off-line routing must follow.
        """
        self._nodes_by_id = {n.node_id: n for n in self.tree.nodes}

    def node_by_id(self, node_id: int) -> Optional[SemanticNode]:
        """O(1) tree-node lookup, re-indexing once on a stale miss.

        The miss path covers callers that changed the tree through
        :mod:`repro.core.reconfig` without calling :meth:`refresh_topology`.
        """
        node = self._nodes_by_id.get(node_id)
        if node is None:
            self.refresh_topology()
            node = self._nodes_by_id.get(node_id)
        return node

    # ------------------------------------------------------------------ space transforms
    def to_index_space(self, attr_indices: Sequence[int], values: Sequence[float]) -> np.ndarray:
        """Raw query values → this deployment's index space."""
        return to_index_space(self.log_mask, attr_indices, values)

    def normalize_index_values(
        self, attr_indices: Sequence[int], index_values: np.ndarray
    ) -> np.ndarray:
        """Index-space values → deployment-wide min-max normalised values."""
        idx = np.asarray(attr_indices, dtype=np.intp)
        span = self.index_upper[idx] - self.index_lower[idx]
        span = np.where(span > 0, span, 1.0)
        out = (np.asarray(index_values, dtype=np.float64) - self.index_lower[idx]) / span
        return np.clip(out, 0.0, 1.0)

    def fold_normalized_vector(self, normalized_full: np.ndarray) -> np.ndarray:
        """Fold a full-dimension normalised attribute vector into LSI space.

        The LSI model was fitted on *centred* data, so the deployment-wide
        per-attribute mean is subtracted before projecting.
        """
        return self.lsi.fold_in(np.asarray(normalized_full, dtype=np.float64) - self.center)

    def _pending(
        self, metrics: Metrics, *, chains: bool = True
    ) -> Tuple[Optional[PendingView], Optional[AbstractSet[int]]]:
        """What the pending changes add to one read: ``(view, masked)``.

        ``view`` (``None``: nothing to add) holds the latest insert/modify
        record of each pending file, which wins over any indexed copy;
        ``masked`` the ids whose indexed copies the read must drop
        (``None``: none).  The rule:

        * chain view (versioning enabled; a point query passes ``chains``
          only when the index found nothing): the records are added and
          nothing is masked — a deletion waits for reconfiguration.  Rolling
          through the chains is charged one record scan per change;
        * read-your-writes (an ingest pipeline set :attr:`overlay`): every
          pending id is masked, so a pending record replaces its indexed
          copy and a pending delete hides it; one index access.

        A store with nothing pending costs one length check.
        """
        chains = chains and self.versioning_enabled
        if not (chains or self.overlay is not None) or not len(self.versioning):
            return None, None
        view = self.versioning.snapshot()
        if chains:
            metrics.record_scan(view.entries)
        if self.overlay is None:
            return view, None
        metrics.record_index_access()
        return view, view.pending

    def _pending_distances(
        self, view: PendingView, attributes: Sequence[str], query_norm: np.ndarray
    ) -> List[float]:
        """Top-k distance of each of the view's records from the normalised
        query point: one stack of their queried columns, normalised and
        measured with one kernel each."""
        idx = list(self.schema.indices(attributes))
        values = np.stack(view.columns(attributes), axis=1)
        normalised = self.normalize_index_values(idx, self.to_index_space(idx, values))
        return _row_norms(normalised - query_norm).tolist()

    def _finish(
        self,
        files: List[FileMetadata],
        metrics: Metrics,
        groups_visited: int,
        distances: Optional[List[float]] = None,
        *,
        complete: bool = True,
    ) -> QueryResult:
        return QueryResult(
            files=files,
            metrics=metrics,
            latency=metrics.latency(self.cost_model),
            groups_visited=groups_visited,
            hops=max(0, groups_visited - 1),
            found=bool(files),
            distances=distances or [],
            complete=complete,
        )

    # ------------------------------------------------------------------ the read entry point
    def execute(self, query: Query, ctx: Optional[ReadContext] = None) -> QueryResult:
        """Run one query: the single place a read's type is dispatched and
        its :class:`ReadContext` unpacked into the three algorithms."""
        ctx = ctx if ctx is not None else ReadContext()
        if ctx.expired():
            # Nothing may start — what a router answers when the budget is
            # gone before it could contact any shard.
            return QueryResult.empty()
        if isinstance(query, PointQuery):
            return self.point_query(
                query, home_unit=ctx.home_unit, deadline=ctx.deadline
            )
        if isinstance(query, RangeQuery):
            return self.range_query(
                query, home_unit=ctx.home_unit, deadline=ctx.deadline
            )
        if isinstance(query, TopKQuery):
            return self.topk_query(
                query,
                home_unit=ctx.home_unit,
                max_d_bound=ctx.max_d_bound,
                deadline=ctx.deadline,
            )
        raise TypeError(f"unsupported query type {type(query)!r}")

    # ------------------------------------------------------------------ point query
    def point_query(
        self,
        query: PointQuery,
        *,
        home_unit: Optional[int] = None,
        deadline=None,
    ) -> QueryResult:
        """Filename point query routed over the Bloom-filter hierarchy
        (``home_unit`` / ``deadline``: see :class:`ReadContext`; the budget
        is checked before each candidate unit is contacted)."""
        metrics = Metrics()
        home = home_unit if home_unit is not None else self.cluster.random_home_unit()
        metrics.record_unit_visit(home)

        # The filename is hashed once; the home unit's filter and every
        # node filter of the tree (same parameters, see the class docstring)
        # are tested at those positions.
        positions = self.tree.filename_positions(query.filename)

        # Check the home unit's own filter first (free, local).
        metrics.record_bloom_probe()
        home_leaf: Optional[SemanticNode] = None
        if self.cluster.server(home).bloom.contains_positions(positions):
            home_leaf = self.tree.leaves[home]

        # Walk the hierarchy; reaching the root's host costs one message when
        # the root is not multi-mapped into the home unit's own subtree.
        root = self.tree.root
        if root.hosted_on != home and home not in root.replica_hosts:
            metrics.record_message()
        bloom_hits = self.tree.route_positions(positions, metrics)
        candidates = [] if home_leaf is None else [home_leaf]
        candidates.extend(leaf for leaf in bloom_hits if leaf is not home_leaf)

        complete = True
        results: List[FileMetadata] = []
        for leaf in candidates:
            if deadline is not None and deadline.expired():
                complete = False
                break
            if leaf.unit_id != home:
                metrics.record_message(2)  # request + response
            matches = self.cluster.server(leaf.unit_id).lookup_filename(query.filename, metrics)
            results.extend(matches)

        # Recent insertions are not yet reflected in any Bloom filter: the
        # chain view is consulted when the index found nothing.
        view, masked = self._pending(metrics, chains=not results and complete)
        named = [] if view is None else view.named(query.filename)
        results = _overlaid(results, named, masked)

        groups = {self.tree.group_of_unit(leaf.unit_id).node_id for leaf in candidates}
        groups_visited = max(1, len(groups))
        # Same canonical order as range results (placement-independent).
        results.sort(key=lambda f: f.file_id)
        return self._finish(results, metrics, groups_visited, complete=complete)

    # ------------------------------------------------------------------ range query
    def range_query(
        self,
        query: RangeQuery,
        *,
        home_unit: Optional[int] = None,
        deadline=None,
    ) -> QueryResult:
        """Multi-dimensional range query (the deadline is checked per leaf
        scan; every file of a partial answer still matches)."""
        metrics = Metrics()
        home = home_unit if home_unit is not None else self.cluster.random_home_unit()
        metrics.record_unit_visit(home)
        attr_idx = list(self.schema.indices(query.attributes))
        # The index-space window only prunes (group location, leaf MBRs): the
        # log transform is monotone, so a box that misses it holds no file in
        # the raw-unit window.  The leaf scans decide membership, in raw units.
        lower = self.to_index_space(attr_idx, query.lower)
        upper = self.to_index_space(attr_idx, query.upper)

        target_groups = self._locate_groups_for_range(home, attr_idx, lower, upper, metrics)

        complete = True
        results: List[FileMetadata] = []
        # One mask over every node's MBR; the leaves read their rows of it.
        tables = self.tree.summaries()
        overlaps = tables.boxes.intersects_subrange(attr_idx, lower, upper).tolist()
        for group in target_groups:
            if not complete:
                break
            for leaf, row in zip(*tables.leaves_of(group)):
                # Per-leaf deadline granularity: the expiry overshoot is
                # bounded by one storage unit's scan, not a whole group's.
                if deadline is not None and deadline.expired():
                    complete = False
                    break
                metrics.record_index_access()
                if not overlaps[row]:
                    continue
                if leaf.unit_id != home:
                    metrics.record_message(2)
                files = self.cluster.server(leaf.unit_id).scan_range(
                    attr_idx, query.lower, query.upper, metrics
                )
                results.extend(files)
        # The version chains are attached to the first-level index-unit
        # replicas every storage unit holds (§3.4, §4.4), so the home unit
        # rolls through all of them locally — the small extra latency Figure
        # 14(b) measures.  Pending records are tested by the scans' own
        # predicate, over their raw values, so a file keeps its membership
        # when it is compacted (``log1p`` is not injective in floating
        # point: it maps a value 1 ulp outside a raw bound onto the
        # index-space bound).
        view, masked = self._pending(metrics)
        inside: List[FileMetadata] = []
        if view is not None and view.records:
            hits = in_window(view.columns(query.attributes), query.lower, query.upper)
            inside = list(compress(view.records, hits.tolist()))
        groups_visited = max(1, len(target_groups))
        # Canonical order: a range result is a set; returning it sorted by
        # file id makes payloads independent of physical placement (two
        # deployments over the same logical population answer identically).
        files = sorted(_overlaid(results, inside, masked), key=lambda f: f.file_id)
        return self._finish(files, metrics, groups_visited, complete=complete)

    def _limit_range_groups(
        self,
        attr_idx: Sequence[int],
        lower: np.ndarray,
        upper: np.ndarray,
        groups: List[SemanticNode],
    ) -> List[SemanticNode]:
        """Bound the search scope to the ``search_breadth`` best-matching groups.

        When more groups intersect the window than the breadth allows, the
        ones whose MBR centre is closest to the window centre (in the
        constrained, normalised dimensions) are kept — they hold the queried
        region's correlated files with the highest probability.
        """
        if len(groups) <= self.search_breadth:
            return groups
        center_idx = (np.asarray(lower) + np.asarray(upper)) / 2.0
        center_norm = self.normalize_index_values(attr_idx, center_idx)
        boxes = MBRStack([g.mbr for g in groups])
        if not boxes.present.any():
            return groups[: self.search_breadth]
        box_lo, box_hi = boxes.columns(attr_idx)
        g_centers = (box_lo + box_hi) / 2.0
        offsets = self.normalize_index_values(attr_idx, g_centers) - center_norm
        distances = np.where(boxes.present, _row_norms(offsets), np.inf)
        ranked = np.argsort(distances, kind="stable")[: self.search_breadth]
        return [groups[row] for row in ranked]

    def _locate_groups_for_range(
        self,
        home: int,
        attr_idx: Sequence[int],
        lower: np.ndarray,
        upper: np.ndarray,
        metrics: Metrics,
    ) -> List[SemanticNode]:
        """Find the first-level groups a range query must visit."""
        if self.mode == "offline":
            gids = self.offline_router.groups_for_range(attr_idx, lower, upper, metrics)
            groups = [self._nodes_by_id[g] for g in gids]
            groups = self._limit_range_groups(
                attr_idx, np.asarray(lower), np.asarray(upper), groups
            )
            # Forward the query directly to each target group's host.
            for group in groups:
                if group.hosted_on is not None and group.hosted_on != home:
                    metrics.record_message(2)
            return groups
        # On-line: the home unit multicasts to the index units to discover
        # which groups are relevant; every contacted index unit answers.
        all_groups = self.tree.first_level_groups()
        others = [g for g in all_groups if g.hosted_on != home]
        metrics.record_message(len(others))          # multicast requests
        groups = self.tree.groups_for_range(attr_idx, lower, upper, metrics)
        metrics.record_message(len(others))          # responses
        return self._limit_range_groups(attr_idx, np.asarray(lower), np.asarray(upper), groups)

    # ------------------------------------------------------------------ top-k query
    def topk_query(
        self,
        query: TopKQuery,
        *,
        home_unit: Optional[int] = None,
        max_d_bound: Optional[float] = None,
        deadline=None,
    ) -> QueryResult:
        """Top-k nearest-neighbour query with MaxD refinement.

        The target group (the one "most closely associated with the query
        point q", §3.3.2) is the group whose MBR MINDIST to the query point
        is smallest; scanning it yields the running threshold ``MaxD``
        (distance of the current k-th best candidate), and sibling groups
        are then examined in MINDIST order only while they could still beat
        ``MaxD`` and the search-breadth budget allows.

        Correctness invariants (the drain-equivalence and sharded
        scatter-gather gates depend on both):

        * ``MaxD`` is tightened on the *deduplicated* candidate pool — a
          record surfacing both from its storage unit and from a version
          chain must count once, or the k-th-best distance is understated
          and the sibling-group scan terminates early, dropping real
          members;
        * results are ordered by ``(distance, file_id)`` and groups are
          pruned only when their MINDIST *strictly exceeds* ``MaxD``, so
          equal-distance results are returned in canonical file-id order
          regardless of physical placement.

        ``max_d_bound`` seeds ``MaxD`` with an externally-known upper bound
        on the global k-th-best distance (a sharded deployment ships the
        primary shard's k-th-best distance to the other shards).  With a
        bound the scan may prune every group and return fewer than ``k``
        files: only candidates that could still enter a global top-k under
        the bound are guaranteed to be present.

        ``deadline``: cooperative budget checked before each group scan;
        on expiry the MINDIST walk stops and the best candidates gathered
        so far are returned with ``complete=False``.
        """
        metrics = Metrics()
        home = home_unit if home_unit is not None else self.cluster.random_home_unit()
        metrics.record_unit_visit(home)
        attr_idx = list(self.schema.indices(query.attributes))
        index_point = self.to_index_space(attr_idx, query.values)
        query_norm = self.normalize_index_values(attr_idx, index_point)

        # Every group's MINDIST in one kernel, once: it orders the walk and
        # is the value each group is pruned by.
        tables = self.tree.summaries()
        groups = tables.groups
        mindists = tables.boxes.min_distance_subrange(
            attr_idx, index_point, self.index_lower[attr_idx], self.index_upper[attr_idx]
        )[tables.group_rows]
        walk = np.argsort(mindists, kind="stable").tolist()
        mindists = mindists.tolist()
        # Locating the target costs local replica probes (off-line) or a
        # round of multicast messages (on-line).
        if self.mode == "offline":
            metrics.record_index_access(len(groups))
        else:
            others = [g for g in groups if g.hosted_on != home]
            metrics.record_message(2 * len(others))

        groups_scanned = 0

        # The candidate pool is deduplicated *as it is built*: a record can
        # surface both from its storage unit and from a version chain, and
        # counting such a pair twice would make the k-th-best distance
        # understate the true one.  ``best`` keeps the best distance per
        # file id and is the only pool MaxD is derived from.  A candidate
        # carries its source's batch ``fetch`` and its ``key`` there instead
        # of its record, so that an indexed row is built only if it
        # survives into the answer, one batch per unit.  ``kbest``
        # holds the pool's k smallest distances, negated (a max-heap), so
        # the k-th is ``-kbest[0]`` once the pool holds k; only lowering an
        # id already pooled (a chain entry duplicating an indexed copy) can
        # stale it, and then it is rebuilt from ``best``.
        best: Dict[int, Tuple[float, Callable[[List[int]], List[FileMetadata]], int]] = {}
        kbest: List[float] = []

        def absorb(file_ids, distances, fetch, keys) -> None:
            lowered = False
            for file_id, dist, key in zip(file_ids, distances, keys):
                kept = best.get(file_id)
                if kept is None:
                    if len(kbest) < query.k:
                        heapq.heappush(kbest, -dist)
                    elif dist < -kbest[0]:
                        heapq.heapreplace(kbest, -dist)
                elif dist < kept[0]:
                    lowered = True
                else:
                    continue
                best[file_id] = (dist, fetch, key)
            if lowered:
                kbest[:] = [-d for d in heapq.nsmallest(query.k, (c[0] for c in best.values()))]
                heapq.heapify(kbest)

        # Pending changes are resolved *before* MaxD pruning.  Their records
        # enter the pool up front with fresh distances: the version chains
        # are replicated alongside the first-level index summaries, so this
        # is local work.  Under read-your-writes their ids are masked out of
        # every unit's candidates before its cut at ``k``: a pending delete's
        # indexed copy would otherwise tighten MaxD with a record that is
        # later masked out (stopping the group scan too early), and a pending
        # modify's indexed copy carries stale coordinates.  A unit holding
        # pending ids over-fetches by their count (:func:`live_candidates`).
        # Under the chain view a record and its indexed copy are collapsed
        # by ``absorb``.
        view, masked = self._pending(metrics)
        if view is not None and view.records:
            records = view.records
            absorb(
                view.live,
                self._pending_distances(view, query.attributes, query_norm),
                lambda keys: [records[key] for key in keys],
                range(len(records)),
            )
        staged: AbstractSet[int] = frozenset() if masked is None else masked
        per_unit = {} if view is None or masked is None else view.per_unit

        complete = True

        def scan_group(group: SemanticNode) -> None:
            nonlocal complete
            if group.hosted_on is not None and group.hosted_on != home:
                metrics.record_message(2)
            for leaf in tables.leaves_of(group)[0]:
                # Per-leaf deadline granularity (see range_query).
                if deadline is not None and deadline.expired():
                    complete = False
                    break
                metrics.record_index_access()
                if leaf.unit_id != home:
                    metrics.record_message(2)
                server = self.cluster.server(leaf.unit_id)
                # Once the pool holds k, a unit returns only rows at or below
                # the pool's k-th distance — never ``max_d_bound``, which may
                # sit below it and would drop answers.
                distances, file_ids, rows = live_candidates(
                    server,
                    query_norm,
                    query.k,
                    metrics,
                    attr_indices=attr_idx,
                    masked=staged,
                    extra=per_unit.get(leaf.unit_id, 0),
                    within=-kbest[0] if len(kbest) == query.k else None,
                )
                absorb(file_ids, distances, server.records_at, rows)

        # The target group (smallest MINDIST) is always scanned; siblings are
        # examined in MINDIST order only while they could still contain a
        # candidate at or below the current MaxD (§3.3.2).  Pruning is
        # strict (``>``): a group whose MINDIST ties MaxD exactly may hold a
        # file that ties the k-th best and wins the file-id tie-break, so it
        # must still be scanned for placement-independent results.  With an
        # external ``max_d_bound`` the pruning applies from the first group
        # on — the bound already proves those groups cannot contribute.
        max_d = float("inf") if max_d_bound is None else float(max_d_bound)
        for row in walk:
            if deadline is not None and deadline.expired():
                complete = False
            if not complete:
                break
            metrics.record_index_access()
            if mindists[row] > max_d and (
                len(kbest) == query.k or max_d_bound is not None
            ):
                break
            scan_group(groups[row])
            groups_scanned += 1
            if len(kbest) == query.k:
                max_d = min(max_d, -kbest[0])

        # Canonical order: ties broken by file id, matching the file-id
        # ordering of range/point results, so equal-distance members come
        # back identically regardless of physical placement.
        top = sorted((c[0], file_id) for file_id, c in best.items())[: query.k]
        batches: Dict[Any, Tuple[List[int], List[int]]] = {}
        for slot, (_, file_id) in enumerate(top):
            _, fetch, key = best[file_id]
            slots, keys = batches.setdefault(fetch, ([], []))
            slots.append(slot)
            keys.append(key)
        files: List[Any] = [None] * len(top)
        for fetch, (slots, keys) in batches.items():
            for slot, record in zip(slots, fetch(keys)):
                files[slot] = record
        distances = [d for d, _ in top]
        return self._finish(
            files, metrics, max(1, groups_scanned), distances, complete=complete
        )
