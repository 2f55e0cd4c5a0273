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
  local scans.
* **Top-k query** — the most semantically correlated group is scanned first
  to obtain ``MaxD`` (the current k-th best distance); sibling groups are
  then checked only when their MBR's MINDIST is below ``MaxD``.

Geometry convention: users express queries in natural ("raw") units; the
engine converts them into the deployment's *index space* (wide-range
attributes are ``log1p``-transformed — a per-dimension monotone transform,
so range predicates translate exactly) where all MBRs, scans and distances
live.  Top-k distances additionally use the deployment-wide min-max
normalisation of that space so that dimensions are comparable.

When versioning is enabled the engine additionally consults the version
chains of the visited groups (rolling backwards), which is how recent
changes become visible at a small extra latency (§4.4, Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.metrics import Metrics
from repro.cluster.simulator import ClusterSimulator
from repro.core.offline import OfflineRouter
from repro.core.semantic_rtree import SemanticNode, SemanticRTree
from repro.core.versioning import VersioningManager
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
    ``ShardRouter``, ``ReplicaGroup``, ``RemoteShard`` — answers
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
        # Read-your-writes overlay for the ingest pipeline (None outside it);
        # set via SmartStore.attach_overlay.  Unlike the version chains it
        # masks staged deletions and serves staged records id-indexed.
        self.overlay = None
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

    def _fold_query(self, attributes: Sequence[str], values: Sequence[float]) -> np.ndarray:
        """Fold a partial query into the LSI semantic subspace.

        Unconstrained attributes take the deployment-wide mean value, so
        they neither attract nor repel any group.
        """
        full = self.center.copy()
        idx = list(self.schema.indices(attributes))
        full[idx] = self.normalize_index_values(idx, self.to_index_space(idx, values))
        return self.fold_normalized_vector(full)

    def _pending_distances(
        self,
        files: Sequence[FileMetadata],
        attributes: Sequence[str],
        query_norm: np.ndarray,
    ) -> List[float]:
        """Top-k distance of each not-yet-indexed record (overlay, version
        chains) from the normalised query point: the records' values on the
        queried attributes are stacked once and normalised and measured
        with one kernel each."""
        if not files:
            return []
        idx = list(self.schema.indices(attributes))
        values = [[f.attributes.get(a, 0.0) for a in attributes] for f in files]
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

        if self.versioning_enabled and not results and complete:
            # Recent insertions are not yet reflected in any Bloom filter;
            # the version chains (small, memory resident) are checked next.
            for group in self.tree.first_level_groups():
                for pending in self.versioning.pending_files(group.node_id, metrics):
                    if pending.filename == query.filename:
                        results.append(pending)

        if self.overlay is not None and len(self.overlay):
            # Staged mutations win over any indexed copy: staged records
            # surface with their latest values, staged deletions mask the
            # record out.  One in-memory probe against the id-indexed view.
            metrics.record_index_access()
            live, deleted = self.overlay.snapshot()
            merged: Dict[int, FileMetadata] = {}
            for f in results:
                merged.setdefault(f.file_id, f)
            for fid, staged in live.items():
                if staged.filename == query.filename:
                    merged[fid] = staged
            results = [f for f in merged.values() if f.file_id not in deleted]

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
        # The log transform is monotone per dimension, so the raw-unit window
        # maps onto an index-space window with no false negatives.
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
                    attr_idx, lower, upper, metrics
                )
                results.extend(files)
        # Deduplicate by file identity; later merge stages override earlier
        # ones because chains and overlay carry fresher values (§4.4 rolls
        # versions backwards so fresh information is found first).
        # Indexed hits are re-checked in raw units here: ``log1p`` is
        # monotone but not injective in floating point, so a value 1 ulp
        # outside a raw bound can land *on* the index-space bound.  The
        # chain and overlay stages below already test raw units, so a file
        # keeps its membership when it is compacted.
        unique: Dict[int, FileMetadata] = {}
        for f in results:
            if f.matches_ranges(query.attributes, query.lower, query.upper):
                unique.setdefault(f.file_id, f)
        if self.versioning_enabled:
            # The version chains are attached to the first-level index-unit
            # replicas every storage unit holds (§3.4, §4.4), so the home
            # unit can roll through all of them locally — this is the small
            # extra latency Figure 14(b) measures.  A pending record wins
            # over its indexed copy (its attribute values are newer).
            for group in self.tree.first_level_groups():
                for pending in self.versioning.pending_files(group.node_id, metrics):
                    if pending.matches_ranges(query.attributes, query.lower, query.upper):
                        unique[pending.file_id] = pending
        if self.overlay is not None and len(self.overlay):
            metrics.record_index_access()
            # Staged records replace any indexed copy in both directions: a
            # staged insert/modify matching the window is served with its
            # new values, and a staged modify that moved the file *out* of
            # the window masks the stale indexed copy.
            live, deleted = self.overlay.snapshot()
            for fid, staged in live.items():
                if staged.matches_ranges(query.attributes, query.lower, query.upper):
                    unique[fid] = staged
                else:
                    unique.pop(fid, None)
            for fid in deleted:
                unique.pop(fid, None)
        groups_visited = max(1, len(target_groups))
        # Canonical order: a range result is a set; returning it sorted by
        # file id makes payloads independent of physical placement (two
        # deployments over the same logical population answer identically).
        files = sorted(unique.values(), key=lambda f: f.file_id)
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
        # carries ``fetch(key)`` instead of its record, so that an indexed
        # row is decoded only if it survives into the answer.
        best: Dict[int, Tuple[float, Callable[[int], FileMetadata], int]] = {}

        def absorb(file_ids, distances, fetch, keys) -> None:
            for file_id, dist, key in zip(file_ids, distances, keys):
                kept = best.get(file_id)
                if kept is None or dist < kept[0]:
                    best[file_id] = (dist, fetch, key)

        def absorb_pending(files: List[FileMetadata]) -> None:
            absorb(
                [f.file_id for f in files],
                self._pending_distances(files, query.attributes, query_norm),
                files.__getitem__,
                range(len(files)),
            )

        # Staged mutations must be resolved *before* MaxD pruning: a staged
        # delete's indexed copy would otherwise tighten MaxD with a record
        # that is later masked out (stopping the group scan too early), and
        # a staged modify's indexed copy carries stale coordinates.  Staged
        # records enter the pool up front with fresh distances; their ids
        # are masked out of every server scan before its cut at ``k``.
        staged_ids: Set[int] = set()
        masked: Optional[np.ndarray] = None
        if self.overlay is not None and len(self.overlay):
            metrics.record_index_access()
            live, deleted = self.overlay.snapshot()
            staged_ids = set(live) | deleted
            masked = np.fromiter(sorted(staged_ids), dtype=np.int64, count=len(staged_ids))
            absorb_pending(list(live.values()))

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
                distances, file_ids, rows = server.knn_candidates(
                    query_norm, query.k, metrics, attr_indices=attr_idx, exclude_ids=masked
                )
                absorb(file_ids, distances, server.record_at, rows)

        if self.versioning_enabled:
            # Version chains are replicated alongside the first-level index
            # summaries, so their (few) entries are folded into the candidate
            # pool locally before the distributed search starts.  Entries
            # the overlay already contributed are skipped (staged records
            # carry the freshest values); chain entries duplicating an
            # indexed record are collapsed by ``absorb``.
            absorb_pending(
                [
                    f
                    for group in groups
                    for f in self.versioning.pending_files(group.node_id, metrics)
                    if f.file_id not in staged_ids
                ]
            )

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
                len(best) >= query.k or max_d_bound is not None
            ):
                break
            scan_group(groups[row])
            groups_scanned += 1
            if len(best) >= query.k:
                pool = np.fromiter((c[0] for c in best.values()), np.float64, len(best))
                max_d = min(max_d, float(np.partition(pool, query.k - 1)[query.k - 1]))

        # Canonical order: ties broken by file id, matching the file-id
        # ordering of range/point results, so equal-distance members come
        # back identically regardless of physical placement.
        top = sorted((c[0], file_id) for file_id, c in best.items())[: query.k]
        files = []
        for _, file_id in top:
            _, fetch, key = best[file_id]
            files.append(fetch(key))
        distances = [d for d, _ in top]
        return self._finish(
            files, metrics, max(1, groups_scanned), distances, complete=complete
        )
