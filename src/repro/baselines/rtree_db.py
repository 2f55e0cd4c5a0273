"""The non-semantic R-tree baseline.

A single, centralised R-tree indexes every file's multi-dimensional
attribute point, ignoring metadata semantics: there is no grouping, no
distribution across servers, and no Bloom-filter routing.  It improves over
the per-attribute DBMS because one multi-dimensional structure serves all
attributes at once (§5.2), but every query still descends an index over the
entire file population hosted on one machine, and at the paper's scales that
index is disk resident.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.metrics import Metrics
from repro.core.queries import QueryResult
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.metadata.matrix import attribute_matrix, log_transform
from repro.rtree.knn import knn_search
from repro.rtree.rtree import RTree
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

__all__ = ["RTreeBaseline"]


class RTreeBaseline:
    """One centralised R-tree over the full attribute space."""

    def __init__(
        self,
        files: Sequence[FileMetadata],
        schema: AttributeSchema = DEFAULT_SCHEMA,
        *,
        max_entries: int = 64,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        if not files:
            raise ValueError("cannot build the R-tree baseline over an empty file population")
        self.files = list(files)
        self.schema = schema
        self.cost_model = cost_model

        # Index in the same log-transformed ("index") space SmartStore uses:
        # any competent R-tree implementation normalises wide-range
        # attributes, and doing so here keeps the comparison about
        # *organisation* (centralised vs. semantic/distributed), not about a
        # strawman index.  Nodes are page sized (``max_entries`` entries per
        # 4 KiB page) and every node access is a disk page read.
        raw = attribute_matrix(self.files, schema)
        self._matrix = raw
        self._index_matrix = log_transform(raw, schema)
        lower = self._index_matrix.min(axis=0)
        upper = self._index_matrix.max(axis=0)
        self._norm_lower = lower
        self._norm_span = np.where(upper - lower > 0, upper - lower, 1.0)
        self._log_mask = np.array(schema.log_scale_mask(), dtype=bool)

        # Node accesses during queries are charged to the *query's* metrics
        # object; the indirection below lets us swap the target per query.
        self._active_metrics: Optional[Metrics] = None

        def on_access() -> None:
            if self._active_metrics is not None:
                self._active_metrics.record_index_access(on_disk=True)

        self.tree = RTree(
            dimension=schema.dimension, max_entries=max_entries, access_counter=on_access
        )
        # The build itself is not charged to any query.
        for i, f in enumerate(self.files):
            self.tree.insert(self._index_matrix[i], i)

        self._by_filename = {}
        for i, f in enumerate(self.files):
            self._by_filename.setdefault(f.filename, []).append(i)

    def _to_index_space(self, attributes, values) -> np.ndarray:
        out = np.asarray(values, dtype=np.float64).copy()
        for j, name in enumerate(attributes):
            if self.schema.spec(name).log_scale:
                out[j] = np.log1p(max(out[j], 0.0))
        return out

    # ------------------------------------------------------------------ helpers
    def _finish(self, files: List[FileMetadata], metrics: Metrics, distances=None) -> QueryResult:
        return QueryResult(
            files=files,
            metrics=metrics,
            latency=metrics.latency(self.cost_model),
            groups_visited=1,
            hops=0,
            found=bool(files),
            distances=distances or [],
        )

    def _full_window(self, query: RangeQuery) -> tuple[np.ndarray, np.ndarray]:
        """Expand a partial-attribute window to full dimensionality (index space)."""
        lower = self._index_matrix.min(axis=0).copy()
        upper = self._index_matrix.max(axis=0).copy()
        lo_idx = self._to_index_space(query.attributes, query.lower)
        hi_idx = self._to_index_space(query.attributes, query.upper)
        for pos, name in enumerate(query.attributes):
            j = self.schema.index(name)
            lower[j] = lo_idx[pos]
            upper[j] = hi_idx[pos]
        return lower, upper

    # ------------------------------------------------------------------ queries
    def point_query(self, query: PointQuery) -> QueryResult:
        """Filename lookup.

        A plain R-tree over attribute points cannot index filenames; the
        centralised server keeps a small auxiliary filename index on the
        side.  Its upper levels stay cached (it is the only other structure
        on the machine), so a lookup costs one leaf-page read plus the
        record fetch.
        """
        metrics = Metrics()
        metrics.record_message(2)
        metrics.record_unit_visit(0)
        metrics.record_index_access(1, on_disk=True)
        indices = self._by_filename.get(query.filename, [])
        metrics.record_scan(max(1, len(indices)), on_disk=True)
        return self._finish([self.files[i] for i in indices], metrics)

    def range_query(self, query: RangeQuery) -> QueryResult:
        """Window search over the centralised R-tree."""
        metrics = Metrics()
        metrics.record_message(2)
        metrics.record_unit_visit(0)
        lower, upper = self._full_window(query)
        self._active_metrics = metrics
        try:
            entries = self.tree.search_range(lower, upper)
        finally:
            self._active_metrics = None
        metrics.record_scan(len(entries), on_disk=True)
        return self._finish([self.files[e.payload] for e in entries], metrics)

    def topk_query(self, query: TopKQuery) -> QueryResult:
        """Best-first k-NN over the centralised R-tree.

        The R-tree indexes raw attribute values, so the branch-and-bound
        runs in raw space; the returned distances are recomputed in the
        deployment-wide normalised space for comparability with SmartStore.
        """
        metrics = Metrics()
        metrics.record_message(2)
        metrics.record_unit_visit(0)

        # Build a full-dimensional query point: unconstrained attributes sit
        # at the population mean so they do not skew the search.
        point = self._index_matrix.mean(axis=0)
        values_idx = self._to_index_space(query.attributes, query.values)
        for pos, name in enumerate(query.attributes):
            point[self.schema.index(name)] = values_idx[pos]

        self._active_metrics = metrics
        try:
            pairs = knn_search(self.tree, point, query.k)
        finally:
            self._active_metrics = None
        metrics.record_scan(max(1, len(pairs)), on_disk=True)

        idx = list(self.schema.indices(query.attributes))
        lower = self._norm_lower[idx]
        span = self._norm_span[idx]
        target = (values_idx - lower) / span
        scored: List[tuple] = []
        for _, entry in pairs:
            f = self.files[entry.payload]
            fvals = (self._index_matrix[entry.payload, idx] - lower) / span
            scored.append((float(np.linalg.norm(fvals - target)), f))
        # The branch-and-bound ran over the full-dimension index space;
        # re-rank by the constrained-attribute normalised distance so callers
        # see a consistently ordered result list.
        scored.sort(key=lambda pair: pair[0])
        files = [f for _, f in scored]
        distances = [d for d, _ in scored]
        return self._finish(files, metrics, distances)

    def execute(self, query) -> QueryResult:
        """Dispatch any query object to the matching interface."""
        if isinstance(query, PointQuery):
            return self.point_query(query)
        if isinstance(query, RangeQuery):
            return self.range_query(query)
        if isinstance(query, TopKQuery):
            return self.topk_query(query)
        raise TypeError(f"unsupported query type {type(query)!r}")

    # ------------------------------------------------------------------ space accounting
    def index_space_bytes(self) -> int:
        """Total index footprint of the centralised R-tree."""
        cm = self.cost_model
        node_bytes = self.tree.node_count() * self.tree.max_entries * cm.index_entry_bytes
        filename_bytes = len(self.files) * cm.index_entry_bytes
        return node_bytes + filename_bytes

    def index_space_bytes_per_node(self) -> int:
        """Figure 7 reports per-node overhead; this baseline has one node."""
        return self.index_space_bytes()
