"""A Spyglass-style baseline: namespace-partitioned K-D tree indexing.

Spyglass (Leung et al., FAST'09 — discussed in §6.2) attacks the same
problem as SmartStore but from the namespace side: it carves the directory
hierarchy into partitions, builds one multi-dimensional K-D tree per
partition, keeps the partition signatures (attribute bounds) in memory and
prunes partitions whose bounds cannot contain a query.  It is, however, a
*single-server* design — the paper's criticism is that it "focuses on the
indexing on a single server and cannot support distributed indexing on
multiple servers".

This baseline reproduces that design faithfully enough to compare against:

* the namespace is partitioned greedily along directory subtrees until each
  partition holds at most ``partition_size`` files (Spyglass's
  hierarchical partitioning);
* each partition gets a K-D tree over the (index-space) attributes, a
  filename map and an attribute-bounds signature;
* queries prune partitions by signature, then search the surviving
  partitions' K-D trees; everything is charged at memory speed (Spyglass's
  headline property is that its index fits in memory), but it all happens
  on one server, so there is no distribution and no multicast.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.metrics import Metrics
from repro.core.queries import QueryResult
from repro.kdtree.kdtree import KDTree
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.metadata.matrix import attribute_matrix, log_transform
from repro.namespace.tree import DirectoryNode, DirectoryTree
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

__all__ = ["SpyglassBaseline", "NamespacePartition"]


class NamespacePartition:
    """One namespace partition: a subtree's files plus their K-D tree index."""

    def __init__(
        self,
        partition_id: int,
        root_path: str,
        file_rows: np.ndarray,
        files: Sequence[FileMetadata],
        index_matrix: np.ndarray,
        access_counter,
    ) -> None:
        self.partition_id = partition_id
        self.root_path = root_path
        self.file_rows = file_rows                      # row indices into the global matrix
        self.files = list(files)
        self._points = index_matrix[file_rows]
        self.lower = self._points.min(axis=0)
        self.upper = self._points.max(axis=0)
        self.tree = KDTree(self._points, leaf_size=16, access_counter=access_counter)
        self.by_filename: Dict[str, List[int]] = {}
        for local, row in enumerate(file_rows):
            self.by_filename.setdefault(files[local].filename, []).append(local)

    def __len__(self) -> int:
        return len(self.files)

    def may_intersect(self, idx: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> bool:
        """Signature check: can this partition contain points in the box?"""
        return bool(
            np.all(upper >= self.lower[idx]) and np.all(lower <= self.upper[idx])
        )

    def min_distance(self, idx: np.ndarray, point: np.ndarray) -> float:
        """Lower bound on the distance from ``point`` to any file in the partition."""
        clipped = np.clip(point, self.lower[idx], self.upper[idx])
        return float(np.sqrt(((point - clipped) ** 2).sum()))


class SpyglassBaseline:
    """Single-server, namespace-partitioned K-D tree metadata index.

    Parameters
    ----------
    files:
        File population to index.
    schema:
        Attribute schema; queries may address any subset of it.
    partition_size:
        Target maximum number of files per namespace partition.
    cost_model:
        Hardware constants for latency accounting.
    """

    def __init__(
        self,
        files: Sequence[FileMetadata],
        schema: AttributeSchema = DEFAULT_SCHEMA,
        *,
        partition_size: int = 500,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        if not files:
            raise ValueError("cannot build the Spyglass baseline over an empty file population")
        if partition_size < 1:
            raise ValueError("partition_size must be >= 1")
        self.files = list(files)
        self.schema = schema
        self.partition_size = partition_size
        self.cost_model = cost_model
        self._pending: Optional[Metrics] = None

        raw = attribute_matrix(self.files, schema)
        self._index_matrix = log_transform(raw, schema)
        lower = self._index_matrix.min(axis=0)
        upper = self._index_matrix.max(axis=0)
        self._norm_span = np.where(upper > lower, upper - lower, 1.0)
        self._norm_lower = lower
        self._log_mask = np.array(schema.log_scale_mask(), dtype=bool)

        self._row_of = {f.file_id: i for i, f in enumerate(self.files)}
        self.partitions = self._partition_namespace()

    # ------------------------------------------------------------------ partitioning
    def _partition_namespace(self) -> List[NamespacePartition]:
        """Carve the namespace into subtrees of at most ``partition_size`` files.

        Greedy top-down walk: a directory whose subtree fits the budget (or
        that has no subdirectories) becomes one partition; larger
        directories recurse into their children, with the directory's own
        direct files forming a residual partition.
        """
        tree = DirectoryTree()
        tree.add_files(self.files)

        partitions: List[NamespacePartition] = []

        def counter(count: int = 1) -> None:
            if self._pending is not None:
                self._pending.record_index_access(count, on_disk=False)

        def emit(root_path: str, members: List[FileMetadata]) -> None:
            if not members:
                return
            rows = np.array([self._row_of[f.file_id] for f in members], dtype=np.int64)
            partitions.append(
                NamespacePartition(
                    partition_id=len(partitions),
                    root_path=root_path,
                    file_rows=rows,
                    files=members,
                    index_matrix=self._index_matrix,
                    access_counter=counter,
                )
            )

        def walk(node: DirectoryNode) -> None:
            subtree_size = node.subtree_file_count()
            if subtree_size == 0:
                return
            if subtree_size <= self.partition_size or not node.subdirs:
                emit(node.path, list(node.iter_files()))
                return
            emit(node.path, list(node.files.values()))
            for child in node.subdirs.values():
                walk(child)

        walk(tree.root)
        return partitions

    # ------------------------------------------------------------------ helpers
    def _new_metrics(self) -> Metrics:
        metrics = Metrics()
        metrics.record_message(2)  # client -> index server -> client
        metrics.record_unit_visit(0)
        self._pending = metrics
        return metrics

    def _finish(self, files: List[FileMetadata], metrics: Metrics,
                distances: Optional[List[float]] = None) -> QueryResult:
        self._pending = None
        return QueryResult(
            files=files,
            metrics=metrics,
            latency=metrics.latency(self.cost_model),
            groups_visited=1,
            hops=0,
            found=bool(files),
            distances=list(distances) if distances else [],
        )

    def _query_window(self, query: RangeQuery) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        idx = np.array([self.schema.index(a) for a in query.attributes], dtype=np.int64)
        lower = np.array(query.lower, dtype=np.float64)
        upper = np.array(query.upper, dtype=np.float64)
        mask = self._log_mask[idx]
        lower[mask] = np.log1p(np.maximum(lower[mask], 0.0))
        upper[mask] = np.log1p(np.maximum(upper[mask], 0.0))
        return idx, lower, upper

    def _full_box(self, idx: np.ndarray, lower: np.ndarray, upper: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        full_lower = self._index_matrix.min(axis=0) - 1.0
        full_upper = self._index_matrix.max(axis=0) + 1.0
        full_lower[idx] = lower
        full_upper[idx] = upper
        return full_lower, full_upper

    # ------------------------------------------------------------------ queries
    def point_query(self, query: PointQuery) -> QueryResult:
        """Filename lookup via the per-partition filename maps."""
        metrics = self._new_metrics()
        matches: List[FileMetadata] = []
        for partition in self.partitions:
            metrics.record_index_access(1, on_disk=False)  # partition signature / name map probe
            for local in partition.by_filename.get(query.filename, []):
                matches.append(partition.files[local])
        metrics.record_scan(max(len(matches), 1), on_disk=False)
        return self._finish(matches, metrics)

    def range_query(self, query: RangeQuery) -> QueryResult:
        """Prune partitions by signature, then box-search the survivors' K-D trees."""
        metrics = self._new_metrics()
        idx, lower, upper = self._query_window(query)
        matches: List[FileMetadata] = []
        for partition in self.partitions:
            metrics.record_index_access(1, on_disk=False)  # signature check
            if not partition.may_intersect(idx, lower, upper):
                continue
            full_lower, full_upper = self._full_box(idx, lower, upper)
            hits = partition.tree.range_search(full_lower, full_upper)
            metrics.record_scan(len(hits), on_disk=False)
            matches.extend(partition.files[h] for h in hits)
        return self._finish(matches, metrics)

    def topk_query(self, query: TopKQuery) -> QueryResult:
        """Best-first search over partitions ordered by signature distance."""
        metrics = self._new_metrics()
        idx = np.array([self.schema.index(a) for a in query.attributes], dtype=np.int64)
        values = np.array(query.values, dtype=np.float64)
        mask = self._log_mask[idx]
        values[mask] = np.log1p(np.maximum(values[mask], 0.0))
        # Distances are computed in the normalised subspace so results agree
        # with the other systems; the per-partition K-D trees store raw
        # index-space points, so the k-NN is done directly over the subset.
        norm = (self._index_matrix[:, idx] - self._norm_lower[idx]) / self._norm_span[idx]
        target = (values - self._norm_lower[idx]) / self._norm_span[idx]

        candidates: List[Tuple[float, int]] = []  # (distance, global row)
        ordered = sorted(
            self.partitions, key=lambda p: p.min_distance(idx, values)
        )
        worst = np.inf
        for partition in ordered:
            metrics.record_index_access(1, on_disk=False)  # signature check
            # Signature pruning: if even the closest corner of the partition's
            # bounds (in raw index space) cannot beat the current worst
            # normalised distance, no point searching it.  The bound is
            # conservative because spans rescale distances; rescale it too.
            lower_bound_raw = partition.min_distance(idx, values)
            lower_bound = lower_bound_raw / float(np.max(self._norm_span[idx]))
            if len(candidates) >= query.k and lower_bound > worst:
                continue
            rows = partition.file_rows
            metrics.record_index_access(max(1, partition.tree.height()), on_disk=False)
            metrics.record_scan(len(rows), on_disk=False)
            dists = np.sqrt(((norm[rows] - target[None, :]) ** 2).sum(axis=1))
            for row, dist in zip(rows, dists):
                candidates.append((float(dist), int(row)))
            candidates.sort(key=lambda pair: pair[0])
            candidates = candidates[: query.k]
            if len(candidates) == query.k:
                worst = candidates[-1][0]
        files = [self.files[row] for _, row in candidates]
        return self._finish(files, metrics, distances=[d for d, _ in candidates])

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
        """Bytes of K-D tree nodes, signatures and filename maps."""
        cm = self.cost_model
        total = 0
        for partition in self.partitions:
            total += partition.tree.node_count * cm.index_entry_bytes
            total += 2 * self.schema.dimension * 8  # the bounds signature
            total += len(partition.files) * cm.index_entry_bytes  # filename map entries
        return total

    def index_space_bytes_per_node(self) -> int:
        """Single-server design: everything lives on one machine."""
        return self.index_space_bytes()

    def __repr__(self) -> str:
        return (
            f"SpyglassBaseline(files={len(self.files)}, partitions={len(self.partitions)}, "
            f"partition_size={self.partition_size})"
        )
