"""The conventional directory-tree metadata service, as a system under test.

This is the left-hand side of the paper's Figure 1: metadata organised
purely by namespace, queries answered by walking directories.  It gives the
evaluation a third comparison point beyond the two database baselines —
what the queries would cost on the file system organisation everybody
already has.

Cost accounting follows the conventions of the other baselines:

* resolving one directory is one index access; the directory tree of a
  large system does not fit in memory, so directory probes are charged at
  disk speed;
* inspecting one file's metadata record is one record scan, also at disk
  speed;
* the server is a single node, so every query costs one request/response
  message pair and visits one unit.

A *filename* point query (the paper's point-query interface) cannot use the
hierarchy at all — without a path there is no prefix to descend — so it
degenerates to a full namespace walk.  Path lookups, the operation
conventional file systems are actually good at, are exposed separately via
:meth:`DirectoryTreeBaseline.path_lookup`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.metrics import Metrics
from repro.core.queries import QueryResult
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.metadata.matrix import attribute_matrix, log_transform
from repro.namespace.tree import DirectoryTree
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

__all__ = ["DirectoryTreeBaseline"]


class DirectoryTreeBaseline:
    """A single-server, namespace-organised metadata service.

    Parameters
    ----------
    files:
        The file population to index.
    schema:
        Attribute schema (used for range / top-k evaluation and for the
        index-space geometry of top-k distances).
    cost_model:
        Hardware constants for the latency accounting.
    """

    def __init__(
        self,
        files: Sequence[FileMetadata],
        schema: AttributeSchema = DEFAULT_SCHEMA,
        *,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        if not files:
            raise ValueError(
                "cannot build the directory-tree baseline over an empty file population"
            )
        self.files = list(files)
        self.schema = schema
        self.cost_model = cost_model

        self.tree = DirectoryTree()
        self.tree.add_files(self.files)

        # Top-k distances use the same log-transformed, min-max-normalised
        # geometry as every other system so the ideal result sets agree.
        self._index_matrix = log_transform(attribute_matrix(self.files, schema), schema)
        lower = self._index_matrix.min(axis=0)
        upper = self._index_matrix.max(axis=0)
        span = np.where(upper > lower, upper - lower, 1.0)
        self._norm_matrix = (self._index_matrix - lower) / span
        self._norm_lower = lower
        self._norm_span = span
        self._log_mask = np.array(schema.log_scale_mask(), dtype=bool)
        self._row_of_file = {f.file_id: i for i, f in enumerate(self.files)}

    # ------------------------------------------------------------------ helpers
    def _finish(self, files: List[FileMetadata], metrics: Metrics,
                distances: Optional[List[float]] = None) -> QueryResult:
        return QueryResult(
            files=files,
            metrics=metrics,
            latency=metrics.latency(self.cost_model),
            groups_visited=1,
            hops=0,
            found=bool(files),
            distances=list(distances) if distances else [],
        )

    def _new_metrics(self) -> Metrics:
        metrics = Metrics()
        metrics.record_message(2)  # client -> metadata server -> client
        metrics.record_unit_visit(0)
        return metrics

    def _charge_full_walk(self, metrics: Metrics) -> None:
        """Charge a walk over every directory and every metadata record."""
        metrics.record_index_access(self.tree.num_directories, on_disk=True)
        metrics.record_scan(len(self.files), on_disk=True)

    def _query_norm_point(self, attributes: Sequence[str], values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        idx = np.array([self.schema.index(a) for a in attributes], dtype=np.int64)
        vals = np.array(values, dtype=np.float64)
        mask = self._log_mask[idx]
        vals[mask] = np.log1p(np.maximum(vals[mask], 0.0))
        norm = (vals - self._norm_lower[idx]) / self._norm_span[idx]
        return idx, np.clip(norm, 0.0, 1.0)

    # ------------------------------------------------------------------ queries
    def path_lookup(self, path: str) -> QueryResult:
        """Resolve a full path — the operation the hierarchy is built for.

        Each path component costs one (disk) directory probe; this is the
        cheap case a conventional file system optimises, included so the
        comparison with SmartStore's filename point query is fair about what
        the directory tree *is* good at.
        """
        metrics = self._new_metrics()
        file, touched = self.tree.lookup_with_depth(path)
        metrics.record_index_access(touched, on_disk=True)
        if file is not None:
            metrics.record_scan(1, on_disk=True)
            return self._finish([file], metrics)
        return self._finish([], metrics)

    def point_query(self, query: PointQuery) -> QueryResult:
        """Filename lookup without a path: a brute-force namespace walk."""
        metrics = self._new_metrics()
        matches: List[FileMetadata] = []
        dirs_walked = 0
        for node in self.tree.iter_directories():
            dirs_walked += 1
            # Probing a directory's file table is one directory access; the
            # walk inspects every entry's name (not the full record).
            found = node.files.get(query.filename)
            if found is not None:
                matches.append(found)
        metrics.record_index_access(dirs_walked, on_disk=True)
        metrics.record_scan(len(self.files), on_disk=True)
        return self._finish(matches, metrics)

    def range_query(self, query: RangeQuery) -> QueryResult:
        """Multi-dimensional range query by scanning every record."""
        metrics = self._new_metrics()
        self._charge_full_walk(metrics)
        matches = [
            f
            for f in self.tree.iter_files()
            if f.matches_ranges(query.attributes, query.lower, query.upper)
        ]
        return self._finish(matches, metrics)

    def topk_query(self, query: TopKQuery) -> QueryResult:
        """Top-k query by scanning every record and keeping the k closest."""
        metrics = self._new_metrics()
        self._charge_full_walk(metrics)
        idx, norm_query = self._query_norm_point(query.attributes, query.values)
        diffs = self._norm_matrix[:, idx] - norm_query
        distances = np.sqrt((diffs**2).sum(axis=1))
        k = min(query.k, len(self.files))
        order = np.argsort(distances, kind="stable")[:k]
        files = [self.files[i] for i in order]
        return self._finish(files, metrics, distances=[float(distances[i]) for i in order])

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
        """Bytes of namespace index state (directory entries).

        Each directory costs one index entry plus one entry per direct child
        (subdirectory or file) — the dentries a conventional metadata server
        keeps.  File metadata records themselves are excluded, consistent
        with the accounting of the other systems.
        """
        cm = self.cost_model
        total = 0
        for node in self.tree.iter_directories():
            total += cm.index_entry_bytes  # the directory inode/entry itself
            total += (len(node.subdirs) + len(node.files)) * cm.index_entry_bytes
        return total

    def index_space_bytes_per_node(self) -> int:
        """Per-server space: the whole namespace lives on the single server."""
        return self.index_space_bytes()

    def __repr__(self) -> str:
        return (
            f"DirectoryTreeBaseline(files={len(self.files)}, "
            f"directories={self.tree.num_directories})"
        )
