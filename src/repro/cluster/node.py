"""A simulated metadata server hosting one storage unit.

Each storage unit (a leaf of the semantic R-tree) lives on one metadata
server.  The server keeps its local metadata in three dense numpy layouts:

* the **raw** attribute matrix (natural units, what gets returned to users);
* the **index-space** matrix — wide-range attributes (sizes, byte volumes)
  are ``log1p``-transformed so that MBRs, range pruning and distances are
  not dominated by a handful of huge values; min-max normalisation,
  grouping and MBR geometry all operate in this space (the transform is
  monotone per dimension, so range predicates translate exactly);
* the **normalised** index-space matrix (deployment-wide min-max bounds),
  used for top-k distance computation.

Every scan reports the number of records inspected to the shared
:class:`~repro.cluster.metrics.Metrics` object so the cost model can charge
it; SmartStore's units are memory-resident (``on_disk=False``) while the
baselines charge their scans to disk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bloom.bloom import BloomFilter
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.metrics import Metrics
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.rtree.mbr import MBR

__all__ = ["StorageServer"]


class StorageServer:
    """One simulated metadata server / storage unit.

    Parameters
    ----------
    unit_id:
        Identifier of the storage unit this server hosts.
    schema:
        Attribute schema shared by the whole deployment (its ``log_scale``
        flags define the index-space transform).
    bloom_bits, bloom_hashes:
        Bloom-filter parameters (1024 bits / 7 hashes in the prototype).
    """

    def __init__(
        self,
        unit_id: int,
        schema: AttributeSchema = DEFAULT_SCHEMA,
        *,
        bloom_bits: int = 1024,
        bloom_hashes: int = 7,
    ) -> None:
        self.unit_id = unit_id
        self.schema = schema
        self.files: List[FileMetadata] = []
        self.bloom = BloomFilter(bloom_bits, bloom_hashes)
        self._log_mask = np.array(schema.log_scale_mask(), dtype=bool)
        self._matrix: Optional[np.ndarray] = None        # raw attribute rows
        self._index_matrix: Optional[np.ndarray] = None  # log-transformed rows
        self._norm_matrix: Optional[np.ndarray] = None   # normalised index-space rows
        self._file_ids: Optional[np.ndarray] = None      # row-aligned file ids
        self._norm_lower: Optional[np.ndarray] = None
        self._norm_upper: Optional[np.ndarray] = None
        self._dirty = True
        self._by_filename: Dict[str, List[FileMetadata]] = {}

    # ------------------------------------------------------------------ content management
    def __len__(self) -> int:
        return len(self.files)

    def add_file(self, file: FileMetadata) -> None:
        """Add one metadata record to this unit."""
        self.add_files((file,))

    def add_files(self, files: Sequence[FileMetadata]) -> None:
        """Add many metadata records (their filenames are hashed in one
        vectorised filter update)."""
        names = [f.filename for f in files]
        self.files.extend(files)
        self.bloom.add_many(names)
        for name, f in zip(names, files):
            self._by_filename.setdefault(name, []).append(f)
        if files and not self._dirty:
            # Current arrays stay current: only the new rows are vectorised.
            matrix, index, norm, ids = self._vectorise(files)
            self._matrix = np.concatenate((self._matrix, matrix))
            self._index_matrix = np.concatenate((self._index_matrix, index))
            self._norm_matrix = (
                None if norm is None else np.concatenate((self._norm_matrix, norm))
            )
            self._file_ids = np.concatenate((self._file_ids, ids))

    def remove_file(self, file_id: int) -> Optional[FileMetadata]:
        """Remove a record by file id.

        The Bloom filter is *not* rebuilt (plain Bloom filters cannot
        delete); stale positives are caught when the target metadata is
        accessed, exactly as §5.4.1 describes.
        """
        rows = np.flatnonzero(self.file_ids() == file_id)
        if rows.size == 0:
            return None
        row = int(rows[0])
        removed = self.files.pop(row)
        bucket = self._by_filename.get(removed.filename, [])
        self._by_filename[removed.filename] = [x for x in bucket if x.file_id != file_id]
        self._matrix = np.delete(self._matrix, row, axis=0)
        self._index_matrix = np.delete(self._index_matrix, row, axis=0)
        if self._norm_matrix is not None:
            self._norm_matrix = np.delete(self._norm_matrix, row, axis=0)
        self._file_ids = np.delete(self._file_ids, row)
        return removed

    def set_normalization(self, lower: np.ndarray, upper: np.ndarray) -> None:
        """Install the deployment-wide index-space normalisation bounds.

        All servers must share the same bounds so that normalised distances
        are comparable across units.
        """
        self._norm_lower = np.asarray(lower, dtype=np.float64)
        self._norm_upper = np.asarray(upper, dtype=np.float64)
        self._dirty = True

    def _to_index_space(self, matrix: np.ndarray) -> np.ndarray:
        out = matrix.copy()
        if self._log_mask.any():
            out[:, self._log_mask] = np.log1p(np.maximum(out[:, self._log_mask], 0.0))
        return out

    def _to_norm_space(self, index: np.ndarray) -> Optional[np.ndarray]:
        """Min-max normalise index-space rows (None before the bounds exist)."""
        if self._norm_lower is None or self._norm_upper is None:
            return None
        span = self._norm_upper - self._norm_lower
        safe = np.where(span > 0, span, 1.0)
        norm = (index - self._norm_lower) / safe
        return np.clip(norm, 0.0, 1.0, out=norm)

    def _vectorise(
        self, files: Sequence[FileMetadata]
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
        """``(raw, index-space, normalised or None, ids)`` rows of ``files``.

        Every step is row-wise, so rows appended one batch at a time are
        bit-equal to the same records vectorised in one go.
        """
        if files:
            matrix = np.vstack([f.vector(self.schema) for f in files])
        else:
            matrix = np.empty((0, self.schema.dimension))
        index = self._to_index_space(matrix)
        ids = np.asarray([f.file_id for f in files], dtype=np.int64)
        return matrix, index, self._to_norm_space(index), ids

    def _rebuild(self) -> None:
        if not self._dirty:
            return
        self._matrix, self._index_matrix, self._norm_matrix, self._file_ids = (
            self._vectorise(self.files)
        )
        self._dirty = False

    # ------------------------------------------------------------------ summaries
    def matrix(self) -> np.ndarray:
        """Raw ``(n_local, D)`` attribute matrix of the unit's files."""
        self._rebuild()
        return self._matrix

    def index_matrix(self) -> np.ndarray:
        """Index-space (log-transformed) attribute matrix."""
        self._rebuild()
        return self._index_matrix

    def file_ids(self) -> np.ndarray:
        """Row-aligned ``int64`` file ids (row ``i`` is ``files[i]``)."""
        self._rebuild()
        return self._file_ids

    def normalized_matrix(self) -> np.ndarray:
        """Normalised index-space matrix (requires :meth:`set_normalization`)."""
        self._rebuild()
        if self._norm_matrix is None:
            raise RuntimeError("normalisation bounds have not been installed on this server")
        return self._norm_matrix

    def mbr(self) -> Optional[MBR]:
        """MBR of the unit's files in index space (None when empty)."""
        self._rebuild()
        if len(self.files) == 0:
            return None
        return MBR.from_points(self._index_matrix)

    def centroid(self) -> Optional[np.ndarray]:
        """Centroid of the unit's files in index space."""
        self._rebuild()
        if len(self.files) == 0:
            return None
        return self._index_matrix.mean(axis=0)

    def filenames(self) -> List[str]:
        return [f.filename for f in self.files]

    # ------------------------------------------------------------------ local query execution
    def scan_range(
        self,
        attr_indices: Sequence[int],
        lower: Sequence[float],
        upper: Sequence[float],
        metrics: Optional[Metrics] = None,
        *,
        on_disk: bool = False,
    ) -> List[FileMetadata]:
        """Vectorised range filter over the unit's local records.

        ``lower`` and ``upper`` must already be expressed in index space
        (the caller applies the monotone log transform to the user's raw
        bounds); ``attr_indices`` selects which schema attributes are
        constrained — unconstrained attributes match everything.
        """
        self._rebuild()
        metrics = metrics if metrics is not None else Metrics()
        n = len(self.files)
        metrics.record_unit_visit(self.unit_id)
        metrics.record_scan(n, on_disk=on_disk)
        if n == 0:
            return []
        cols = self._index_matrix[:, list(attr_indices)]
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        mask = np.all((cols >= lower) & (cols <= upper), axis=1)
        return [self.files[i] for i in np.nonzero(mask)[0]]

    def scan_knn(
        self,
        query_norm: np.ndarray,
        k: int,
        metrics: Optional[Metrics] = None,
        *,
        attr_indices: Optional[Sequence[int]] = None,
        exclude_ids: Optional[np.ndarray] = None,
        on_disk: bool = False,
    ) -> List[Tuple[float, FileMetadata]]:
        """Local top-k candidates by Euclidean distance in normalised index space.

        :meth:`knn_candidates` with every candidate's record decoded.
        """
        distances, _, rows = self.knn_candidates(
            query_norm,
            k,
            metrics,
            attr_indices=attr_indices,
            exclude_ids=exclude_ids,
            on_disk=on_disk,
        )
        return [(dist, self.record_at(row)) for dist, row in zip(distances, rows)]

    def knn_candidates(
        self,
        query_norm: np.ndarray,
        k: int,
        metrics: Optional[Metrics] = None,
        *,
        attr_indices: Optional[Sequence[int]] = None,
        exclude_ids: Optional[np.ndarray] = None,
        on_disk: bool = False,
    ) -> Tuple[List[float], List[int], List[int]]:
        """The unit's ``k`` nearest records as ``(distances, file_ids, rows)``.

        ``query_norm`` must already be normalised with the deployment-wide
        bounds; when ``attr_indices`` is given the distance only considers
        those attributes (queries may constrain a subset of dimensions).
        ``rows`` are local row numbers for :meth:`record_at`: a caller that
        keeps only some candidates decodes only those.

        ``exclude_ids`` (a sorted ``int64`` array) masks records out
        *before* the cut at ``k`` — the ids whose indexed copy a staged
        mutation has superseded — so the unit still contributes its ``k``
        best live records.  Every record counts as scanned either way.

        Candidates are ordered by ``(distance, file_id)`` and the cut at
        ``k`` keeps every record tying the k-th smallest distance in
        contention before that ordering truncates — so the returned set is
        a pure function of the unit's *contents*, never of record
        insertion order.  Placement-independent tie handling here is what
        lets two deployments with different physical layouts (or a sharded
        deployment and its unsharded baseline) return byte-identical top-k
        results.
        """
        metrics = metrics if metrics is not None else Metrics()
        norm, file_ids = self._knn_arrays()
        n = file_ids.shape[0]
        metrics.record_unit_visit(self.unit_id)
        metrics.record_scan(n, on_disk=on_disk)
        if n == 0 or k <= 0:
            return [], [], []
        query_norm = np.asarray(query_norm, dtype=np.float64)
        data = norm[:, list(attr_indices)] if attr_indices is not None else norm
        deltas = data - query_norm[None, :]
        dists = np.sqrt(np.sum(deltas * deltas, axis=1))
        rows = None
        if exclude_ids is not None and exclude_ids.size:
            at = np.searchsorted(exclude_ids, file_ids)
            at[at == exclude_ids.size] = 0
            rows = np.nonzero(exclude_ids[at] != file_ids)[0]
            if rows.size == 0:
                return [], [], []
            dists, file_ids = dists[rows], file_ids[rows]
        k = min(k, dists.shape[0])
        part = np.argpartition(dists, k - 1)[:k]
        kth = dists[part].max()
        # Tie-stable cut: identical attribute values produce bit-identical
        # distances, so `<= kth` re-admits every record tying the k-th best
        # before the canonical (distance, file_id) order truncates.
        eligible = np.nonzero(dists <= kth)[0]
        order = np.lexsort((file_ids[eligible], dists[eligible]))
        top = eligible[order[:k]]
        picked = top if rows is None else rows[top]
        return dists[top].tolist(), file_ids[top].tolist(), picked.tolist()

    def _knn_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(normalised index-space matrix, row-aligned file ids)``."""
        self._rebuild()
        if self._norm_matrix is None:
            raise RuntimeError("normalisation bounds have not been installed on this server")
        return self._norm_matrix, self._file_ids

    def record_at(self, row: int) -> FileMetadata:
        """The record in local row ``row`` of the scan matrices."""
        return self.files[row]

    def lookup_filename(
        self,
        filename: str,
        metrics: Optional[Metrics] = None,
        *,
        on_disk: bool = False,
    ) -> List[FileMetadata]:
        """Exact filename lookup against the local records.

        The Bloom-filter check that routed the query here is charged by the
        caller; this method charges the local verification access.
        """
        metrics = metrics if metrics is not None else Metrics()
        metrics.record_unit_visit(self.unit_id)
        matches = self._by_filename.get(filename, [])
        metrics.record_scan(max(1, len(matches)), on_disk=on_disk)
        return list(matches)

    # ------------------------------------------------------------------ space accounting
    def space_bytes(self, cost_model: CostModel = DEFAULT_COST_MODEL) -> int:
        """Bytes of metadata and local index state hosted by this server."""
        return len(self.files) * cost_model.metadata_record_bytes + self.bloom.size_bytes()

    def __repr__(self) -> str:
        return f"StorageServer(unit_id={self.unit_id}, files={len(self.files)})"
