"""A simulated metadata server hosting one storage unit.

Each storage unit (a leaf of the semantic R-tree) lives on one metadata
server.  Its rows live in a *row block* — in memory (:class:`MemoryRows`)
or over a published segment (``repro.storage.lazy.SegmentRows``) — which
exposes the local metadata in three dense, row-aligned numpy layouts:

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

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bloom.bloom import BloomFilter
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.metrics import Metrics
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.rtree.mbr import MBR

__all__ = ["IndexSpace", "MemoryRows", "StorageServer"]


class IndexSpace:
    """The deployment's row transforms, shared by a unit and the block it holds.

    ``to_index`` applies ``log1p`` to the schema's wide-range columns;
    ``to_norm`` min-max normalises index-space rows against the
    deployment-wide bounds (``None`` until :meth:`StorageServer.set_normalization`
    installs them).  Both are row-wise, so rows transformed one batch at a
    time are bit-equal to the same rows transformed in one go.
    """

    def __init__(self, schema: AttributeSchema) -> None:
        self.schema = schema
        self.log_mask = np.array(schema.log_scale_mask(), dtype=bool)
        self.lower: Optional[np.ndarray] = None
        self.upper: Optional[np.ndarray] = None

    def to_index(self, raw: np.ndarray) -> np.ndarray:
        out = raw.copy()
        if self.log_mask.any():
            out[:, self.log_mask] = np.log1p(np.maximum(out[:, self.log_mask], 0.0))
        return out

    def to_norm(self, index: np.ndarray) -> Optional[np.ndarray]:
        if self.lower is None or self.upper is None:
            return None
        span = self.upper - self.lower
        safe = np.where(span > 0, span, 1.0)
        norm = (index - self.lower) / safe
        return np.clip(norm, 0.0, 1.0, out=norm)


class MemoryRows:
    """The in-memory row block: a unit's rows as live Python state.

    A row block is what a :class:`StorageServer` scans: ``count`` rows,
    the row-aligned arrays ``ids`` / ``raw`` / ``index`` / ``norm``,
    ``record(row)``, ``lookup(filename)``, ``records()`` and
    ``writable()``; ``segment`` / ``cached`` / ``load()`` / ``drop()`` are
    its residency face (see :class:`~repro.storage.lazy.SegmentRows`, the
    other block).  This one is the only block that mutates: ``extend`` and
    ``remove`` patch the arrays in place of a rebuild.

    Two things are kept on purpose, because removing them costs measured
    time, not because they are pretty: the record *objects* (a plain-store
    range answer must not pay a JSON decode per hit) and the name *dict*
    (a point query makes ~54 ``lookup`` calls over 60 units while the
    1,024-bit filters prune nothing, and a numpy hash compare per call
    would roughly double its latency).  Both can go once Bloom sizing
    (ROADMAP item 3) makes lookups rare — not before.
    """

    segment = None  # no published segment holds these rows
    cached = True  # the arrays are always in RAM: nothing to fault in

    def __init__(
        self,
        space: IndexSpace,
        files: Sequence[FileMetadata] = (),
        raw: Optional[np.ndarray] = None,
    ) -> None:
        self.space = space
        self._records: List[FileMetadata] = []
        self._by_name: Dict[str, List[FileMetadata]] = {}
        #: ``record(row)`` at list-index speed.
        self.record = self._records.__getitem__
        self.count = 0
        self.ids = np.empty(0, dtype=np.int64)
        self.raw = np.empty((0, space.schema.dimension))
        self.index = self.raw.copy()
        self.norm = space.to_norm(self.index)
        self.extend(files, raw)

    def extend(self, files: Sequence[FileMetadata], raw: Optional[np.ndarray] = None) -> None:
        """Append ``files``; ``raw`` is their attribute rows when the caller
        already holds them (only the new rows are transformed)."""
        if not files:
            return
        if raw is None:
            raw = np.vstack([f.vector(self.space.schema) for f in files])
        index = self.space.to_index(raw)
        self._records.extend(files)
        for f in files:
            self._by_name.setdefault(f.filename, []).append(f)
        self.count = len(self._records)
        self.ids = np.concatenate(
            (self.ids, np.asarray([f.file_id for f in files], dtype=np.int64))
        )
        self.raw = np.concatenate((self.raw, raw))
        self.index = np.concatenate((self.index, index))
        if self.norm is not None:
            self.norm = np.concatenate((self.norm, self.space.to_norm(index)))

    def remove(self, file_id: int) -> Optional[FileMetadata]:
        rows = np.flatnonzero(self.ids == file_id)
        if rows.size == 0:
            return None
        row = int(rows[0])
        removed = self._records.pop(row)
        bucket = self._by_name.get(removed.filename, [])
        self._by_name[removed.filename] = [x for x in bucket if x.file_id != file_id]
        self.count = len(self._records)
        self.ids = np.delete(self.ids, row)
        self.raw = np.delete(self.raw, row, axis=0)
        self.index = np.delete(self.index, row, axis=0)
        if self.norm is not None:
            self.norm = np.delete(self.norm, row, axis=0)
        return removed

    def renormalise(self) -> None:
        self.norm = self.space.to_norm(self.index)

    def lookup(self, filename: str) -> List[FileMetadata]:
        return list(self._by_name.get(filename, ()))

    def records(self) -> List[FileMetadata]:
        """The live record list, row order (callers must not mutate it)."""
        return self._records

    def writable(self) -> "MemoryRows":
        return self

    def load(self) -> None:
        pass

    def drop(self) -> None:
        pass


class StorageServer:
    """One simulated metadata server / storage unit.

    The unit owns the Bloom filter and the scan, summary and mutation
    logic; the rows themselves live in ``rows``, a row block
    (:class:`MemoryRows`, or a :class:`~repro.storage.lazy.SegmentRows`
    over a published segment).  A unit's state is the block it holds: the
    first ``add_file`` / ``remove_file`` / ``files`` read swaps a segment
    block for its ``writable()`` form (one full decode), a publish
    assigns a fresh one — no method edits a segment block.

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
        self.bloom = BloomFilter(bloom_bits, bloom_hashes)
        self.space = IndexSpace(schema)
        self.rows: Any = MemoryRows(self.space)
        #: The :class:`~repro.storage.store.SegmentStore` that faults this unit's
        #: segment blocks in and out and rebinds it cold at each publish, if any.
        self.residency: Any = None

    # ------------------------------------------------------------------ content management
    def __len__(self) -> int:
        return self.rows.count

    @property
    def files(self) -> List[FileMetadata]:
        """The unit's records, row order (makes the unit writable)."""
        return self._writable().records()

    def add_file(self, file: FileMetadata) -> None:
        """Add one metadata record to this unit."""
        self.add_files((file,))

    def add_files(
        self, files: Sequence[FileMetadata], raw: Optional[np.ndarray] = None
    ) -> None:
        """Add many metadata records (their filenames are hashed in one
        vectorised filter update); ``raw`` is their row-aligned attribute
        matrix when the caller has it, sparing a ``vector()`` per record."""
        self._writable().extend(files, raw)
        self.bloom.add_many([f.filename for f in files])

    def remove_file(self, file_id: int) -> Optional[FileMetadata]:
        """Remove a record by file id.

        The Bloom filter is *not* rebuilt (plain Bloom filters cannot
        delete); stale positives are caught when the target metadata is
        accessed, exactly as §5.4.1 describes.
        """
        return self._writable().remove(file_id)

    def _writable(self) -> MemoryRows:
        rows = self.rows.writable()
        if rows is not self.rows:
            self.rows = rows
            if self.residency is not None:
                self.residency.note_pinned()
        return rows

    def backing_segment(self) -> Any:
        """The published segment the unit's rows are read from, if any."""
        return self.rows.segment

    def set_normalization(self, lower: np.ndarray, upper: np.ndarray) -> None:
        """Install the deployment-wide index-space normalisation bounds.

        All servers must share the same bounds so that normalised distances
        are comparable across units.
        """
        self.space.lower = np.asarray(lower, dtype=np.float64)
        self.space.upper = np.asarray(upper, dtype=np.float64)
        self.rows.renormalise()

    def _scan_rows(self) -> Any:
        """The block, for a scan: a segment block's group is faulted in first."""
        if self.residency is not None and self.rows.segment is not None:
            self.residency.ensure_resident(self)
        return self.rows

    # ------------------------------------------------------------------ summaries
    def matrix(self) -> np.ndarray:
        """Raw ``(n_local, D)`` attribute matrix of the unit's files."""
        return self.rows.raw

    def index_matrix(self) -> np.ndarray:
        """Index-space (log-transformed) attribute matrix."""
        return self.rows.index

    def file_ids(self) -> np.ndarray:
        """Row-aligned ``int64`` file ids (row ``i`` is ``files[i]``)."""
        return self.rows.ids

    def normalized_matrix(self) -> np.ndarray:
        """Normalised index-space matrix (requires :meth:`set_normalization`)."""
        norm = self.rows.norm
        if norm is None:
            raise RuntimeError("normalisation bounds have not been installed on this server")
        return norm

    def mbr(self) -> Optional[MBR]:
        """MBR of the unit's files in index space (None when empty)."""
        if self.rows.count == 0:
            return None
        return MBR.from_points(self.rows.index)

    def centroid(self) -> Optional[np.ndarray]:
        """Centroid of the unit's files in index space."""
        if self.rows.count == 0:
            return None
        return self.rows.index.mean(axis=0)

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
        block = self._scan_rows()
        metrics = metrics if metrics is not None else Metrics()
        n = block.count
        metrics.record_unit_visit(self.unit_id)
        metrics.record_scan(n, on_disk=on_disk)
        if n == 0:
            return []
        cols = block.index[:, list(attr_indices)]
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        mask = np.all((cols >= lower) & (cols <= upper), axis=1)
        record = block.record
        return [record(i) for i in np.nonzero(mask)[0].tolist()]

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
        file_ids = self._scan_rows().ids
        norm = self.normalized_matrix()
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

    def record_at(self, row: int) -> FileMetadata:
        """The record in local row ``row`` of the scan matrices (a segment
        block decodes it on first use: a caller that keeps only some
        candidates of a scan pays only for those)."""
        return self.rows.record(row)

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
        matches = self.rows.lookup(filename)
        metrics.record_scan(max(1, len(matches)), on_disk=on_disk)
        return matches

    # ------------------------------------------------------------------ space accounting
    def space_bytes(self, cost_model: CostModel = DEFAULT_COST_MODEL) -> int:
        """Bytes of metadata and local index state hosted by this server."""
        return len(self) * cost_model.metadata_record_bytes + self.bloom.size_bytes()

    def __repr__(self) -> str:
        return f"StorageServer(unit_id={self.unit_id}, files={len(self)})"
