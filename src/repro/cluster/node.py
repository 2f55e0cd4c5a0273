"""A simulated metadata server hosting one storage unit.

Each storage unit (a leaf of the semantic R-tree) lives on one metadata
server.  Its rows live in a *row block* — in memory (:class:`MemoryRows`)
or over a published segment (``repro.storage.lazy.SegmentRows``) — which
holds the local metadata as dense, row-aligned numpy columns: the **raw**
attributes (natural units: what users get back and what a range scan
compares against their bounds) and, per queried attribute, the
**normalised** index-space values (deployment-wide min-max bounds) that
top-k distances use — kept by an in-memory block, derived from the
mapping per scan by a segment block.

The **index space** — wide-range attributes (sizes, byte volumes)
``log1p``-transformed so that MBRs and distances are not dominated by a
few huge values — is derived from the raw rows when a summary (MBR,
centroid, normalisation) needs it, at build and drain refresh, never per
query.  The transform is monotone per dimension, so an index-space MBR
that misses a window holds no row the raw-unit scan would return.

Every scan reports the records it inspected to the shared
:class:`~repro.cluster.metrics.Metrics` object so the cost model can charge
it; SmartStore's units are memory-resident (the baselines charge disk).
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bloom.bloom import DEFAULT_BITS, DEFAULT_HASHES, BloomFilter
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.metrics import Metrics
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.rtree.mbr import MBR

__all__ = ["IndexSpace", "MemoryRows", "StorageServer", "attribute_major", "in_window"]


_NO_BOUNDS = "normalisation bounds have not been installed on this server"


def attribute_major(rows: np.ndarray) -> np.ndarray:
    """``rows`` copied into the layout every block keeps its matrices in: an
    ``(n, D)`` view of a C-ordered ``(D, n)`` array, so one attribute's
    values are a contiguous vector (``rows.T[a]``)."""
    return rows.T.copy().T


def in_window(
    columns: Sequence[np.ndarray], lower: Sequence[float], upper: Sequence[float]
) -> np.ndarray:
    """The range predicate over one raw column per queried attribute (at
    least one): a row is in when every ``lower[i] <= columns[i] <=
    upper[i]``.  A NaN value is in no window."""
    mask = columns[0] >= lower[0]
    mask &= columns[0] <= upper[0]
    for col, lo, hi in zip(columns[1:], lower[1:], upper[1:]):
        mask &= col >= lo
        mask &= col <= hi
    return mask


class IndexSpace:
    """The deployment's row transforms, shared by a unit and the block it holds.

    ``to_index`` applies ``log1p`` to the schema's wide-range columns;
    ``to_norm`` maps raw rows to index space and min-max normalises them
    against the deployment-wide bounds (``None`` until
    :meth:`StorageServer.set_normalization` installs them).  Both are
    row-wise, so rows transformed one batch at a time are bit-equal to the
    same rows transformed in one go.

    :class:`MemoryRows` keeps ``raw`` and ``norm`` in the layout
    :func:`attribute_major` fixes (``to_norm`` returns it), so the columns a
    range or top-k query reads are contiguous vectors, and patches them
    along axis 1 of ``raw.T`` / ``norm.T``.  A cold segment block keeps no
    normalised rows: :meth:`norm_columns` derives the queried columns per
    scan, bit-equal to ``to_norm``'s.  ``to_index`` returns row-major rows
    whatever its input's layout, so a centroid over them adds in one order.
    """

    def __init__(self, schema: AttributeSchema) -> None:
        self.schema = schema
        self.log_mask = np.array(schema.log_scale_mask(), dtype=bool)
        self.lower: Optional[np.ndarray] = None
        self.upper: Optional[np.ndarray] = None

    def to_index(self, raw: np.ndarray) -> np.ndarray:
        return self._log_scale(raw.copy().T).T

    def to_norm(self, raw: np.ndarray) -> Optional[np.ndarray]:
        if self.lower is None or self.upper is None:
            return None
        span = self.upper - self.lower
        safe = np.where(span > 0, span, 1.0)
        cols = self._log_scale(attribute_major(raw).T)
        cols -= self.lower[:, None]
        cols /= safe[:, None]
        return np.clip(cols, 0.0, 1.0, out=cols).T

    def norm_columns(self, cols: np.ndarray, attr_indices: Sequence[int]) -> List[np.ndarray]:
        """``to_norm`` of the rows whose ``(D, n)`` view is ``cols``, on the
        attributes ``attr_indices`` only: one fresh vector each, from the
        same ufuncs in the same order (``log1p(max(x, 0))`` on a wide-range
        column, minus the lower bound, over the span, clipped), so the same
        float64s."""
        if self.lower is None or self.upper is None:
            raise RuntimeError(_NO_BOUNDS)
        # Python floats: the same IEEE operations as numpy scalars, with
        # less per-call overhead on a unit's few hundred rows.
        lower, upper = self.lower.tolist(), self.upper.tolist()
        out = []
        for a in attr_indices:
            if self.log_mask[a]:
                col = np.maximum(cols[a], 0.0)
                np.log1p(col, out=col)
                col -= lower[a]
            else:
                col = cols[a] - lower[a]
            span = upper[a] - lower[a]
            col /= span if span > 0 else 1.0
            out.append(col.clip(0.0, 1.0, out=col))
        return out

    def _log_scale(self, cols: np.ndarray) -> np.ndarray:
        """``log1p`` in place on the wide-range rows of ``cols``, a ``(D, n)``
        view of a fresh copy (one copy per transform, in either layout)."""
        if self.log_mask.any():
            cols[self.log_mask] = np.log1p(np.maximum(cols[self.log_mask], 0.0))
        return cols


class MemoryRows:
    """The in-memory row block: a unit's rows as live Python state.

    A row block is what a :class:`StorageServer` scans: ``count`` rows,
    the row-aligned arrays ``ids`` / ``raw``, ``norm_columns(attrs)``,
    ``record(row)``, ``records_at(rows)``, ``lookup(filename)``,
    ``records()``, ``writable()`` and ``segment`` (see
    :class:`~repro.storage.lazy.SegmentRows`, the other block).  This one is the only block that mutates: ``extend`` and
    ``remove_rows`` patch the arrays in place of a rebuild, the normalised
    matrix ``norm`` (attribute-major) included.

    Two things are kept on purpose: the record *objects* (a plain-store
    range answer must not pay a JSON decode per hit) and the name *dict*.
    Each block keeps the name index that is fastest for it: a dict for this
    mutable block, the mapped 63-bit hash column for a segment.  A hash
    column here too (one ``lookup`` for both blocks) was measured and
    dropped: on an 833-row unit ``StorageServer.lookup_filename`` went from
    0.66 to 3.98 µs (hash the name, compare the column, gather the hits),
    and at ~1.2 lookups per point query ``scan_plain``'s ``point_p50_ms``
    rose 10.4 % (worse in 10 of 10 alternating pairs, 2 cores) for 1.0 %
    less peak RSS.
    """

    segment = None  # no published segment holds these rows

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
        self.raw = attribute_major(np.empty((0, space.schema.dimension)))
        self.norm = space.to_norm(self.raw)
        self.extend(files, raw)

    def extend(self, files: Sequence[FileMetadata], raw: Optional[np.ndarray] = None) -> None:
        """Append ``files``; ``raw`` is their attribute rows when the caller
        already holds them (only the new rows are transformed)."""
        if not files:
            return
        if raw is None:
            raw = np.vstack([f.vector(self.space.schema) for f in files])
        self._records.extend(files)
        for f in files:
            self._by_name.setdefault(f.filename, []).append(f)
        self.count = len(self._records)
        self.ids = np.concatenate(
            (self.ids, np.asarray([f.file_id for f in files], dtype=np.int64))
        )
        self.raw = np.concatenate((self.raw.T, attribute_major(raw).T), axis=1).T
        if self.norm is not None:
            self.norm = np.concatenate((self.norm.T, self.space.to_norm(raw).T), axis=1).T

    def remove_rows(self, rows: Sequence[int]) -> None:
        """Drop the rows ``rows`` (distinct) with one mask over every array;
        a name whose last record goes leaves the name index."""
        keep = np.ones(self.count, dtype=bool)
        keep[list(rows)] = False
        gone: Dict[str, Set[int]] = {}
        for row in rows:
            f = self._records[row]
            gone.setdefault(f.filename, set()).add(f.file_id)
        self._records[:] = compress(self._records, keep.tolist())
        for name, ids in gone.items():
            bucket = [x for x in self._by_name.get(name, ()) if x.file_id not in ids]
            if bucket:
                self._by_name[name] = bucket
            else:
                self._by_name.pop(name, None)
        self.count = len(self._records)
        self.ids = self.ids[keep]
        # ``compress`` keeps ``raw.T`` C-ordered (a mask index would not).
        self.raw = np.compress(keep, self.raw.T, axis=1).T
        if self.norm is not None:
            self.norm = np.compress(keep, self.norm.T, axis=1).T

    def renormalise(self) -> None:
        self.norm = self.space.to_norm(self.raw)

    def norm_columns(self, attr_indices: Sequence[int]) -> List[np.ndarray]:
        """The maintained normalised columns ``attr_indices``, as views."""
        if self.norm is None:
            raise RuntimeError(_NO_BOUNDS)
        cols = self.norm.T
        return [cols[a] for a in attr_indices]

    def records_at(self, rows: Sequence[int]) -> List[FileMetadata]:
        return list(map(self._records.__getitem__, rows))

    def lookup(self, filename: str) -> List[FileMetadata]:
        return list(self._by_name.get(filename, ()))

    def records(self) -> List[FileMetadata]:
        """The live record list, row order (callers must not mutate it)."""
        return self._records

    def writable(self) -> "MemoryRows":
        return self


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
        Bloom-filter parameters (a built store passes its resolved width,
        see :func:`~repro.bloom.bloom.sized_bits`).
    """

    def __init__(
        self,
        unit_id: int,
        schema: AttributeSchema = DEFAULT_SCHEMA,
        *,
        bloom_bits: int = DEFAULT_BITS,
        bloom_hashes: int = DEFAULT_HASHES,
    ) -> None:
        self.unit_id = unit_id
        self.schema = schema
        self.bloom = BloomFilter(bloom_bits, bloom_hashes)
        self.space = IndexSpace(schema)
        self.rows: Any = MemoryRows(self.space)
        #: The :class:`~repro.storage.store.SegmentStore` that rebinds this
        #: unit cold at each publish and counts its pins, if any.
        self.segment_store: Any = None

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
        """Remove a record by file id (its first row, if any).

        The Bloom filter is *not* rebuilt (plain Bloom filters cannot
        delete); stale positives are caught when the target metadata is
        accessed, exactly as §5.4.1 describes.
        """
        block = self._writable()
        rows = np.flatnonzero(block.ids == file_id)
        if rows.size == 0:
            return None
        removed = block.record(int(rows[0]))
        block.remove_rows((int(rows[0]),))
        return removed

    def patch(
        self, rows: Sequence[int], files: Sequence[FileMetadata], names: Sequence[str]
    ) -> None:
        """One drain's change to this unit, as three batch updates: drop the
        rows ``rows`` (row numbers of the block as it is now), append
        ``files``, and add ``names`` to the Bloom filter — every name the
        unit was handed, a record that did not stay included, since a plain
        filter cannot forget one.  Makes the unit writable even when there
        is nothing to change (a change addressed to it was applied)."""
        block = self._writable()
        if len(rows):
            block.remove_rows(rows)
        block.extend(files)
        self.bloom.add_many(names)

    def _writable(self) -> MemoryRows:
        rows = self.rows.writable()
        if rows is not self.rows:
            self.rows = rows
            if self.segment_store is not None:
                self.segment_store.note_pinned()
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
        if self.rows.segment is None:  # a segment block normalises per scan
            self.rows.renormalise()

    # ------------------------------------------------------------------ summaries
    def matrix(self) -> np.ndarray:
        """Raw ``(n_local, D)`` attribute matrix of the unit's files."""
        return self.rows.raw

    def index_matrix(self) -> np.ndarray:
        """Index-space (log-transformed) attribute matrix, derived per call."""
        return self.space.to_index(self.rows.raw)

    def file_ids(self) -> np.ndarray:
        """Row-aligned ``int64`` file ids (row ``i`` is ``files[i]``)."""
        return self.rows.ids

    def normalized_matrix(self) -> np.ndarray:
        """Normalised index-space matrix, attribute-major (requires
        :meth:`set_normalization`): an in-memory block's maintained
        columns, a cold segment block's derived from the mapping."""
        return np.stack(self.rows.norm_columns(range(self.schema.dimension))).T

    def mbr(self) -> Optional[MBR]:
        """MBR of the unit's files in index space (None when empty)."""
        if self.rows.count == 0:
            return None
        return MBR.from_points(self.index_matrix())

    def centroid(self) -> Optional[np.ndarray]:
        """Centroid of the unit's files in index space."""
        if self.rows.count == 0:
            return None
        return self.index_matrix().mean(axis=0)

    def filenames(self) -> List[str]:
        return [f.filename for f in self.files]

    # ------------------------------------------------------------------ local query execution
    def scan_range(
        self,
        attr_indices: Sequence[int],
        lower: Sequence[float],
        upper: Sequence[float],
        metrics: Optional[Metrics] = None,
    ) -> List[FileMetadata]:
        """The unit's records with every attribute ``attr_indices[i]`` (at
        least one) in ``[lower[i], upper[i]]``, in raw units: the exact
        predicate, :func:`in_window`, decided here once.

        The block is read as it is: an in-memory block's columns are
        contiguous vectors, a cold segment block's are views of the mapping
        (contiguous too in a v2 segment) — the same float64s, so the same
        mask, records and charges.  The hits are built in one batch."""
        block = self.rows
        metrics = metrics if metrics is not None else Metrics()
        n = block.count
        metrics.record_unit_visit(self.unit_id)
        metrics.record_scan(n)
        if n == 0:
            return []
        cols = block.raw.T
        mask = in_window([cols[a] for a in attr_indices], lower, upper)
        return block.records_at(np.flatnonzero(mask).tolist())

    def knn_candidates(
        self,
        query_norm: np.ndarray,
        k: int,
        metrics: Optional[Metrics] = None,
        *,
        attr_indices: Sequence[int],
        within: Optional[float] = None,
    ) -> Tuple[List[float], List[int], List[int]]:
        """The unit's ``k`` nearest records as ``(distances, file_ids, rows)``.

        ``query_norm`` holds the query's values on the attributes
        ``attr_indices``, normalised with the deployment-wide bounds; the
        distance considers only those attributes, its squared differences
        summed one attribute at a time in ``attr_indices`` order (so a
        distance is a pure function of the row and the query, whichever
        unit or block it is computed in: a cold segment block normalises
        just the queried columns from its mapping, for this scan, into the
        float64s an in-memory block keeps).  ``rows`` are local row numbers
        for :meth:`record_at`: a caller that keeps only some candidates
        decodes only those.

        ``within`` keeps only records at a distance ``<= within``: a caller
        whose candidate pool already holds ``k`` passes the pool's k-th
        distance, since no record beyond it can enter the answer.  Every
        record counts as scanned either way.

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
        block = self.rows
        cols = block.norm_columns(attr_indices)
        file_ids = block.ids
        n = file_ids.shape[0]
        metrics.record_unit_visit(self.unit_id)
        metrics.record_scan(n)
        if n == 0 or k <= 0:
            return [], [], []
        values = np.asarray(query_norm, dtype=np.float64).tolist()
        delta = cols[0] - values[0]
        dists = np.multiply(delta, delta, out=delta)
        for col, value in zip(cols[1:], values[1:]):
            delta = col - value
            dists += np.multiply(delta, delta, out=delta)
        np.sqrt(dists, out=dists)
        if within is None:
            # Tie-stable cut: identical attribute values produce bit-identical
            # distances, so `<= within` re-admits every record tying the k-th
            # best before the canonical (distance, file_id) order truncates.
            part = min(k, n) - 1
            within = dists[np.argpartition(dists, part)[part]]
        eligible = (dists <= within).nonzero()[0]
        if eligible.size == 0:
            return [], [], []
        order = np.lexsort((file_ids[eligible], dists[eligible]))
        top = eligible[order[:k]]
        return dists[top].tolist(), file_ids[top].tolist(), top.tolist()

    def record_at(self, row: int) -> FileMetadata:
        """The record in local row ``row`` of the scan matrices (a segment
        block builds it per call: a caller that keeps only some
        candidates of a scan pays only for those)."""
        return self.rows.record(row)

    def records_at(self, rows: Sequence[int]) -> List[FileMetadata]:
        """:meth:`record_at` of every row of ``rows``, as one batch (a
        segment block gathers their columns once)."""
        return self.rows.records_at(rows)

    def lookup_filename(
        self,
        filename: str,
        metrics: Optional[Metrics] = None,
    ) -> List[FileMetadata]:
        """Exact filename lookup against the local records.

        The Bloom-filter check that routed the query here is charged by the
        caller; this method charges the local verification access.
        """
        metrics = metrics if metrics is not None else Metrics()
        metrics.record_unit_visit(self.unit_id)
        matches = self.rows.lookup(filename)
        metrics.record_scan(max(1, len(matches)))
        return matches

    # ------------------------------------------------------------------ space accounting
    def space_bytes(self, cost_model: CostModel = DEFAULT_COST_MODEL) -> int:
        """Bytes of metadata and local index state hosted by this server."""
        return len(self) * cost_model.metadata_record_bytes + self.bloom.size_bytes()

    def __repr__(self) -> str:
        return f"StorageServer(unit_id={self.unit_id}, files={len(self)})"
