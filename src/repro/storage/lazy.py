"""Lazy views over mmap'd segments: servers and the file map.

:class:`SegmentBackedServer` is a drop-in :class:`~repro.cluster.node.StorageServer`
whose rows live in an immutable segment.  It moves through three states:

* **cold** — only the restored Bloom filter and the segment's row range
  are in RAM; scans answer straight from the mapping (index-space
  transform recomputed on the fly), decoding JSON records only for rows
  a query returns;
* **resident** — the :class:`~repro.storage.store.SegmentStore` LRU has
  faulted the group in, so the id/index/norm arrays are cached in RAM
  (still no record decode);
* **materialized** — the full file list has been decoded (required for
  mutations and for callers that read ``server.files`` directly); from
  here the server behaves exactly like its live parent and is pinned
  out of the LRU.

Scan semantics, metric accounting, and tie-breaking are kept *identical*
to the parent class in every state — the cross-placement fingerprint
suites rely on a restored deployment being byte-equivalent to the live
one it was snapshotted from.

:class:`LazyFileMap` gives :class:`~repro.core.smartstore.SmartStore` a
``file_id -> FileMetadata`` mapping backed by ``(segment, row)``
locations, with a small override/tombstone layer for post-restore
mutations.  Point lookups decode one record; only whole-map iteration
(``materialized_files``, shard summary rebuilds) pays a full decode.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterator,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.cluster.metrics import Metrics
from repro.cluster.node import StorageServer
from repro.metadata.file_metadata import FileMetadata
from repro.rtree.mbr import MBR
from repro.storage.segment import Segment, name_hash64

__all__ = ["SegmentBackedServer", "LazyFileMap"]


class SegmentBackedServer(StorageServer):
    """A storage unit whose applied rows live in an mmap'd segment."""

    def __init__(
        self,
        unit_id: int,
        schema: Any,
        *,
        bloom_bits: int = 1024,
        bloom_hashes: int = 7,
        segment: Optional[Segment] = None,
        row_range: Tuple[int, int] = (0, 0),
        segstore: Optional[Any] = None,
    ) -> None:
        # The parent assigns ``self.files = []`` before our attributes
        # exist; the property setter below tolerates that.
        super().__init__(
            unit_id, schema, bloom_bits=bloom_bits, bloom_hashes=bloom_hashes
        )
        self._segment = segment
        self._row_start, self._row_stop = int(row_range[0]), int(row_range[1])
        self._backing_count = max(0, self._row_stop - self._row_start)
        self._segstore = segstore
        # A unit with no backing rows has nothing to fault in.
        self._materialized = segment is None or self._backing_count == 0
        self._res_ids: Optional[np.ndarray] = None
        self._res_index: Optional[np.ndarray] = None
        self._res_norm: Optional[np.ndarray] = None
        self._decoded: Dict[int, FileMetadata] = {}

    # ------------------------------------------------------------------ files facade
    @property
    def files(self) -> List[FileMetadata]:
        # Direct readers of ``server.files`` (snapshot export, dedup
        # apps) get the real list — materializing on demand.
        if not getattr(self, "_materialized", True):
            self.materialize()
        return self._files_list

    @files.setter
    def files(self, value: Sequence[FileMetadata]) -> None:
        self._files_list = list(value)

    @property
    def is_materialized(self) -> bool:
        return self._materialized

    @property
    def is_resident(self) -> bool:
        return self._res_index is not None

    def backing_segment(self) -> Optional[Segment]:
        return None if self._materialized else self._segment

    def __len__(self) -> int:
        if self._materialized:
            return len(self._files_list)
        return self._backing_count

    # ------------------------------------------------------------------ state moves
    def materialize(self) -> None:
        """Decode the full file list; after this the server is a plain
        in-RAM unit (and stays pinned out of the fault/evict LRU)."""
        if self._materialized:
            return
        self._materialized = True
        records = [self._record(row) for row in range(self._backing_count)]
        self._files_list = records
        by_name: Dict[str, List[FileMetadata]] = {}
        for f in records:
            by_name.setdefault(f.filename, []).append(f)
        self._by_filename = by_name
        # The restored bloom already covers exactly these filenames.
        self._drop_resident()
        self._dirty = True
        if self._segstore is not None:
            self._segstore.note_materialized(self)

    def rebind(self, segment: Segment, row_range: Tuple[int, int]) -> None:
        """Point at a freshly published segment and demote to cold,
        releasing the RAM copies (the new segment is the same state)."""
        self._segment = segment
        self._row_start, self._row_stop = int(row_range[0]), int(row_range[1])
        self._backing_count = max(0, self._row_stop - self._row_start)
        self._materialized = self._backing_count == 0
        self._files_list = []
        self._by_filename = {}
        self._drop_resident()
        self._dirty = True

    def load_resident(self) -> None:
        """Fault the unit's arrays into RAM (called by the LRU)."""
        if self._materialized or self._res_index is not None:
            return
        seg = self._segment
        assert seg is not None
        self._res_ids = np.array(seg.file_ids(self._row_start, self._row_stop))
        self._res_index = self._cold_index_matrix()
        self._res_norm = self._to_norm_space(self._res_index)

    def _drop_resident(self) -> None:
        self._res_ids = None
        self._res_index = None
        self._res_norm = None
        self._decoded.clear()

    drop_resident = _drop_resident

    # ------------------------------------------------------------------ cold helpers
    def _record(self, local_row: int) -> FileMetadata:
        f = self._decoded.get(local_row)
        if f is None:
            assert self._segment is not None
            f = self._segment.record(self._row_start + local_row)
            self._decoded[local_row] = f
        return f

    def _cold_index_matrix(self) -> np.ndarray:
        if self._res_index is not None:
            return self._res_index
        assert self._segment is not None
        raw = np.asarray(
            self._segment.matrix_rows(self._row_start, self._row_stop),
            dtype=np.float64,
        )
        return self._to_index_space(raw)

    def _ensure_resident(self) -> None:
        if self._segstore is not None:
            self._segstore.ensure_resident(self)

    # ------------------------------------------------------------------ mutations
    def add_file(self, file: FileMetadata) -> None:
        if not self._materialized:
            self.materialize()
        super().add_file(file)

    def remove_file(self, file_id: int) -> Optional[FileMetadata]:
        if not self._materialized:
            self.materialize()
        return super().remove_file(file_id)

    # ------------------------------------------------------------------ scans
    def scan_range(
        self,
        attr_indices: Sequence[int],
        lower: Sequence[float],
        upper: Sequence[float],
        metrics: Optional[Metrics] = None,
        *,
        on_disk: bool = False,
    ) -> List[FileMetadata]:
        if self._materialized:
            return super().scan_range(
                attr_indices, lower, upper, metrics, on_disk=on_disk
            )
        self._ensure_resident()
        metrics = metrics if metrics is not None else Metrics()
        n = self._backing_count
        metrics.record_unit_visit(self.unit_id)
        metrics.record_scan(n, on_disk=on_disk)
        if n == 0:
            return []
        index = self._res_index if self._res_index is not None else self._cold_index_matrix()
        cols = index[:, list(attr_indices)]
        lower_arr = np.asarray(lower, dtype=np.float64)
        upper_arr = np.asarray(upper, dtype=np.float64)
        mask = np.all((cols >= lower_arr) & (cols <= upper_arr), axis=1)
        return [self._record(int(i)) for i in np.nonzero(mask)[0]]

    def _knn_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._materialized:
            return super()._knn_arrays()
        self._ensure_resident()
        norm = self._res_norm if self._res_norm is not None else self.normalized_matrix()
        return norm, self.file_ids()

    def record_at(self, row: int) -> FileMetadata:
        """Decode (once) the record in local row ``row``: a kNN scan pays a
        JSON decode only for the rows its caller keeps."""
        if self._materialized:
            return super().record_at(row)
        return self._record(row)

    def lookup_filename(
        self,
        filename: str,
        metrics: Optional[Metrics] = None,
        *,
        on_disk: bool = False,
    ) -> List[FileMetadata]:
        if self._materialized:
            return super().lookup_filename(filename, metrics, on_disk=on_disk)
        # Point queries answer from the map directly (name-hash prune,
        # then decode candidates) — no fault-in, no LRU churn.
        metrics = metrics if metrics is not None else Metrics()
        metrics.record_unit_visit(self.unit_id)
        assert self._segment is not None
        hashes = self._segment.name_hashes(self._row_start, self._row_stop)
        target = name_hash64(filename)
        matches: List[FileMetadata] = []
        for row in np.nonzero(hashes == target)[0]:
            f = self._record(int(row))
            if f.filename == filename:
                matches.append(f)
        metrics.record_scan(max(1, len(matches)), on_disk=on_disk)
        return matches

    # ------------------------------------------------------------------ summaries
    def mbr(self) -> Optional[MBR]:
        if self._materialized:
            return super().mbr()
        if self._backing_count == 0:
            return None
        return MBR.from_points(self._cold_index_matrix())

    def centroid(self) -> Optional[np.ndarray]:
        if self._materialized:
            return super().centroid()
        if self._backing_count == 0:
            return None
        return self._cold_index_matrix().mean(axis=0)

    def filenames(self) -> List[str]:
        if not self._materialized:
            self.materialize()
        return super().filenames()

    def matrix(self) -> np.ndarray:
        if self._materialized:
            return super().matrix()
        assert self._segment is not None
        return np.asarray(
            self._segment.matrix_rows(self._row_start, self._row_stop),
            dtype=np.float64,
        )

    def index_matrix(self) -> np.ndarray:
        if self._materialized:
            return super().index_matrix()
        return self._cold_index_matrix()

    def file_ids(self) -> np.ndarray:
        if self._materialized:
            return super().file_ids()
        if self._res_ids is not None:
            return self._res_ids
        assert self._segment is not None
        return self._segment.file_ids(self._row_start, self._row_stop)

    def normalized_matrix(self) -> np.ndarray:
        if self._materialized:
            return super().normalized_matrix()
        norm = self._to_norm_space(self._cold_index_matrix())
        if norm is None:
            raise RuntimeError(
                "normalization bounds not installed; call set_normalization first"
            )
        return norm

    def space_bytes(self, cost_model: Any = None) -> int:
        if cost_model is None:
            from repro.cluster.costmodel import DEFAULT_COST_MODEL

            cost_model = DEFAULT_COST_MODEL
        if self._materialized:
            return super().space_bytes(cost_model)
        return int(
            self._backing_count * cost_model.metadata_record_bytes
            + self.bloom.size_bytes()
        )


class LazyFileMap(MutableMapping[int, FileMetadata]):
    """``file_id -> FileMetadata`` backed by segment row locations.

    Mutations land in an override/tombstone layer; base rows decode on
    access.  ``swap_base`` re-points the map at a freshly published
    segment set (the overrides were folded into those segments)."""

    def __init__(self, locations: Dict[int, Tuple[Segment, int]]) -> None:
        self._base = locations
        self._overrides: Dict[int, FileMetadata] = {}
        self._tombstones: Set[int] = set()

    def __getitem__(self, file_id: int) -> FileMetadata:
        if file_id in self._overrides:
            return self._overrides[file_id]
        if file_id in self._tombstones:
            raise KeyError(file_id)
        segment, row = self._base[file_id]
        return segment.record(row)

    def __setitem__(self, file_id: int, value: FileMetadata) -> None:
        self._overrides[file_id] = value
        self._tombstones.discard(file_id)

    def __delitem__(self, file_id: int) -> None:
        had_override = self._overrides.pop(file_id, None) is not None
        if file_id in self._base and file_id not in self._tombstones:
            self._tombstones.add(file_id)
        elif not had_override:
            raise KeyError(file_id)

    def __iter__(self) -> Iterator[int]:
        yield from self._overrides
        for file_id in self._base:
            if file_id not in self._overrides and file_id not in self._tombstones:
                yield file_id

    def __len__(self) -> int:
        shadowed = sum(1 for fid in self._overrides if fid in self._base)
        return len(self._base) - len(self._tombstones) - shadowed + len(self._overrides)

    def __contains__(self, file_id: object) -> bool:
        if file_id in self._overrides:
            return True
        return file_id in self._base and file_id not in self._tombstones

    def swap_base(self, locations: Dict[int, Tuple[Segment, int]]) -> None:
        """Install a new published base; overrides are now durable."""
        self._base = locations
        self._overrides = {}
        self._tombstones = set()
