"""The segment row block: a unit's rows read from an mmap'd segment.

:class:`SegmentRows` is the published counterpart of
:class:`~repro.cluster.node.MemoryRows` — the same row-block interface a
:class:`~repro.cluster.node.StorageServer` scans, over rows
``[start, stop)`` of an immutable :class:`~repro.storage.segment.Segment`.
What used to be three server states is which block a unit holds and
whether that block's arrays are cached:

* **cold** — nothing but the row range is in RAM; the arrays are views of
  (or transforms recomputed from) the mapping, and a JSON record is
  decoded only for a row a query returns;
* **resident** — the :class:`~repro.storage.store.SegmentStore` LRU has
  ``load()``-ed the id/index/norm arrays (still no record decode), and
  ``drop()``s them when the group is evicted;
* **materialised** — the unit swapped this block for its ``writable()``
  form, a :class:`~repro.cluster.node.MemoryRows` (one full decode), and
  stays out of the LRU until the next publish rebinds it.

A segment block is never edited: a publish builds a fresh one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.node import IndexSpace, MemoryRows, StorageServer
from repro.metadata.file_metadata import FileMetadata
from repro.storage.segment import Segment, name_hash64

__all__ = ["SegmentRows", "bind_segment"]


class SegmentRows:
    """Rows ``[start, stop)`` of a published segment, as a row block."""

    def __init__(self, space: IndexSpace, segment: Segment, start: int, stop: int) -> None:
        self.space = space
        self.segment = segment
        self.start, self.stop = int(start), int(stop)
        self.count = self.stop - self.start
        self._ids: Optional[np.ndarray] = None
        self._index: Optional[np.ndarray] = None
        self._norm: Optional[np.ndarray] = None
        self._decoded: Dict[int, FileMetadata] = {}

    # ------------------------------------------------------------------ residency
    @property
    def cached(self) -> bool:
        return self._index is not None

    def load(self) -> None:
        """Fault the arrays into RAM (called by the LRU)."""
        if self._index is None:
            self._ids = np.array(self.segment.file_ids(self.start, self.stop))
            index = self.space.to_index(self.raw)
            self._norm = self.space.to_norm(index)
            self._index = index

    def drop(self) -> None:
        self._ids = self._index = self._norm = None
        self._decoded.clear()

    renormalise = drop  # new bounds: whatever is cached is recomputed on demand

    # ------------------------------------------------------------------ arrays
    @property
    def ids(self) -> np.ndarray:
        ids = self._ids
        return ids if ids is not None else self.segment.file_ids(self.start, self.stop)

    @property
    def raw(self) -> np.ndarray:
        return np.asarray(
            self.segment.matrix_rows(self.start, self.stop), dtype=np.float64
        )

    @property
    def index(self) -> np.ndarray:
        index = self._index
        return index if index is not None else self.space.to_index(self.raw)

    @property
    def norm(self) -> Optional[np.ndarray]:
        norm = self._norm
        return norm if norm is not None else self.space.to_norm(self.index)

    # ------------------------------------------------------------------ records
    def record(self, row: int) -> FileMetadata:
        """Decode (once) the record in local row ``row``."""
        f = self._decoded.get(row)
        if f is None:
            f = self._decoded[row] = self.segment.record(self.start + row)
        return f

    def lookup(self, filename: str) -> List[FileMetadata]:
        """Name-hash prune over the mapping, then decode the candidates —
        no fault-in, no LRU churn."""
        hashes = self.segment.name_hashes(self.start, self.stop)
        candidates = np.nonzero(hashes == name_hash64(filename))[0].tolist()
        return [f for f in map(self.record, candidates) if f.filename == filename]

    def records(self) -> List[FileMetadata]:
        """Every row decoded, none of it kept."""
        return [
            self._decoded.get(row) or self.segment.record(self.start + row)
            for row in range(self.count)
        ]

    def writable(self) -> MemoryRows:
        # The raw rows are copied out of the mapping: the segment may be
        # purged while the in-memory block lives on.
        return MemoryRows(self.space, self.records(), np.array(self.raw))


def bind_segment(
    server: StorageServer, segment: Segment, row_range: Tuple[int, int]
) -> None:
    """Point ``server`` at its rows of a published segment, cold.  An empty
    range is an empty in-memory block: nothing to fault in or pin."""
    start, stop = row_range
    server.rows = (
        SegmentRows(server.space, segment, start, stop)
        if stop > start
        else MemoryRows(server.space)
    )
