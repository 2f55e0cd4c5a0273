"""The segment row block: a unit's rows read from an mmap'd segment.

:class:`SegmentRows` is the published counterpart of
:class:`~repro.cluster.node.MemoryRows` — the same row-block interface a
:class:`~repro.cluster.node.StorageServer` scans, over rows
``[start, stop)`` of an immutable :class:`~repro.storage.segment.Segment`.
What used to be three server states is which block a unit holds and
whether that block's arrays are cached:

* **cold** — nothing but the row range is in RAM; the arrays are views of
  (or transforms recomputed from) the mapping.  Ranges and lookups read a
  block as it is, so they never leave this state;
* **resident** — a top-k scan asked the
  :class:`~repro.storage.store.SegmentStore` LRU, which ``load()``-ed the
  ids and attribute-major raw/norm matrices, and ``drop()``s them when the
  group is evicted;
* **materialised** — the unit swapped this block for its ``writable()``
  form, a :class:`~repro.cluster.node.MemoryRows` (one full decode), and
  stays out of the LRU until the next publish rebinds it.

In either state a JSON record is decoded on demand, each time a query
returns its row, and never kept.  A segment block is never edited: a
publish builds a fresh one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.node import IndexSpace, MemoryRows, StorageServer, attribute_major
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
        self._raw: Optional[np.ndarray] = None
        self._norm: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ residency
    @property
    def cached(self) -> bool:
        return self._raw is not None

    def load(self) -> None:
        """Fault the arrays into RAM (called by the LRU)."""
        if self._raw is None:
            self._ids = np.array(self.segment.file_ids(self.start, self.stop))
            raw = attribute_major(self.raw)
            self._norm = self.space.to_norm(raw)
            self._raw = raw

    def drop(self) -> None:
        self._ids = self._raw = self._norm = None

    renormalise = drop  # new bounds: whatever is cached is recomputed on demand

    # ------------------------------------------------------------------ arrays
    @property
    def ids(self) -> np.ndarray:
        ids = self._ids
        return ids if ids is not None else self.segment.file_ids(self.start, self.stop)

    @property
    def raw(self) -> np.ndarray:
        raw = self._raw  # attribute-major; cold, the mapping's row-major view
        if raw is not None:
            return raw
        return np.asarray(self.segment.matrix_rows(self.start, self.stop), dtype=np.float64)

    @property
    def norm(self) -> Optional[np.ndarray]:
        norm = self._norm
        return norm if norm is not None else self.space.to_norm(self.raw)

    # ------------------------------------------------------------------ records
    def record(self, row: int) -> FileMetadata:
        """Decode the record in local row ``row``."""
        return self.segment.record(self.start + row)

    def lookup(self, filename: str) -> List[FileMetadata]:
        """Name-hash prune over the mapping, then decode the candidates —
        no fault-in, no LRU churn."""
        hashes = self.segment.name_hashes(self.start, self.stop)
        candidates = np.nonzero(hashes == name_hash64(filename))[0].tolist()
        return [f for f in map(self.record, candidates) if f.filename == filename]

    def records(self) -> List[FileMetadata]:
        """Every row decoded, none of it kept."""
        return [self.segment.record(row) for row in range(self.start, self.stop)]

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
