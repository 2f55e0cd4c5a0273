"""The segment row block: a unit's rows read from an mmap'd segment.

:class:`SegmentRows` is the published counterpart of
:class:`~repro.cluster.node.MemoryRows` — the same row-block interface a
:class:`~repro.cluster.node.StorageServer` scans, over rows
``[start, stop)`` of an immutable :class:`~repro.storage.segment.Segment`.
A unit's state is which block it holds:

* **cold** — a :class:`SegmentRows`: nothing but the row range is in RAM.
  Every read takes what it needs from the mapping as it is: a range the
  raw columns it compares, a lookup the name hashes, a top-k the columns
  it queries, normalised for that scan only;
* **materialised** — the unit swapped this block for its ``writable()``
  form, a :class:`~repro.cluster.node.MemoryRows` (one full decode),
  until the next publish rebinds it cold.

In either state a record is built on demand from its row (the
segment's batch builder, :meth:`~repro.storage.segment.Segment.records`),
each time a query returns it, and never kept.  A segment block is never
edited: a publish builds a fresh one.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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

    # ------------------------------------------------------------------ arrays
    @property
    def ids(self) -> np.ndarray:
        return self.segment.file_ids(self.start, self.stop)

    @property
    def raw(self) -> np.ndarray:
        """The mapping's ``(n, D)`` view: contiguous columns in a v2
        segment (attribute-major), strided ones in a v1 segment."""
        return self.segment.matrix_rows(self.start, self.stop)

    def norm_columns(self, attr_indices: Sequence[int]) -> List[np.ndarray]:
        """Only the columns a top-k queries, normalised from the mapping."""
        return self.space.norm_columns(self.raw.T, attr_indices)

    # ------------------------------------------------------------------ records
    def record(self, row: int) -> FileMetadata:
        """The record in local row ``row``."""
        return self.segment.records((self.start + row,))[0]

    def records_at(self, rows: Sequence[int]) -> List[FileMetadata]:
        """The records in local rows ``rows``, built in one batch."""
        start = self.start
        return self.segment.records([start + row for row in rows])

    def lookup(self, filename: str) -> List[FileMetadata]:
        """Name-hash prune over the mapping, then build only the candidates
        whose path ends in ``filename``."""
        hashes = self.segment.name_hashes(self.start, self.stop)
        candidates = np.flatnonzero(hashes == name_hash64(filename)) + self.start
        return self.segment.named(candidates.tolist(), filename)

    def records(self) -> List[FileMetadata]:
        """Every row built, none of it kept."""
        return self.segment.records(range(self.start, self.stop))

    def writable(self) -> MemoryRows:
        # The raw rows are copied out of the mapping: the segment may be
        # purged while the in-memory block lives on.
        return MemoryRows(self.space, self.records(), np.array(self.raw))


def bind_segment(
    server: StorageServer, segment: Segment, row_range: Tuple[int, int]
) -> None:
    """Point ``server`` at its rows of a published segment, cold.  An empty
    range is an empty in-memory block: nothing to read or pin."""
    start, stop = row_range
    server.rows = (
        SegmentRows(server.space, segment, start, stop)
        if stop > start
        else MemoryRows(server.space)
    )
