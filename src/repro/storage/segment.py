"""Checksummed, immutable, mmap-able segment files (struct-of-arrays).

A *segment* is the on-disk unit of the tiered store: one first-level
semantic group's applied records, frozen at publish time.  The layout is
struct-of-arrays so that an evicted group can answer scans straight from
the mapping without deserialising a single JSON record:

* two JSON header lines — the segment descriptor and a CRC line covering
  it (checksum-before-trust applies to the header too);
* ``file_ids``  — ``int64[N]``, row-aligned record identifiers;
* ``name_hash`` — ``int64[N]``, a 63-bit MD5 hash of each row's filename
  (point-query candidate pruning without record decode);
* ``matrix``    — ``float64[N, D]``, the raw attribute rows in schema
  order (sizes, timestamps, access counts — everything scans filter on;
  the index-space ``log1p`` transform is recomputed on fault-in, it is
  not baked into the file);
* ``rec_offsets`` — ``int64[N + 1]``, byte offsets into the record blob;
* ``rec_blob``  — concatenated per-record JSON (the exact
  :func:`~repro.persistence.jsonl.file_to_dict` payload), decoded only
  for rows a query actually returns.

Rows are grouped by storage unit: the header's ``units`` table maps each
unit id to its contiguous ``[start, stop)`` row range, in the exact order
the live server held its files — so a later materialisation reproduces
the in-memory file list byte for byte.

Durability contract: a segment is written to a temp file, fsynced and
renamed into place, and never modified afterwards (a new publish writes a
new generation under a new name).  ``data_crc`` covers the entire binary
section and the header line carries its own CRC, so *any* single-byte
corruption or truncation is detected at open time and surfaces as
:class:`SegmentCorruptError` — never as a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.node import StorageServer
from repro.metadata.file_metadata import FileMetadata
from repro.persistence.jsonl import file_from_dict, file_to_dict

__all__ = [
    "SEGMENT_FORMAT",
    "SEGMENT_VERSION",
    "SegmentCorruptError",
    "SegmentInfo",
    "Segment",
    "CarryIndex",
    "write_segment",
    "name_hash64",
]

PathLike = Union[str, Path]

SEGMENT_FORMAT = "repro.segment"
SEGMENT_VERSION = 1

_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")
#: A row's two bounding blob offsets (``rec_offsets[row : row + 2]``).
_OFFSET_PAIR = struct.Struct("<2q")
#: ``json.loads`` without its per-call argument handling (a record is
#: always one UTF-8 JSON object).
_decode_json = json.JSONDecoder().decode


class SegmentCorruptError(ValueError):
    """A segment file failed validation (checksum mismatch, truncation,
    unparseable header).  The caller quarantines the file and falls back
    to WAL replay for the affected group — corruption must never produce
    a wrong answer or a hang."""


def name_hash64(filename: str) -> int:
    """Stable 63-bit hash of a filename (point-query row pruning).

    Uses the *upper* eight MD5 digest bytes so it is independent of
    :func:`~repro.metadata.file_metadata.make_file_id`, which uses the
    lower eight: a pathological id collision cannot also be a name-hash
    collision.
    """
    digest = hashlib.md5(filename.encode("utf-8")).digest()
    return int.from_bytes(digest[8:16], "little") & 0x7FFFFFFFFFFFFFFF


@dataclass(frozen=True)
class SegmentInfo:
    """What the manifest records about one written segment."""

    name: str
    group_id: int
    count: int
    size_bytes: int
    data_crc: int
    units: Dict[int, Tuple[int, int]]
    #: Rows copied from an older segment instead of re-encoded (not in
    #: the manifest: it describes the write, not the file).
    rows_carried: int = 0


def write_segment(
    path: PathLike,
    group_id: int,
    units: Sequence[Tuple[int, StorageServer]],
    schema: Any,
    carry: Optional["CarryIndex"] = None,
) -> SegmentInfo:
    """Write one group's records as an immutable segment file.

    ``units`` is an ordered list of ``(unit_id, hosting server)`` pairs;
    rows are concatenated in that order, preserving each unit's row
    order (empty units get an empty row range — every unit of the group
    appears in the header).  The raw matrix block is each unit's own
    ``matrix()``.

    A row that ``carry`` resolves is copied — name hash and record bytes
    as slices of the older segment's mapping, consecutive rows in one
    slice — and only the others are JSON-encoded and hashed, read through
    ``record_at`` so a cold unit is never materialised.  With nothing to
    carry every row is encoded: the bytes are the same either way.

    The file lands atomically: temp + fsync + rename, so a crash
    mid-write can never leave a half-segment under the final name.
    """
    path = Path(path)
    carry = carry if carry is not None else CarryIndex()
    dim = int(schema.dimension)
    unit_ranges: Dict[int, Tuple[int, int]] = {}
    ids_parts: List[np.ndarray] = [np.empty(0, dtype=_I8)]
    matrix_parts: List[np.ndarray] = [np.empty((0, dim), dtype=_F8)]
    name_parts: List[np.ndarray] = [np.empty(0, dtype=_I8)]
    length_parts: List[np.ndarray] = [np.empty(0, dtype=_I8)]
    chunks: List[bytes] = []
    n = 0
    rows_carried = 0
    for unit_id, server in units:
        unit_ids = server.file_ids()
        unit_ranges[int(unit_id)] = (n, n + len(unit_ids))
        n += len(unit_ids)
        ids_parts.append(unit_ids)
        matrix_parts.append(server.matrix())
        source, source_row = carry.resolve(unit_ids)
        for a, b in _runs(source, source_row):
            if source[a] >= 0:
                old = carry.segments[source[a]]
                first = int(source_row[a])
                bounds = old.rec_offsets(first, first + (b - a))
                name_parts.append(old.name_hashes(first, first + (b - a)))
                length_parts.append(np.diff(bounds))
                chunks.append(old.rec_bytes(int(bounds[0]), int(bounds[-1])))
                rows_carried += b - a
            else:
                records = [server.record_at(row) for row in range(a, b)]
                blobs = [
                    json.dumps(file_to_dict(f), sort_keys=True).encode("utf-8")
                    for f in records
                ]
                name_parts.append(
                    np.asarray([name_hash64(f.filename) for f in records], dtype=_I8)
                )
                length_parts.append(np.asarray([len(x) for x in blobs], dtype=_I8))
                chunks.extend(blobs)

    offsets = np.zeros(n + 1, dtype=_I8)
    np.cumsum(np.concatenate(length_parts), out=offsets[1:])
    blob = b"".join(chunks)
    data = b"".join(
        (
            np.concatenate(ids_parts).astype(_I8, copy=False).tobytes(),
            np.concatenate(name_parts).tobytes(),
            np.concatenate(matrix_parts).astype(_F8, copy=False).tobytes(),
            offsets.tobytes(),
            blob,
        )
    )
    data_crc = zlib.crc32(data) & 0xFFFFFFFF
    header: Dict[str, object] = {
        "format": SEGMENT_FORMAT,
        "version": SEGMENT_VERSION,
        "group_id": int(group_id),
        "count": n,
        "dim": dim,
        "units": {str(uid): [a, b] for uid, (a, b) in unit_ranges.items()},
        "data_len": len(data),
        "blob_len": len(blob),
        "data_crc": data_crc,
    }
    line1 = json.dumps(header, sort_keys=True).encode("utf-8")
    line2 = json.dumps({"header_crc": zlib.crc32(line1) & 0xFFFFFFFF}).encode("utf-8")
    payload = line1 + b"\n" + line2 + b"\n" + data

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return SegmentInfo(
        name=path.name,
        group_id=int(group_id),
        count=n,
        size_bytes=len(payload),
        data_crc=data_crc,
        units=unit_ranges,
        rows_carried=rows_carried,
    )


def _runs(source: np.ndarray, source_row: np.ndarray) -> List[Tuple[int, int]]:
    """Split rows into maximal ``[a, b)`` runs that are either all
    unresolved or consecutive rows of one source segment."""
    n = len(source)
    if n == 0:
        return []
    breaks = np.flatnonzero(
        (source[1:] != source[:-1])
        | ((source[1:] >= 0) & (source_row[1:] != source_row[:-1] + 1))
    )
    bounds = [0, *(breaks + 1).tolist(), n]
    return list(zip(bounds[:-1], bounds[1:]))


class Segment:
    """A validated, memory-mapped, read-only view of one segment file.

    Array accessors return zero-copy views backed by the mapping;
    :meth:`record` decodes exactly one row's JSON payload.  Use
    :meth:`open` — the constructor trusts its arguments.
    """

    def __init__(
        self,
        path: Path,
        header: Dict[str, object],
        data_start: int,
        fh: Any,
        mm: mmap.mmap,
    ) -> None:
        self.path = path
        self.header = header
        self._fh = fh
        self._mm = mm
        self.group_id = int(header["group_id"])  # type: ignore[arg-type]
        self.count = int(header["count"])  # type: ignore[arg-type]
        self.dim = int(header["dim"])  # type: ignore[arg-type]
        self.data_crc = int(header["data_crc"])  # type: ignore[arg-type]
        self.units: Dict[int, Tuple[int, int]] = {
            int(uid): (int(rng[0]), int(rng[1]))
            for uid, rng in dict(header["units"]).items()  # type: ignore[arg-type]
        }
        n = self.count
        self._o_ids = data_start
        self._o_names = self._o_ids + 8 * n
        self._o_matrix = self._o_names + 8 * n
        self._o_offsets = self._o_matrix + 8 * n * self.dim
        self._o_blob = self._o_offsets + 8 * (n + 1)

    # ------------------------------------------------------------------ lifecycle
    @classmethod
    def open(
        cls,
        path: PathLike,
        *,
        expected_crc: Optional[int] = None,
        verify: bool = True,
    ) -> "Segment":
        """Map a segment file, validating checksum-before-trust.

        ``verify=True`` (the recovery default) runs the full data CRC;
        ``expected_crc`` cross-checks the manifest's record of the
        segment against the file actually found on disk.  Every failure
        mode — missing file, short file, corrupt header, corrupt data —
        raises :class:`SegmentCorruptError`.
        """
        path = Path(path)
        try:
            fh = path.open("rb")
        except OSError as exc:
            raise SegmentCorruptError(f"{path}: cannot open segment ({exc})") from exc
        try:
            line1 = fh.readline()
            line2 = fh.readline()
            data_start = fh.tell()
            if not line1.endswith(b"\n") or not line2.endswith(b"\n"):
                raise SegmentCorruptError(f"{path}: truncated segment header")
            try:
                header = json.loads(line1)
                crc_line = json.loads(line2)
            except ValueError as exc:
                raise SegmentCorruptError(
                    f"{path}: unparseable segment header ({exc})"
                ) from exc
            if int(crc_line.get("header_crc", -1)) != (
                zlib.crc32(line1[:-1]) & 0xFFFFFFFF
            ):
                raise SegmentCorruptError(f"{path}: segment header CRC mismatch")
            if header.get("format") != SEGMENT_FORMAT:
                raise SegmentCorruptError(
                    f"{path}: not a segment (format={header.get('format')!r})"
                )
            data_len = int(header["data_len"])
            size = path.stat().st_size
            if size != data_start + data_len:
                raise SegmentCorruptError(
                    f"{path}: expected {data_start + data_len} bytes, found {size}"
                )
            if expected_crc is not None and int(header["data_crc"]) != int(expected_crc):
                raise SegmentCorruptError(
                    f"{path}: manifest expects data_crc={expected_crc}, "
                    f"header claims {header['data_crc']}"
                )
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            if verify:
                actual = zlib.crc32(mm[data_start : data_start + data_len]) & 0xFFFFFFFF
                if actual != int(header["data_crc"]):
                    mm.close()
                    raise SegmentCorruptError(
                        f"{path}: data CRC mismatch "
                        f"(header={header['data_crc']}, actual={actual})"
                    )
        except SegmentCorruptError:
            fh.close()
            raise
        except Exception as exc:
            fh.close()
            raise SegmentCorruptError(f"{path}: invalid segment ({exc})") from exc
        return cls(path, header, data_start, fh, mm)

    def close(self) -> None:
        """Close the file; the mapping is unmapped when the last reference
        to it goes (this segment, a block over it, a view into it).

        A publish retires segments while readers on other threads may
        still hold a block over one, or a numpy view into it: unmapping
        here would fail this call (``BufferError``) or their next read
        (``ValueError``)."""
        self._fh.close()

    # ------------------------------------------------------------------ array views
    def file_ids(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Row-aligned file ids, ``[start, stop)``, zero-copy from the map."""
        stop = self.count if stop is None else stop
        return np.frombuffer(
            self._mm, dtype=_I8, count=stop - start, offset=self._o_ids + 8 * start
        )

    def name_hashes(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Row-aligned filename hashes, zero-copy from the map."""
        stop = self.count if stop is None else stop
        return np.frombuffer(
            self._mm, dtype=_I8, count=stop - start, offset=self._o_names + 8 * start
        )

    def matrix_rows(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Raw attribute rows ``[start, stop)`` as an ``(n, D)`` view."""
        stop = self.count if stop is None else stop
        flat = np.frombuffer(
            self._mm,
            dtype=_F8,
            count=(stop - start) * self.dim,
            offset=self._o_matrix + 8 * self.dim * start,
        )
        return flat.reshape(stop - start, self.dim)

    # ------------------------------------------------------------------ record blob
    def rec_offsets(self, start: int, stop: int) -> np.ndarray:
        """The ``stop - start + 1`` blob offsets bounding rows ``[start, stop)``."""
        return np.frombuffer(
            self._mm,
            dtype=_I8,
            count=stop - start + 1,
            offset=self._o_offsets + 8 * start,
        )

    def rec_bytes(self, lo: int, hi: int) -> bytes:
        """Blob bytes ``[lo, hi)`` — whole encoded records, undecoded."""
        return self._mm[self._o_blob + lo : self._o_blob + hi]

    def record(self, row: int) -> FileMetadata:
        """Decode exactly one row's metadata record from the blob."""
        lo, hi = _OFFSET_PAIR.unpack_from(self._mm, self._o_offsets + 8 * row)
        text = self._mm[self._o_blob + lo : self._o_blob + hi].decode("utf-8")
        return file_from_dict(_decode_json(text))

    def size_bytes(self) -> int:
        return self._mm.size()

    def __repr__(self) -> str:
        return (
            f"Segment(name={self.path.name!r}, group={self.group_id}, "
            f"rows={self.count}, units={len(self.units)})"
        )


class CarryIndex:
    """``file_id -> (segment, row)`` over the segments a publish may copy from.

    ``segments`` must be open and trusted (CRC-verified at open, or
    written by this process); ``changed`` are the ids whose stored row is
    stale.  Those, and any id stored more than once, never resolve — so a
    resolved row's bytes are exactly what encoding the live record would
    produce.  The default instance resolves nothing.
    """

    def __init__(
        self, segments: Sequence[Segment] = (), changed: Iterable[int] = ()
    ) -> None:
        self.segments = list(segments)
        counts = [segment.count for segment in self.segments]
        ids = np.concatenate(
            [np.empty(0, dtype=_I8)] + [segment.file_ids() for segment in self.segments]
        )
        source = np.repeat(np.arange(len(counts), dtype=_I8), counts)
        row = np.concatenate(
            [np.empty(0, dtype=_I8)] + [np.arange(c, dtype=_I8) for c in counts]
        )
        order = np.argsort(ids, kind="stable")
        ids, source, row = ids[order], source[order], row[order]
        again = ids[1:] == ids[:-1]
        keep = ~np.isin(ids, np.fromiter(changed, dtype=_I8))
        keep[1:] &= ~again
        keep[:-1] &= ~again
        self._ids, self._source, self._row = ids[keep], source[keep], row[keep]

    def resolve(self, file_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Row-aligned ``(index into segments or -1, row in that segment)``."""
        if self._ids.size == 0:
            return np.full(len(file_ids), -1, dtype=_I8), np.zeros(len(file_ids), dtype=_I8)
        at = np.searchsorted(self._ids, file_ids)
        at[at == self._ids.size] = 0
        hit = self._ids[at] == file_ids
        return np.where(hit, self._source[at], -1), self._row[at]
