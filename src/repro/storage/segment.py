"""Checksummed, immutable, mmap-able segment files (struct-of-arrays).

A *segment* is the on-disk unit of the tiered store: one first-level
semantic group's applied records, frozen at publish time.  The layout is
struct-of-arrays: a scan reads the columns it compares straight from the
mapping, and a record a query returns is rebuilt from its row — the
values from the matrix, the path from the blob, and no JSON at all
unless the record carries a remainder (:meth:`Segment.records`).

Version 2, the one written:

* two JSON header lines — the segment descriptor and a CRC line covering
  it (checksum-before-trust applies to the header too).  Besides counts
  and the unit table the descriptor holds ``columns``, the schema
  attribute names in matrix order, and ``keys``, the distinct
  attribute-key tuples of the rows in order of first appearance;
* ``file_ids``  — ``int64[N]``, row-aligned record identifiers;
* ``name_hash`` — ``int64[N]``, a 63-bit MD5 hash of each row's filename
  (point-query candidate pruning without building a record);
* ``matrix``    — ``float64[D, N]``, attribute-major (the layout
  ``MemoryRows`` keeps): one contiguous vector of raw values per schema
  attribute, the only copy of them in the file.  The index-space
  ``log1p`` transform is recomputed per scan, it is not baked in;
* ``key_index`` — ``int32[N]``, each row's index into ``keys``, so a
  rebuilt record's attributes come back in the live record's key order;
* ``path_len``  — ``int32[N]``, the UTF-8 length of each row's path;
* ``rec_offsets`` — ``int64[N + 1]``, byte offsets into the record blob;
* ``rec_blob``  — per row its path, then its *remainder*: empty when the
  record has no ``extra`` and no attribute outside the schema, else the
  compact JSON list ``[extra, value, ...]`` — ``extra`` and the values of
  the non-schema attributes, in key order.

Version 1 is read only: no ``columns`` / ``keys`` / ``key_index`` /
``path_len``, a row-major ``float64[N, D]`` matrix, and one
:func:`~repro.persistence.jsonl.file_to_dict` JSON document per row
(sorted keys) as the blob.  A v1 segment opens and answers through that
decode, it is never a carry source, and a root restored from v1 segments
rewrites every group as v2 at its first checkpoint.

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
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.cluster.node import StorageServer
from repro.metadata.file_metadata import FileMetadata
from repro.persistence.jsonl import file_from_dict

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
SEGMENT_VERSION = 2

_I4 = np.dtype("<i4")
_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")
#: A v1 row's two bounding blob offsets (``rec_offsets[row : row + 2]``).
_OFFSET_PAIR = struct.Struct("<2q")
#: Decoded remainders a segment keeps, keyed by their bytes.  Rows of one
#: project or tree share their ``extra``; only a flat one is kept, so that
#: a shallow copy gives each record its own.
_REMAINDER_MEMO = 256
_SCALARS = (str, int, float, bool, type(None))
#: The value types of a remainder ``write_segment`` encodes once per
#: distinct ``extra``: equal values of one of these types encode alike.
_FLAT = (str, int, bool, type(None))
#: ``json.loads`` / ``json.dumps`` without their per-call argument
#: handling; a remainder is compact and ASCII.
_decode_json = json.JSONDecoder().decode
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


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


def _data_bytes(version: int, count: int, dim: int, blob_len: int) -> int:
    """The binary section's size: the fixed-width columns plus the blob."""
    per_row = 8 + 8 + 8 * dim + 8 + (8 if version >= 2 else 0)
    return count * per_row + 8 + blob_len


def _remainder(
    record: FileMetadata, columns: Mapping[str, int], memo: Dict[Tuple[Any, ...], bytes]
) -> bytes:
    """A record's blob bytes after its path (see the module docstring).

    A *flat* remainder — no attribute outside the schema, an ``extra`` of
    ``str`` keys and ``str`` / ``int`` / ``bool`` / ``None`` values — is
    encoded once per distinct ``extra`` and kept in ``memo``, keyed by its
    keys, values and value types: equal keys encode to equal bytes (``1``
    and ``True`` differ by type, and a float is never kept: ``0.0 ==
    -0.0``)."""
    extra = record.extra
    if record.attributes.keys() <= columns.keys():
        if not extra:
            return b""
        values = tuple(extra.values())
        key = (tuple(extra), values, tuple(map(type, values)))
        try:
            encoded = memo.get(key)
        except TypeError:  # an unhashable (nested) value: not flat
            return _encode_json([extra]).encode("ascii")
        if encoded is None:
            encoded = _encode_json([extra]).encode("ascii")
            if all(kind in _FLAT for kind in key[2]) and all(type(k) is str for k in key[0]):
                memo[key] = encoded
        return encoded
    rest = [v for k, v in record.attributes.items() if k not in columns]
    return _encode_json([extra, *rest]).encode("ascii")


def _attribute_builder(
    keys: Tuple[str, ...], columns: Sequence[str]
) -> Callable[[List[float], List[Any]], Dict[str, float]]:
    """``build(values, rest)``: the attribute dict of a row whose key tuple
    is ``keys``, from ``values`` (its matrix row, schema order) and
    ``rest`` (its non-schema values, key order)."""
    position = {name: i for i, name in enumerate(columns)}
    picks: List[int] = []
    spare = len(columns)
    for key in keys:
        if key in position:
            picks.append(position[key])
        else:
            picks.append(spare)
            spare += 1
    if picks == list(range(len(columns))):
        return lambda values, rest: dict(zip(keys, values))

    def build(values: List[float], rest: List[Any]) -> Dict[str, float]:
        pool = values + [float(v) for v in rest]
        return dict(zip(keys, map(pool.__getitem__, picks)))

    return build


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
    """Write one group's records as an immutable (version 2) segment file.

    ``units`` is an ordered list of ``(unit_id, hosting server)`` pairs;
    rows are concatenated in that order, preserving each unit's row
    order (empty units get an empty row range — every unit of the group
    appears in the header).  The matrix block is each unit's own
    ``matrix()``, stored attribute-major.

    A row that ``carry`` resolves is copied — name hash, path length and
    blob bytes as slices of the older segment's mapping, consecutive rows
    in one slice, its key index remapped into this segment's table — and
    only the others are encoded (path and remainder) and hashed, read
    through ``records_at`` so a cold unit is never materialised.  The key
    table is numbered by first appearance in row order either way, so
    with or without anything to carry the bytes are the same.

    The file lands atomically: temp + fsync + rename, so a crash
    mid-write can never leave a half-segment under the final name.
    """
    path = Path(path)
    carry = carry if carry is not None else CarryIndex()
    names = tuple(schema.names)
    dim = len(names)
    columns = {name: i for i, name in enumerate(names)}
    # Key tuples numbered as first met (a carried run maps its source's
    # table in whole); renumbered by first appearance in row order below.
    keys: Dict[Tuple[str, ...], int] = {}
    unit_ranges: Dict[int, Tuple[int, int]] = {}
    ids_parts: List[np.ndarray] = [np.empty(0, dtype=_I8)]
    matrix_parts: List[np.ndarray] = [np.empty((dim, 0), dtype=_F8)]
    name_parts: List[np.ndarray] = [np.empty(0, dtype=_I8)]
    key_parts: List[np.ndarray] = [np.empty(0, dtype=_I8)]
    path_parts: List[np.ndarray] = [np.empty(0, dtype=_I8)]
    length_parts: List[np.ndarray] = [np.empty(0, dtype=_I8)]
    chunks: List[bytes] = []
    remainders: Dict[Tuple[Any, ...], bytes] = {}
    n = 0
    rows_carried = 0
    for unit_id, server in units:
        unit_ids = server.file_ids()
        unit_ranges[int(unit_id)] = (n, n + len(unit_ids))
        n += len(unit_ids)
        ids_parts.append(unit_ids)
        matrix_parts.append(server.matrix().T)
        source, source_row = carry.resolve(unit_ids)
        for a, b in _runs(source, source_row):
            if source[a] >= 0:
                old = carry.segments[source[a]]
                first, last = int(source_row[a]), int(source_row[a]) + (b - a)
                bounds = old.rec_offsets(first, last)
                remap = np.asarray(
                    [keys.setdefault(key, len(keys)) for key in old.keys], dtype=_I8
                )
                name_parts.append(old.name_hashes(first, last))
                key_parts.append(remap[old.key_indices(first, last)])
                path_parts.append(old.path_lengths(first, last))
                length_parts.append(np.diff(bounds))
                chunks.append(old.rec_bytes(int(bounds[0]), int(bounds[-1])))
                rows_carried += b - a
            else:
                records = server.records_at(range(a, b))
                paths = [f.path.encode("utf-8") for f in records]
                blobs = [p + _remainder(f, columns, remainders) for p, f in zip(paths, records)]
                name_parts.append(
                    np.asarray([name_hash64(f.filename) for f in records], dtype=_I8)
                )
                key_parts.append(
                    np.asarray(
                        [keys.setdefault(tuple(f.attributes), len(keys)) for f in records],
                        dtype=_I8,
                    )
                )
                path_parts.append(np.asarray([len(p) for p in paths], dtype=_I8))
                length_parts.append(np.asarray([len(x) for x in blobs], dtype=_I8))
                chunks.extend(blobs)

    key_ids = np.concatenate(key_parts)
    seen, first_row = np.unique(key_ids, return_index=True)
    in_row_order = seen[np.argsort(first_row)]
    rank = np.zeros(len(keys), dtype=_I4)
    rank[in_row_order] = np.arange(len(in_row_order), dtype=_I4)
    by_number = list(keys)
    offsets = np.zeros(n + 1, dtype=_I8)
    np.cumsum(np.concatenate(length_parts), out=offsets[1:])
    blob = b"".join(chunks)
    data = b"".join(
        (
            np.concatenate(ids_parts).astype(_I8, copy=False).tobytes(),
            np.concatenate(name_parts).tobytes(),
            np.concatenate(matrix_parts, axis=1).astype(_F8, copy=False).tobytes(),
            rank[key_ids].tobytes(),
            np.concatenate(path_parts).astype(_I4).tobytes(),
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
        "columns": list(names),
        "keys": [list(by_number[k]) for k in in_row_order.tolist()],
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
    :meth:`records` builds the records of the rows asked for.  Use
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
        self.version = int(header["version"])  # type: ignore[arg-type]
        self.group_id = int(header["group_id"])  # type: ignore[arg-type]
        self.count = int(header["count"])  # type: ignore[arg-type]
        self.dim = int(header["dim"])  # type: ignore[arg-type]
        self.data_crc = int(header["data_crc"])  # type: ignore[arg-type]
        self.units: Dict[int, Tuple[int, int]] = {
            int(uid): (int(rng[0]), int(rng[1]))
            for uid, rng in dict(header["units"]).items()  # type: ignore[arg-type]
        }
        n, dim = self.count, self.dim
        at = data_start

        def column(dtype: np.dtype, count: int) -> np.ndarray:
            nonlocal at
            view = np.frombuffer(mm, dtype=dtype, count=count, offset=at)
            at += dtype.itemsize * count
            return view

        self._ids = column(_I8, n)
        self._names = column(_I8, n)
        #: The ``(D, N)`` matrix, a view of the mapping in either layout.
        self._columns: np.ndarray
        if self.version == 1:
            self._columns = column(_F8, n * dim).reshape(n, dim).T
            #: The distinct attribute-key tuples (v2), and a builder each.
            self.keys: List[Tuple[str, ...]] = []
            self._builders: List[Callable[[List[float], List[Any]], Dict[str, float]]] = []
        else:
            self._columns = column(_F8, n * dim).reshape(dim, n)
            self._key_index = column(_I4, n)
            self._path_len = column(_I4, n)
            columns = [str(name) for name in header["columns"]]  # type: ignore[attr-defined]
            table: List[List[str]] = header["keys"]  # type: ignore[assignment]
            self.keys = [tuple(str(k) for k in key) for key in table]
            self._builders = [_attribute_builder(key, columns) for key in self.keys]
        self._remainders: Dict[bytes, Tuple[Dict[str, object], List[Any]]] = {}
        self._o_offsets = at
        self._offsets = column(_I8, n + 1)
        self._o_blob = at

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
        mode — missing file, short file, corrupt header, corrupt data,
        a version this code cannot read — raises
        :class:`SegmentCorruptError`.
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
            version = header.get("version")
            if version not in (1, SEGMENT_VERSION):
                raise SegmentCorruptError(f"{path}: unknown segment version {version!r}")
            data_len = int(header["data_len"])
            if data_len != _data_bytes(
                version, int(header["count"]), int(header["dim"]), int(header["blob_len"])
            ):
                raise SegmentCorruptError(f"{path}: header sizes disagree")
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
            segment = cls(path, header, data_start, fh, mm)
        except SegmentCorruptError:
            fh.close()
            raise
        except Exception as exc:
            fh.close()
            raise SegmentCorruptError(f"{path}: invalid segment ({exc})") from exc
        return segment

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
        return self._ids[start:stop]

    def name_hashes(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Row-aligned filename hashes, zero-copy from the map."""
        return self._names[start:stop]

    def matrix_rows(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Raw attribute rows ``[start, stop)`` as an ``(n, D)`` view (its
        columns contiguous in a v2 segment, strided in a v1 one)."""
        return self._columns[:, start:stop].T

    def key_indices(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)``'s indices into :attr:`keys` (v2)."""
        return self._key_index[start:stop]

    def path_lengths(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)``'s path lengths in bytes (v2)."""
        return self._path_len[start:stop]

    # ------------------------------------------------------------------ record blob
    def rec_offsets(self, start: int, stop: int) -> np.ndarray:
        """The ``stop - start + 1`` blob offsets bounding rows ``[start, stop)``."""
        return self._offsets[start : stop + 1]

    def rec_bytes(self, lo: int, hi: int) -> bytes:
        """Blob bytes ``[lo, hi)`` — whole rows, undecoded."""
        return self._mm[self._o_blob + lo : self._o_blob + hi]

    # ------------------------------------------------------------------ records
    def records(self, rows: Sequence[int]) -> List[FileMetadata]:
        """The records in ``rows`` (segment row numbers), in that order.

        One gather of the ids and matrix columns for the batch, then per
        row one slice of the blob for its path and remainder; a row
        without a remainder runs no JSON, nor does one whose remainder
        this segment has decoded before.  A v1 row decodes its JSON
        document instead."""
        if self.version == 1:
            return [self._v1_record(int(row)) for row in rows]
        if len(rows) == 0:
            return []
        at = np.asarray(rows, dtype=np.intp)
        mm, base, builders, remainders = self._mm, self._o_blob, self._builders, self._remainders
        out = []
        for file_id, values, key, path_len, lo, hi in zip(
            self._ids[at].tolist(),
            self._columns[:, at].T.tolist(),
            self._key_index[at].tolist(),
            self._path_len[at].tolist(),
            self._offsets[at].tolist(),
            self._offsets[at + 1].tolist(),
        ):
            lo += base
            cut = lo + path_len
            hi += base
            if cut == hi:
                extra: Dict[str, object] = {}
                rest: List[Any] = []
            else:
                remainder = mm[cut:hi]
                known = remainders.get(remainder)
                if known is not None:
                    extra, rest = dict(known[0]), known[1]
                else:
                    extra, *rest = _decode_json(remainder.decode("ascii"))
                    if len(remainders) < _REMAINDER_MEMO and all(
                        type(v) in _SCALARS for v in extra.values()
                    ):
                        remainders[remainder] = (dict(extra), rest)
            out.append(
                FileMetadata.from_fields(
                    mm[lo:cut].decode("utf-8"), builders[key](values, rest), file_id, extra
                )
            )
        return out

    def named(self, rows: Sequence[int], filename: str) -> List[FileMetadata]:
        """The records among ``rows`` whose filename is ``filename``.  A v2
        row's path bytes are compared before its record is built."""
        if self.version == 1:
            return [f for f in self.records(rows) if f.filename == filename]
        want = filename.encode("utf-8")
        mm, base = self._mm, self._o_blob
        offsets, path_len = self._offsets, self._path_len
        hits = []
        for row in rows:
            lo = base + int(offsets[row])
            if mm[lo : lo + int(path_len[row])].rsplit(b"/", 1)[-1] == want:
                hits.append(row)
        return self.records(hits)

    def _v1_record(self, row: int) -> FileMetadata:
        lo, hi = _OFFSET_PAIR.unpack_from(self._mm, self._o_offsets + 8 * row)
        text = self._mm[self._o_blob + lo : self._o_blob + hi].decode("utf-8")
        return file_from_dict(_decode_json(text))

    def size_bytes(self) -> int:
        return self._mm.size()

    def __repr__(self) -> str:
        return (
            f"Segment(name={self.path.name!r}, version={self.version}, "
            f"group={self.group_id}, rows={self.count}, units={len(self.units)})"
        )


class CarryIndex:
    """``file_id -> (segment, row)`` over the segments a publish may copy from.

    ``segments`` must be open and trusted (CRC-verified at open, or
    written by this process); ``changed`` are the ids whose stored row is
    stale.  Those, and any id stored more than once, never resolve — so a
    resolved row's bytes are exactly what encoding the live record would
    produce.  A segment of an older version (another layout) is never a
    source.  The default instance resolves nothing.
    """

    def __init__(
        self, segments: Sequence[Segment] = (), changed: Iterable[int] = ()
    ) -> None:
        self.segments = [s for s in segments if s.version == SEGMENT_VERSION]
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
