"""The wire protocol of the network front door.

Remote clients talk to the :class:`~repro.server.server.StoreServer`
with it; there is exactly one serialisation of every API type in the
system.

Framing
-------
A *frame* is a 4-byte big-endian unsigned length followed by that many
payload bytes.  The payload is one JSON object (:class:`WireCodec`, the
only codec).  Frames above :data:`MAX_FRAME_BYTES` are rejected *before*
the payload is read, so an attacker-supplied length cannot balloon server
memory; empty frames and truncated streams surface as
:class:`ProtocolError` / :class:`ConnectionClosed`, never as a hang.

Envelopes
---------
Every request carries a client-chosen ``id`` and an ``op``::

    {"id": 7, "op": "query", "query": {...}, "options": {...}}

and every reply echoes the id::

    {"id": 7, "ok": true, ...}                       # success
    {"id": 7, "ok": false, "error": {"type": "InvalidCursorError",
                                     "message": "..."}}

A reply to an unparseable request uses ``"id": null``.  The ``type``
field names the exception class; :func:`raise_remote_error` re-raises
the well-known API exceptions (:class:`InvalidCursorError`,
:class:`DeadlineExceededError`, ...) as themselves on the client side so
remote error handling is written exactly like local error handling.

Record blocks
-------------
A list of :class:`~repro.metadata.file_metadata.FileMetadata` — a
result's or a page's ``files``, the one record of a ``mutate`` — travels
as one *record block* (:func:`records_to_wire`), not one object per
record::

    {"paths": [...], "ids": [...],          # JSON lists, one entry a record
     "names": [["size", "mtime", ...]],     # distinct attribute-key tuples
     "schema": [0, 0, ...],                 # each record's index into names
     "values": "<base64>",                  # every attribute value, packed
     "extra": [{}, ...]}

Ids stay JSON integers (a caller-supplied ``file_id`` may be any int),
and a record's attribute keys keep their order.  ``distances`` are packed
the same way as ``values``.

Losslessness
------------
The serialisation of :class:`~repro.api.response.Response` (and the
:class:`~repro.core.queries.QueryResult` / ResultPage / MutationReceipt
payloads inside it) round-trips every client-observable field exactly:
attribute values and distances travel as packed little-endian IEEE-754
float64, bit for bit (NaN payloads, signed zeros and subnormals
included), and the other floats as JSON numbers, which CPython prints
and parses with shortest-round-trip semantics — so a deserialised result
equals the local one field for field, the property the remote
equivalence suites gate on.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
import sys
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.cursor import InvalidCursorError
from repro.api.options import (
    DeadlineExceededError,
    PartialResultError,
    RequestOptions,
)
from repro.api.response import Response, ResultPage
from repro.cluster.metrics import Metrics
from repro.core.queries import QueryResult
from repro.ingest.pipeline import MutationReceipt
from repro.metadata.file_metadata import FileMetadata
from repro.service.admission import ServiceOverloadedError
from repro.workloads.types import PointQuery, Query, RangeQuery, TopKQuery

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ConnectionClosed",
    "ProtocolError",
    "RemoteError",
    "WireCodec",
    "error_envelope",
    "options_from_wire",
    "options_to_wire",
    "query_from_wire",
    "query_to_wire",
    "raise_remote_error",
    "read_frame",
    "read_frame_bytes",
    "records_from_wire",
    "records_to_wire",
    "response_from_wire",
    "response_to_wire",
    "result_from_wire",
    "result_to_wire",
    "write_frame",
]

#: 2: records and distances travel as packed record blocks (1: one JSON
#: object per record).
PROTOCOL_VERSION = 2

#: Hard ceiling on one frame's payload size.  Large enough for any result
#: page the benches produce, small enough that a hostile length prefix
#: cannot make the server allocate unbounded memory.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LENGTH = struct.Struct("!I")

class ProtocolError(ValueError):
    """The peer sent bytes that are not a well-formed protocol frame
    (oversized length, empty frame, undecodable payload, bad envelope)."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (possibly mid-frame)."""


class RemoteError(RuntimeError):
    """A server-side failure without a well-known local exception class."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.remote_message = message


class WireCodec:
    """Payload (de)serialisation behind the length-prefixed framing: JSON,
    the one codec (``name`` is accepted for ``"json"`` only)."""

    def __init__(self, name: str = "json") -> None:
        if name != "json":
            raise ValueError(f"unknown codec {name!r}")
        # Held for the codec's life: json.dumps only reuses its cached
        # encoder for the default separators, and builds one per call here;
        # json.loads re-checks its keyword arguments on every call.
        self._json = json.JSONEncoder(separators=(",", ":"))
        self._decoder = json.JSONDecoder()

    def encode(self, payload: Dict[str, Any]) -> bytes:
        return self._json.encode(payload).encode("utf-8")

    def decode(self, raw: bytes) -> Dict[str, Any]:
        try:
            payload = self._decoder.decode(raw.decode("utf-8"))
        except Exception as exc:
            raise ProtocolError(f"undecodable json payload: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"protocol payload must be an object, got {type(payload).__name__}"
            )
        return payload


# ---------------------------------------------------------------------------- framing
def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionClosed`."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection with {remaining} of {n} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_bytes(
    sock: socket.socket, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Read one frame's payload, undecoded (its length is what arrived).

    Raises :class:`ProtocolError` / :class:`ConnectionClosed`.  The length
    prefix is validated before any payload byte is read, so an oversized or
    zero length costs nothing and never blocks.
    """
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length == 0:
        raise ProtocolError("empty frame (zero-length payload)")
    if length > max_frame_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame_bytes}-byte limit"
        )
    return _recv_exact(sock, length)


def read_frame(
    sock: socket.socket,
    codec: WireCodec,
    *,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> Dict[str, Any]:
    """Read and decode one frame (see :func:`read_frame_bytes`)."""
    return codec.decode(read_frame_bytes(sock, max_frame_bytes=max_frame_bytes))


def write_frame(
    sock: socket.socket,
    payload: Dict[str, Any],
    codec: WireCodec,
    *,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> int:
    """Serialise and send one frame; returns the payload size in bytes."""
    raw = codec.encode(payload)
    if len(raw) > max_frame_bytes:
        raise ProtocolError(
            f"outgoing frame of {len(raw)} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    sock.sendall(_LENGTH.pack(len(raw)) + raw)
    return len(raw)


# ---------------------------------------------------------------------------- error envelopes
#: Exception classes a server-side failure may legitimately surface to the
#: remote caller as *itself* (everything else becomes a RemoteError).
_KNOWN_ERRORS = {
    "InvalidCursorError": InvalidCursorError,
    "DeadlineExceededError": DeadlineExceededError,
    "PartialResultError": PartialResultError,
    "ServiceOverloadedError": ServiceOverloadedError,
    "ProtocolError": ProtocolError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
}


def error_envelope(request_id: Optional[int], exc: BaseException) -> Dict[str, Any]:
    """The reply frame for a failed request (or an unparseable one)."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def raise_remote_error(error: Dict[str, Any]) -> "None":
    """Re-raise a server-side error locally, as its own class when known."""
    error_type = str(error.get("type", "RemoteError"))
    message = str(error.get("message", ""))
    cls = _KNOWN_ERRORS.get(error_type)
    if cls is not None:
        raise cls(message)
    raise RemoteError(error_type, message)


# ---------------------------------------------------------------------------- queries
def query_to_wire(query: Query) -> Dict[str, Any]:
    if isinstance(query, PointQuery):
        return {"type": "point", "filename": query.filename}
    if isinstance(query, RangeQuery):
        return {
            "type": "range",
            "attributes": list(query.attributes),
            "lower": list(query.lower),
            "upper": list(query.upper),
        }
    if isinstance(query, TopKQuery):
        return {
            "type": "topk",
            "attributes": list(query.attributes),
            "values": list(query.values),
            "k": query.k,
        }
    raise TypeError(f"unsupported query type {type(query)!r}")


def query_from_wire(payload: Dict[str, Any]) -> Query:
    try:
        kind = payload["type"]
        if kind == "point":
            return PointQuery(str(payload["filename"]))
        if kind == "range":
            return RangeQuery(
                tuple(str(a) for a in payload["attributes"]),
                tuple(float(v) for v in payload["lower"]),
                tuple(float(v) for v in payload["upper"]),
            )
        if kind == "topk":
            return TopKQuery(
                tuple(str(a) for a in payload["attributes"]),
                tuple(float(v) for v in payload["values"]),
                int(payload["k"]),
            )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed query payload: {exc}") from exc
    raise ProtocolError(f"unknown query type {payload.get('type')!r}")


# ---------------------------------------------------------------------------- options
def options_to_wire(options: Optional[RequestOptions]) -> Optional[Dict[str, Any]]:
    if options is None:
        return None
    return {
        "deadline_s": options.deadline_s,
        "on_deadline": options.on_deadline,
        "consistency": options.consistency,
        "max_staleness": options.max_staleness,
        "page_size": options.page_size,
        "cursor": options.cursor,
        "trace_id": options.trace_id,
        "trace_parent": options.trace_parent,
    }


def _tolerant_trace_field(value: Any) -> Optional[str]:
    """Trace correlation ids degrade to None on malformation, never raise:
    a peer corrupting telemetry headers must not be able to fail requests."""
    if (
        isinstance(value, str)
        and 0 < len(value) <= 128
        and value.isprintable()
    ):
        return value
    return None


def options_from_wire(payload: Optional[Dict[str, Any]]) -> Optional[RequestOptions]:
    if payload is None:
        return None
    try:
        return RequestOptions(
            deadline_s=(
                None if payload.get("deadline_s") is None
                else float(payload["deadline_s"])
            ),
            on_deadline=str(payload.get("on_deadline", "partial")),
            consistency=str(payload.get("consistency", "primary")),
            max_staleness=int(payload.get("max_staleness", 0)),
            page_size=(
                None if payload.get("page_size") is None
                else int(payload["page_size"])
            ),
            cursor=(
                None if payload.get("cursor") is None else str(payload["cursor"])
            ),
            trace_id=_tolerant_trace_field(payload.get("trace_id")),
            trace_parent=_tolerant_trace_field(payload.get("trace_parent")),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed request options: {exc}") from exc


# ---------------------------------------------------------------------------- metrics
def metrics_to_wire(metrics: Metrics) -> Dict[str, Any]:
    return {
        "messages": metrics.messages,
        "units_visited": sorted(metrics.units_visited),
        "memory_index_accesses": metrics.memory_index_accesses,
        "disk_index_accesses": metrics.disk_index_accesses,
        "memory_records_scanned": metrics.memory_records_scanned,
        "disk_records_scanned": metrics.disk_records_scanned,
        "bloom_probes": metrics.bloom_probes,
    }


def metrics_from_wire(payload: Dict[str, Any]) -> Metrics:
    metrics = Metrics()
    metrics.messages = int(payload.get("messages", 0))
    metrics.units_visited = {int(u) for u in payload.get("units_visited", ())}
    metrics.memory_index_accesses = int(payload.get("memory_index_accesses", 0))
    metrics.disk_index_accesses = int(payload.get("disk_index_accesses", 0))
    metrics.memory_records_scanned = int(payload.get("memory_records_scanned", 0))
    metrics.disk_records_scanned = int(payload.get("disk_records_scanned", 0))
    metrics.bloom_probes = int(payload.get("bloom_probes", 0))
    return metrics


# ---------------------------------------------------------------------------- record blocks
_SWAP = sys.byteorder == "big"  # the wire's float64s are little-endian


def _pack_floats(values: Sequence[float]) -> str:
    if not values:  # no distances: every answer but a top-k
        return ""
    packed = array("d", values)
    if _SWAP:
        packed.byteswap()
    return base64.b64encode(packed.tobytes()).decode("ascii")


def _unpack_floats(text: str) -> List[float]:
    """Raises ``ValueError`` (``binascii.Error``) on bad base64 or a byte
    count that is not a whole number of float64s."""
    if text == "":
        return []
    packed = array("d")
    packed.frombytes(base64.b64decode(text, validate=True))
    if _SWAP:
        packed.byteswap()
    return packed.tolist()


def records_to_wire(files: Sequence[FileMetadata]) -> Dict[str, Any]:
    """The one wire form of a list of records (see *Record blocks*)."""
    table: Dict[Tuple[str, ...], int] = {}
    names: List[List[str]] = []
    schema: List[int] = []
    values: List[float] = []
    paths: List[str] = []
    ids: List[Optional[int]] = []
    extras: List[Dict[str, object]] = []
    for f in files:
        attributes = f.attributes
        key = tuple(attributes)
        index = table.get(key)
        if index is None:
            index = table[key] = len(names)
            names.append(list(key))
        schema.append(index)
        values.extend(attributes.values())
        paths.append(f.path)
        ids.append(f.file_id)
        extras.append(f.extra)
    return {
        "paths": paths,
        "ids": ids,
        "names": names,
        "schema": schema,
        "values": _pack_floats(values),
        "extra": extras,
    }


def records_from_wire(block: Dict[str, Any]) -> List[FileMetadata]:
    """Rebuild :func:`records_to_wire`'s records.  A malformed block raises
    ``KeyError`` / ``TypeError`` / ``ValueError`` / ``IndexError``; the
    callers turn them into :class:`ProtocolError`."""
    paths, ids, names = block["paths"], block["ids"], block["names"]
    schema, extras = block["schema"], block["extra"]
    if not (
        type(paths) is type(ids) is type(names) is type(schema) is type(extras) is list
    ):
        raise ProtocolError("record block columns must be lists")
    if not len(paths) == len(ids) == len(schema) == len(extras):
        raise ProtocolError(
            f"record block columns differ in length: {len(paths)} paths, "
            f"{len(ids)} ids, {len(schema)} schemas, {len(extras)} extras"
        )
    for key in names:
        if type(key) is not list:
            raise ProtocolError("record block names must be lists of attribute keys")
    if schema and min(schema) < 0:
        raise ProtocolError(f"negative schema index {min(schema)}")
    values = _unpack_floats(block["values"])
    expected = sum(map(len, map(names.__getitem__, schema)))
    if expected != len(values):
        raise ProtocolError(
            f"record block carries {len(values)} values, its schemas "
            f"name {expected}"
        )
    flat = iter(values)
    # zip stops at the shorter key list before drawing from ``flat``, so
    # each record takes exactly its own values.
    return [
        FileMetadata(str(path), dict(zip(names[s], flat)), int(file_id), dict(extra))
        for path, file_id, s, extra in zip(paths, ids, schema, extras)
    ]


# ---------------------------------------------------------------------------- results
def result_to_wire(result: QueryResult) -> Dict[str, Any]:
    return {
        "files": records_to_wire(result.files),
        "metrics": metrics_to_wire(result.metrics),
        "latency": result.latency,
        "groups_visited": result.groups_visited,
        "hops": result.hops,
        "found": result.found,
        "distances": _pack_floats(result.distances),
        "complete": result.complete,
    }


def result_from_wire(payload: Dict[str, Any]) -> QueryResult:
    try:
        return QueryResult(
            files=records_from_wire(payload["files"]),
            metrics=metrics_from_wire(payload.get("metrics", {})),
            latency=float(payload["latency"]),
            groups_visited=int(payload["groups_visited"]),
            hops=int(payload["hops"]),
            found=bool(payload["found"]),
            distances=_unpack_floats(payload.get("distances", "")),
            complete=bool(payload.get("complete", True)),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ProtocolError(f"malformed query result payload: {exc}") from exc


def receipt_to_wire(receipt: MutationReceipt) -> Dict[str, Any]:
    return {
        "seq": receipt.seq,
        "kind": receipt.kind,
        "file_id": receipt.file_id,
        "group_id": receipt.group_id,
        "unit_id": receipt.unit_id,
        "known": receipt.known,
        "latency": receipt.latency,
    }


def receipt_from_wire(payload: Dict[str, Any]) -> MutationReceipt:
    try:
        return MutationReceipt(
            seq=int(payload["seq"]),
            kind=str(payload["kind"]),
            file_id=int(payload["file_id"]),
            group_id=int(payload["group_id"]),
            unit_id=int(payload["unit_id"]),
            known=bool(payload["known"]),
            latency=float(payload["latency"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed mutation receipt payload: {exc}") from exc


def page_to_wire(page: ResultPage) -> Dict[str, Any]:
    return {
        "files": records_to_wire(page.files),
        "distances": _pack_floats(page.distances),
        "index": page.index,
        "cursor": page.cursor,
        "pinned": page.pinned,
    }


def page_from_wire(payload: Dict[str, Any]) -> ResultPage:
    try:
        return ResultPage(
            files=records_from_wire(payload["files"]),
            distances=_unpack_floats(payload.get("distances", "")),
            index=int(payload["index"]),
            cursor=(
                None if payload.get("cursor") is None else str(payload["cursor"])
            ),
            pinned=bool(payload.get("pinned", True)),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ProtocolError(f"malformed result page payload: {exc}") from exc


# ---------------------------------------------------------------------------- the response envelope
def response_to_wire(response: Response) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "kind": response.kind,
        "latency_s": response.latency_s,
        "wall_s": response.wall_s,
        "complete": response.complete,
        "deadline_expired": response.deadline_expired,
        "attribution": dict(response.attribution),
    }
    if response.trace_id is not None:
        payload["trace_id"] = response.trace_id
    if response.result is not None:
        payload["result"] = result_to_wire(response.result)
    if response.page is not None:
        payload["page"] = page_to_wire(response.page)
    if response.receipt is not None:
        payload["receipt"] = receipt_to_wire(response.receipt)
    return payload


def response_from_wire(payload: Dict[str, Any]) -> Response:
    try:
        return Response(
            kind=str(payload["kind"]),
            latency_s=float(payload["latency_s"]),
            wall_s=float(payload["wall_s"]),
            complete=bool(payload.get("complete", True)),
            deadline_expired=bool(payload.get("deadline_expired", False)),
            result=(
                result_from_wire(payload["result"])
                if payload.get("result") is not None
                else None
            ),
            page=(
                page_from_wire(payload["page"])
                if payload.get("page") is not None
                else None
            ),
            receipt=(
                receipt_from_wire(payload["receipt"])
                if payload.get("receipt") is not None
                else None
            ),
            attribution=dict(payload.get("attribution", {})),
            trace_id=_tolerant_trace_field(payload.get("trace_id")),
        )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed response envelope: {exc}") from exc


def jsonable(value: Any) -> Any:
    """Coerce a stats document into plain JSON-safe types (best effort).

    Stats dictionaries aggregate values from every layer — numpy scalars,
    tuples, sets — which the wire codec must not choke on.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return repr(value)
