"""The remote client: ``connect("tcp://host:port")`` as a drop-in Client.

:class:`RemoteClient` mirrors the :class:`~repro.api.client.Client`
surface — ``execute`` / ``submit`` / ``execute_many`` / ``pages``,
``insert`` / ``delete`` / ``modify``, ``stats`` / ``epoch`` /
``topology``, ``close`` and context-manager support — over one TCP
connection pool speaking the :mod:`wire protocol
<repro.server.protocol>`.  Every call returns the same
:class:`~repro.api.response.Response` envelope a local client returns,
rebuilt losslessly from the wire form, so code (and fingerprint suites)
written against a local deployment runs unchanged against a remote one.

Server-side exceptions arrive as error envelopes and are re-raised as
their own classes where known (:class:`InvalidCursorError`,
:class:`DeadlineExceededError`, :class:`PartialResultError`,
:class:`ServiceOverloadedError`, ...), so remote error handling is
written exactly like local error handling.  Pagination state (the pinned
page-stream snapshots) lives on the server; cursors travel as the opaque
strings they already are.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.api.options import RequestOptions
from repro.api.response import Response
from repro.metadata.file_metadata import FileMetadata
from repro.obs import TraceContext, context_to_wire, get_slowlog, get_tracer
from repro.server import protocol
from repro.server.protocol import (
    ProtocolError,
    WireCodec,
    read_frame,
    write_frame,
)
from repro.server.server import parse_address
from repro.workloads.types import Query

__all__ = ["RemoteClient", "connect_remote"]

#: Default per-call socket timeout (finite so a dead server surfaces as
#: an error, generous so legitimate scans are never cut off).
CALL_TIMEOUT_S = 120.0

#: Async submit()s run on this many client-side threads.
SUBMIT_WORKERS = 8


def connect_remote(
    address: str,
    *,
    timeout_s: float = CALL_TIMEOUT_S,
) -> "RemoteClient":
    """Open a remote deployment: ``connect_remote("tcp://host:port")``."""
    return RemoteClient(address, timeout_s=timeout_s)


class RemoteClient:
    """A connected remote deployment (usually via ``connect("tcp://...")``)."""

    def __init__(
        self,
        address: str,
        *,
        timeout_s: float = CALL_TIMEOUT_S,
    ) -> None:
        self.address = address
        self._host, self._port = parse_address(address)
        self._timeout_s = timeout_s
        self._codec = WireCodec()
        self._conns: List[socket.socket] = []
        self._lock = threading.Lock()
        self._request_id = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        # Hello exchange: verify the protocol version and learn the
        # server's topology.
        hello = self._call({"op": "hello", "protocol": protocol.PROTOCOL_VERSION})
        self.server_info: Dict[str, Any] = {
            k: v for k, v in hello.items() if k not in ("id", "ok")
        }

    # ------------------------------------------------------------------ transport
    def _dial(self) -> socket.socket:
        conn = socket.create_connection(
            (self._host, self._port), timeout=self._timeout_s
        )
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _next_id(self) -> int:
        with self._lock:
            self._request_id += 1
            return self._request_id

    def _call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/reply exchange on a pooled connection."""
        if self._closed:
            raise RuntimeError("client is closed")
        payload = dict(payload)
        payload["id"] = self._next_id()
        with self._lock:
            conn = self._conns.pop() if self._conns else None
        if conn is None:
            conn = self._dial()
        try:
            write_frame(conn, payload, self._codec)
            reply = read_frame(conn, self._codec)
        except BaseException:
            try:
                conn.close()
            except OSError:
                pass
            raise
        with self._lock:
            if not self._closed:
                self._conns.append(conn)
                conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if not reply.get("ok"):
            protocol.raise_remote_error(reply.get("error", {}))
        return reply

    # ------------------------------------------------------------------ queries
    def execute(
        self, query: Query, options: Optional[RequestOptions] = None
    ) -> Response:
        """Serve one query remotely; returns the uniform Response envelope."""
        tracer = get_tracer()
        if tracer.enabled:
            # Client edge of a distributed trace: the ids ride the options
            # over the wire and the server continues the same trace.
            if options is None:
                options = RequestOptions()
            if options.trace_id is None:
                options = replace(options, trace_id=TraceContext.new().trace_id)
            with tracer.root(
                "remote.execute",
                trace_id=options.trace_id,
                query=type(query).__name__,
            ) as root:
                if root.span_id:
                    options = replace(options, trace_parent=root.span_id)
                response = self._execute_wire(query, options)
                root.tag(complete=response.complete)
        else:
            response = self._execute_wire(query, options)
        self._maybe_slowlog(response)
        return response

    def _execute_wire(
        self, query: Query, options: Optional[RequestOptions]
    ) -> Response:
        reply = self._call(
            {
                "op": "execute",
                "query": protocol.query_to_wire(query),
                "options": protocol.options_to_wire(options),
            }
        )
        return protocol.response_from_wire(reply["response"])

    def _maybe_slowlog(self, response: Response) -> None:
        slowlog = get_slowlog()
        if not slowlog.enabled:
            return
        spans: Sequence[Any] = ()
        if response.trace_id is not None:
            spans = get_tracer().collector.spans_for(response.trace_id)
        slowlog.maybe_record(
            wall_s=response.wall_s,
            kind=response.kind,
            trace_id=response.trace_id,
            latency_s=response.latency_s,
            complete=response.complete,
            deadline_expired=response.deadline_expired,
            attribution=dict(response.attribution),
            spans=spans,
        )

    def submit(
        self, query: Query, options: Optional[RequestOptions] = None
    ) -> "Future[Response]":
        """Admit one query asynchronously (a client-side worker drives the
        round-trip; the server interleaves it with other connections)."""
        if options is not None and options.paginated:
            raise ValueError("paginated requests must go through execute()")
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=SUBMIT_WORKERS,
                    thread_name_prefix="repro-remote-submit",
                )
            pool = self._pool
        return pool.submit(self.execute, query, options)

    def execute_many(
        self, queries: Sequence[Query], options: Optional[RequestOptions] = None
    ) -> List[Response]:
        """Serve a whole workload, preserving input order."""
        futures = [self.submit(q, options) for q in queries]
        return [f.result() for f in futures]

    def pages(
        self, query: Query, page_size: int, options: Optional[RequestOptions] = None
    ) -> Iterator[Response]:
        """Iterate every page of a paginated result (convenience)."""
        options = options if options is not None else RequestOptions()
        response = self.execute(
            query, replace(options, page_size=page_size, cursor=None)
        )
        yield response
        while response.cursor is not None:
            response = self.execute(
                query, replace(options, page_size=None, cursor=response.cursor)
            )
            yield response

    # ------------------------------------------------------------------ mutations
    def insert(self, file: FileMetadata) -> Response:
        return self._mutate("insert", file)

    def delete(self, file: FileMetadata) -> Response:
        return self._mutate("delete", file)

    def modify(self, file: FileMetadata) -> Response:
        return self._mutate("modify", file)

    def _mutate(self, kind: str, file: FileMetadata) -> Response:
        payload: Dict[str, Any] = {
            "op": "mutate",
            "kind": kind,
            "file": protocol.records_to_wire([file]),
        }
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.root("remote.mutate", kind=kind) as root:
                payload["trace"] = context_to_wire(
                    TraceContext(root.trace_id, root.span_id)
                )
                reply = self._call(payload)
                response = protocol.response_from_wire(reply["response"])
        else:
            reply = self._call(payload)
            response = protocol.response_from_wire(reply["response"])
        self._maybe_slowlog(response)
        return response

    # ------------------------------------------------------------------ introspection
    @property
    def topology(self) -> str:
        return str(self.server_info.get("topology", "unknown"))

    def epoch(self) -> str:
        """The remote deployment's current version-clock snapshot."""
        return str(self._call({"op": "epoch"})["epoch"])

    def stats(self) -> Dict[str, Any]:
        """The remote deployment's uniform statistics document."""
        return dict(self._call({"op": "stats"})["stats"])

    def reshard(self, force: bool = False) -> Dict[str, Any]:
        """One reshard-controller pass on the remote deployment (the
        ``reshard`` op); returns the outcome document.  Advisory like the
        local call: unsupported topologies report ``performed=False``."""
        return dict(self._call({"op": "reshard", "force": bool(force)})["outcome"])

    def ping(self) -> bool:
        self._call({"op": "ping"})
        return True

    def metrics_text(self) -> str:
        """The server process's Prometheus text exposition (the
        ``metrics`` op)."""
        return str(self._call({"op": "metrics"})["metrics"])

    def export_spans(self) -> List[Dict[str, Any]]:
        """The server-side span collector's current contents (the
        ``trace_export`` op), as plain span dicts."""
        spans = self._call({"op": "trace_export"}).get("spans", [])
        return [dict(s) for s in spans if isinstance(s, dict)]

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release every connection (idempotent; safe with open cursors —
        pagination state lives server-side and expires there)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns, self._conns = self._conns, []
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        for conn in conns:
            try:
                write_frame(conn, {"id": 0, "op": "bye"}, self._codec)
            except (OSError, ProtocolError):
                pass
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"RemoteClient({self.address!r}, {self.topology}, {state})"
