"""The network front door: a threaded socket server over one Client.

:class:`StoreServer` binds a TCP listener, loads (or is handed) a
deployment, and serves the full unified-client API over the
:mod:`wire protocol <repro.server.protocol>`: queries with request
options (deadlines, consistency, pagination — cursors travel as opaque
strings and pinned page-stream snapshots live server-side), mutations,
stats and epoch reads, plus a ``reshard`` op that runs one
reshard-controller pass on a sharded deployment.  :func:`serve_spec` is
the one-call form the CLI's ``repro serve`` uses.

Concurrency & admission
-----------------------
One accept thread plus one thread per connection.  A handler blocks in one
framed read (GIL released) and then finishes the request it read —
decode, service, router scatter, engine, encode, send — without handing
it to another thread, so many remote clients drive the deployment
concurrently and none pays a wake-up per hop; when the spec's execution
mode is ``"processes"`` the scatter below runs on worker processes and the
whole read path uses every core.  Two admission knobs compose with the
:class:`~repro.service.service.QueryService`'s own ``max_in_flight``:

* ``max_connections`` — inbound connections beyond the cap are answered
  with a :class:`~repro.service.batching.ServiceOverloadedError` envelope
  and closed (never silently dropped);
* ``max_in_flight`` — framed requests executing concurrently across all
  connections; excess requests get the same overload envelope
  immediately (the service's queue never sees them).

Failure containment
-------------------
A malformed frame (garbage, truncated, oversized) terminates only its
own connection, after a best-effort error envelope; the request never
reaches the service, so a mutation is either fully applied and receipted
or not applied at all.  Graceful shutdown stops accepting, drains
in-flight requests, then shuts every connection down — which is what wakes
the handlers blocked reading them — and closes (when the server owns it)
the deployment.
"""

from __future__ import annotations

import select
import socket
import threading
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.api.options import RequestOptions
from repro.api.spec import DeploymentSpec
from repro.obs import (
    MetricsRegistry,
    TraceContext,
    context_from_wire,
    get_registry,
    get_tracer,
)
from repro.server import protocol
from repro.server.protocol import (
    ConnectionClosed,
    ProtocolError,
    WireCodec,
    error_envelope,
    read_frame_bytes,
    write_frame,
)
from repro.service.batching import ServiceOverloadedError

__all__ = ["StoreServer", "parse_address", "serve_spec"]

#: How long the accept loop sleeps between stop-flag checks.
_POLL_S = 0.25

#: Default graceful-shutdown drain budget.
SHUTDOWN_TIMEOUT_S = 10.0


def parse_address(address: str) -> Tuple[str, int]:
    """``tcp://host:port`` → ``(host, port)``; port 0 means ephemeral."""
    if not address.startswith("tcp://"):
        raise ValueError(f"address must start with tcp://, got {address!r}")
    rest = address[len("tcp://") :]
    host, sep, port = rest.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be tcp://host:port, got {address!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValueError(f"invalid port in address {address!r}") from exc


class StoreServer:
    """Serve one connected :class:`~repro.api.client.Client` over TCP."""

    def __init__(
        self,
        client: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        max_in_flight: Optional[int] = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        allow_remote_shutdown: bool = False,
        owns_client: bool = False,
    ) -> None:
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.client = client
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.max_connections = max_connections
        self.max_in_flight = max_in_flight
        self.max_frame_bytes = max_frame_bytes
        self.allow_remote_shutdown = allow_remote_shutdown
        self.owns_client = owns_client
        self._telemetry = client.service.telemetry
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self._connections: List[socket.socket] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._in_flight = 0
        self._drained = threading.Condition(self._lock)
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "StoreServer":
        """Bind the listener and start accepting (idempotent)."""
        if self._started:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(min(128, self.max_connections))
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._started = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> str:
        if self.port is None:
            raise RuntimeError("server is not started")
        return f"tcp://{self.host}:{self.port}"

    def close(self, timeout: float = SHUTDOWN_TIMEOUT_S) -> None:
        """Graceful shutdown: drain in-flight requests, then tear down."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=max(1.0, _POLL_S * 4))
        with self._drained:
            self._drained.wait_for(lambda: self._in_flight == 0, timeout=timeout)
            connections = list(self._connections)
        for conn in connections:
            # A handler idles inside recv(); closing the descriptor under it
            # would not wake it, ending the stream does (and it then closes
            # the socket itself).
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in list(self._handlers):
            thread.join(timeout=1.0)
        if self.owns_client:
            self.client.close()

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ accept loop
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                ready, _, _ = select.select([self._listener], [], [], _POLL_S)
            except OSError:
                return
            if not ready:
                continue
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            with self._lock:
                active = len([t for t in self._handlers if t.is_alive()])
            if active >= self.max_connections:
                self._telemetry.record_connection(accepted=False)
                self._refuse(conn, "connection limit reached")
                continue
            self._telemetry.record_connection(accepted=True)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="repro-server-conn",
                daemon=True,
            )
            with self._lock:
                self._handlers = [t for t in self._handlers if t.is_alive()]
                self._handlers.append(thread)
                self._connections = [
                    c for c in self._connections if c.fileno() != -1
                ]
                self._connections.append(conn)
            thread.start()

    def _refuse(self, conn: socket.socket, reason: str) -> None:
        """Answer an over-limit connection with an overload envelope."""
        try:
            write_frame(
                conn,
                error_envelope(None, ServiceOverloadedError(reason)),
                WireCodec("json"),
            )
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------ per-connection loop
    def _serve_connection(self, conn: socket.socket) -> None:
        codec = WireCodec("json")
        try:
            while not self._stop.is_set():
                try:
                    raw = read_frame_bytes(
                        conn, max_frame_bytes=self.max_frame_bytes
                    )
                    payload = codec.decode(raw)
                except ConnectionClosed:
                    return
                except ProtocolError as exc:
                    # Garbage framing: tell the peer why, then drop the
                    # connection — the stream cannot be trusted past this
                    # point, and nothing was applied.
                    self._telemetry.record_protocol_error()
                    try:
                        write_frame(conn, error_envelope(None, exc), codec)
                    except OSError:
                        pass
                    return
                except OSError:
                    return
                codec = self._dispatch(conn, codec, payload, len(raw))
                if codec is None:
                    return
        finally:
            self._telemetry.record_disconnect()
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(
        self,
        conn: socket.socket,
        codec: WireCodec,
        payload: Dict[str, Any],
        bytes_in: int,
    ) -> Optional[WireCodec]:
        """Handle one framed request of ``bytes_in`` payload bytes; returns
        the (possibly renegotiated) codec for the rest of the connection, or
        None to close it."""
        request_id = payload.get("id")
        with self._lock:
            if (
                self.max_in_flight is not None
                and self._in_flight >= self.max_in_flight
            ):
                overloaded = True
            else:
                overloaded = False
                self._in_flight += 1
        if overloaded:
            self._telemetry.record_net_request(bytes_in=bytes_in, rejected=True)
            try:
                write_frame(
                    conn,
                    error_envelope(
                        request_id,
                        ServiceOverloadedError(
                            f"server at max_in_flight={self.max_in_flight}"
                        ),
                    ),
                    codec,
                )
            except OSError:
                return None
            return codec
        next_codec: Optional[WireCodec] = codec
        try:
            try:
                reply, next_codec, keep_open = self._handle(payload, codec)
                reply.update({"id": request_id, "ok": True})
            except BaseException as exc:  # noqa: BLE001 - must answer the peer
                if isinstance(exc, ProtocolError):
                    self._telemetry.record_protocol_error()
                reply, keep_open = error_envelope(request_id, exc), True
            tracer = get_tracer()
            ser_ctx: Optional[TraceContext] = None
            if tracer.enabled:
                response = reply.get("response")
                trace_id = (
                    response.get("trace_id")
                    if isinstance(response, dict)
                    else None
                )
                if isinstance(trace_id, str) and trace_id:
                    ser_ctx = TraceContext(trace_id, "")
            try:
                with tracer.span("server.serialize", ser_ctx) as ser_span:
                    bytes_out = write_frame(
                        conn, reply, codec, max_frame_bytes=self.max_frame_bytes
                    )
                    ser_span.tag(bytes=bytes_out)
            except OSError:
                return None
            self._telemetry.record_net_request(
                bytes_in=bytes_in, bytes_out=bytes_out
            )
        finally:
            with self._drained:
                self._in_flight -= 1
                self._drained.notify_all()
        if not keep_open:
            return None
        return next_codec

    # ------------------------------------------------------------------ op handlers
    def _handle(
        self, payload: Dict[str, Any], codec: WireCodec
    ) -> Tuple[Dict[str, Any], WireCodec, bool]:
        op = payload.get("op")
        if op == "hello":
            return self._hello(payload, codec)
        if op == "execute":
            return self._execute(payload), codec, True
        if op == "mutate":
            return self._mutate(payload), codec, True
        if op == "stats":
            self._mirror_worker_stats()
            return (
                {"stats": protocol.jsonable(self.client.stats())},
                codec,
                True,
            )
        if op == "epoch":
            return {"epoch": self.client.epoch()}, codec, True
        if op == "reshard":
            outcome = self.client.reshard(force=bool(payload.get("force", False)))
            return {"outcome": protocol.jsonable(outcome)}, codec, True
        if op == "metrics":
            return (
                {
                    "metrics": self.metrics_text(),
                    "content_type": "text/plain; version=0.0.4",
                },
                codec,
                True,
            )
        if op == "trace_export":
            spans = get_tracer().collector.snapshot()
            return {"spans": [s.to_dict() for s in spans]}, codec, True
        if op == "ping":
            return {}, codec, True
        if op == "bye":
            return {}, codec, False
        if op == "shutdown":
            if not self.allow_remote_shutdown:
                raise ProtocolError("remote shutdown is not enabled on this server")
            # Reply first, then tear down from a helper thread so the
            # drain of in-flight requests (this one included) completes.
            threading.Thread(
                target=self.close, name="repro-server-shutdown", daemon=True
            ).start()
            return {}, codec, False
        raise ProtocolError(f"unknown op {op!r}")

    def _hello(
        self, payload: Dict[str, Any], codec: WireCodec
    ) -> Tuple[Dict[str, Any], WireCodec, bool]:
        requested = str(payload.get("codec", "json"))
        negotiated = codec
        if requested != codec.name:
            try:
                negotiated = WireCodec(requested)
            except ValueError:
                negotiated = codec  # keep talking; reply names the codec
        client_protocol = int(payload.get("protocol", protocol.PROTOCOL_VERSION))
        if client_protocol != protocol.PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version {client_protocol} is not supported "
                f"(server speaks {protocol.PROTOCOL_VERSION})"
            )
        reply = {
            "server": "repro",
            "protocol": protocol.PROTOCOL_VERSION,
            "codec": negotiated.name,
            "topology": self.client.topology,
            "execution": self.client.spec.execution,
            "files": self._file_count(),
        }
        # The reply itself still travels in the old codec; the switch
        # applies from the next frame in both directions.
        return reply, negotiated, True

    def _file_count(self) -> int:
        """Indexed-file count across topologies (store / group / router)."""
        store = self.client.service.store
        files = getattr(store, "files", None)
        if files is not None:
            return len(files)
        return sum(len(shard.files) for shard in getattr(store, "shards", ()))

    def _execute(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        query = protocol.query_from_wire(payload.get("query") or {})
        options = protocol.options_from_wire(payload.get("options"))
        tracer = get_tracer()
        if not tracer.enabled:
            response = self.client.execute(query, options)
            return {"response": protocol.response_to_wire(response)}
        # Server edge: continue the caller's trace when one rode the
        # options in, otherwise start a fresh one here.
        if options is None:
            options = RequestOptions()
        if options.trace_id is None:
            options = replace(options, trace_id=TraceContext.new().trace_id)
        ctx = TraceContext(options.trace_id, options.trace_parent or "")
        with tracer.span(
            "server.execute", ctx, query=type(query).__name__
        ) as span:
            options = replace(options, trace_parent=span.span_id)
            response = self.client.execute(query, options)
            span.tag(complete=response.complete)
        return {"response": protocol.response_to_wire(response)}

    def _mutate(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        kind = payload.get("kind")
        if kind not in ("insert", "delete", "modify"):
            raise ProtocolError(f"unknown mutation kind {kind!r}")
        try:
            file = protocol.file_from_dict(dict(payload["file"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed mutation payload: {exc}") from exc
        tracer = get_tracer()
        if not tracer.enabled:
            response = getattr(self.client, kind)(file)
            return {"response": protocol.response_to_wire(response)}
        ctx = context_from_wire(payload.get("trace")) or TraceContext.new()
        with tracer.span("server.mutate", ctx, kind=kind):
            # The span's thread-local context makes the client continue
            # this trace instead of minting its own.
            response = getattr(self.client, kind)(file)
        return {"response": protocol.response_to_wire(response)}

    def _mirror_worker_stats(self) -> None:
        """Fold process-router health into the service telemetry."""
        store = self.client.store
        dead = getattr(store, "dead_shards", None)
        if callable(dead) and hasattr(store, "shard_calls_failed"):
            processes = sum(
                1
                for shard in getattr(store, "shards", ())
                if hasattr(shard, "process")
            )
            self._telemetry.record_worker_stats(
                processes=processes, calls_failed=store.shard_calls_failed
            )

    def metrics_text(self) -> str:
        """Prometheus text exposition for the whole deployment.

        Renders from a scratch registry — the server's own instruments
        plus every worker's shipped snapshot under a ``shard`` label — so
        repeated scrapes never double-count the cumulative merges.
        """
        self._mirror_worker_stats()
        merged = MetricsRegistry()
        merged.merge(get_registry().to_wire())
        store = self.client.store
        for sid, shard in enumerate(getattr(store, "shards", ())):
            worker_stats = getattr(shard, "worker_stats", None)
            if worker_stats is None:
                continue
            try:
                doc = worker_stats()
            except Exception:  # noqa: BLE001 - a dead worker must not fail the scrape
                merged.counter(
                    "server_scrape_worker_unreachable",
                    "workers whose stats could not be fetched this scrape",
                    shard=str(sid),
                ).inc()
                continue
            payload = doc.get("metrics")
            if payload:
                merged.merge(payload, extra_labels={"shard": str(sid)})
        return merged.render_prometheus()

    # ------------------------------------------------------------------ introspection
    def stats(self) -> Dict[str, Any]:
        self._mirror_worker_stats()
        with self._lock:
            handlers = len([t for t in self._handlers if t.is_alive()])
        return {
            "address": self.address if self.port is not None else None,
            "connections": handlers,
            "in_flight": self._in_flight,
            "max_connections": self.max_connections,
            "max_in_flight": self.max_in_flight,
            "network": self._telemetry.network.as_dict(),
        }


def serve_spec(
    spec: DeploymentSpec,
    files: Optional[Any] = None,
    *,
    listen: Optional[str] = None,
    max_connections: int = 64,
    max_in_flight: Optional[int] = None,
    allow_remote_shutdown: bool = False,
) -> StoreServer:
    """Stand the spec's deployment up and serve it (the ``repro serve`` core).

    ``listen`` overrides the spec's own ``listen`` address; both default
    to an ephemeral loopback port.  The returned server **owns** the
    deployment: closing it closes the client too.
    """
    from repro.api.client import connect

    address = listen or spec.listen or "tcp://127.0.0.1:0"
    host, port = parse_address(address)
    client = connect(spec, files)
    try:
        server = StoreServer(
            client,
            host,
            port,
            max_connections=max_connections,
            max_in_flight=max_in_flight,
            allow_remote_shutdown=allow_remote_shutdown,
            owns_client=True,
        )
        return server.start()
    except BaseException:
        client.close()
        raise
