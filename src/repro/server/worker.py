"""Worker-process-per-shard execution: scatter-gather that escapes the GIL.

The in-process :class:`~repro.shard.router.ShardRouter` calls its shards
one after another under one GIL — fine for the simulated-cost currency,
useless for real multi-core wall time.  This module runs **one OS process
per shard** instead:

* :func:`worker_main` is the ``multiprocessing`` (spawn) entry point: it
  rebuilds its shard's :class:`~repro.core.smartstore.SmartStore` from the
  shipped population slice (with the *corpus-wide* index bounds, so merged
  top-k distances stay comparable), stands a WAL-backed
  :class:`~repro.ingest.pipeline.IngestPipeline` over it when the
  deployment is durable, and serves the shard ops of the
  :mod:`wire protocol <repro.server.protocol>` on a loopback socket;
* :class:`RemoteShard` is the front-door side proxy.  It satisfies the
  router's shard-backend contract (``execute``, mutations, compaction,
  summaries, versioning mirror) by speaking the same protocol a remote
  client speaks to the front door — scattering is *network I/O* on the
  router's thread pool, so four shard scans genuinely run on four cores;
* :func:`build_process_router` partitions a corpus exactly like
  :func:`repro.shard.build.build_router`, spawns one worker per shard and
  returns a perfectly ordinary :class:`~repro.shard.router.ShardRouter`
  over the proxies — pruning summaries, shared-MaxD top-k, ownership
  routing and the service layer all run unchanged.

A dead worker never hangs a request: every transport failure flips the
proxy's ``alive`` flag and surfaces as
:class:`~repro.shard.router.ShardUnavailableError`, which the router
converts into an incomplete per-shard result (client partial/fail policy
applies) and mutations propagate as a clean error (the mutation either
reached the worker's WAL or it did not — never half-applied).
"""

from __future__ import annotations

import multiprocessing
import signal
import socket
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.options import Deadline
from repro.core.queries import QueryResult, ReadContext
from repro.core.smartstore import (
    SmartStore,
    SmartStoreConfig,
    config_from_dict,
    config_to_dict,
)
from repro.core.versioning import VersioningManager
from repro.ingest.pipeline import IngestPipeline, MutationReceipt
from repro.ingest.wal import WriteAheadLog
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.obs import (
    TraceContext,
    configure as obs_configure,
    context_from_wire,
    context_to_wire,
    get_registry,
    get_tracer,
)
from repro.persistence.jsonl import (
    file_from_dict,
    file_to_dict,
    schema_from_dict,
    schema_to_dict,
)
from repro.server import protocol
from repro.server.protocol import (
    ConnectionClosed,
    ProtocolError,
    WireCodec,
    error_envelope,
    read_frame,
    write_frame,
)
from repro.shard.build import split_corpus
from repro.shard.router import ShardRouter, ShardUnavailableError
from repro.workloads.types import Query, kind_of

__all__ = [
    "RemoteShard",
    "build_process_router",
    "spawn_worker",
    "worker_main",
]

#: Mutation kinds a worker accepts over the wire (anything else is a
#: protocol error, not an attribute lookup on live objects).
_MUTATION_KINDS = ("insert", "delete", "modify")

#: How long the parent waits for a spawned worker to report readiness.
SPAWN_TIMEOUT_S = 120.0

#: Per-call transport timeout on the proxy side.  Generous — a scan of a
#: large shard is legitimate work — but finite, so a wedged worker
#: surfaces as ShardUnavailableError instead of a hang.
CALL_TIMEOUT_S = 120.0


# ---------------------------------------------------------------------------- worker process
class _WorkerState:
    """Everything one worker process serves from."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.shard_id = int(payload["shard_id"])
        schema = schema_from_dict(payload["schema"])
        config = config_from_dict(dict(payload["config"]))
        files = [file_from_dict(d) for d in payload["files"]]
        bounds = (
            np.asarray(payload["index_bounds"][0], dtype=np.float64),
            np.asarray(payload["index_bounds"][1], dtype=np.float64),
        )
        self.store = SmartStore.build(files, config, schema, index_bounds=bounds)
        wal = None
        if payload.get("wal_path"):
            wal_path = Path(payload["wal_path"])
            wal_path.parent.mkdir(parents=True, exist_ok=True)
            wal = WriteAheadLog(wal_path, fsync_every=int(payload.get("fsync_every", 1)))
        self.pipeline = IngestPipeline(self.store, wal)
        self.max_frame_bytes = int(
            payload.get("max_frame_bytes", protocol.MAX_FRAME_BYTES)
        )
        # The parent's observability choices travel in the spawn payload,
        # so worker-side spans exist exactly when the deployment traces.
        obs_configure(tracing=bool(payload.get("tracing", False)))
        # One worker, many parent connections: engine scans may run
        # concurrently, mutations serialise against them.
        self.mutation_lock = threading.Lock()
        self.requests_served = 0
        self.stop = threading.Event()

    def handle(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        op = payload.get("op")
        self.requests_served += 1
        if op == "hello":
            return {
                "server": "repro-worker",
                "protocol": protocol.PROTOCOL_VERSION,
                "shard_id": self.shard_id,
                "files": self.store.file_count(),
            }
        if op == "ping":
            return {}
        if op == "shard_query":
            return self._shard_query(payload)
        if op == "shard_mutate":
            return self._shard_mutate(payload)
        if op == "compact":
            return self._compact(payload)
        if op == "stats":
            return {
                "stats": protocol.jsonable(self.pipeline.stats()),
                "requests_served": self.requests_served,
                "clock": self.store.versioning.change_clock,
                # The worker's whole metrics registry rides the existing
                # stats op; the parent merges it under a shard label.
                "metrics": get_registry().to_wire(),
            }
        if op == "shutdown":
            self.stop.set()
            return {}
        raise ProtocolError(f"unknown worker op {op!r}")

    def _reply(self, ctx: Optional[TraceContext], **body: Any) -> Dict[str, Any]:
        """A shard op's reply: its body, the staged-mutation count and —
        shipped back inline so the parent's collector holds one
        cross-process trace — this request's worker-side spans."""
        reply = dict(body, staged=len(self.pipeline.overlay))
        tracer = get_tracer()
        if ctx is not None and tracer.enabled:
            reply["spans"] = [
                s.to_dict() for s in tracer.collector.take(ctx.trace_id)
            ]
        return reply

    def _shard_query(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        query = protocol.query_from_wire(payload["query"])
        kind = kind_of(query)
        home = payload.get("home_unit")
        remaining = payload.get("deadline_remaining_s")
        bound = payload.get("max_d_bound")
        read_ctx = ReadContext(
            home_unit=None if home is None else int(home),
            # Deadlines are absolute monotonic instants, which do not
            # travel between processes; the remaining budget does.
            deadline=(
                None
                if remaining is None
                else Deadline.after(max(0.0, float(remaining)))
            ),
            max_d_bound=None if bound is None else float(bound),
        )
        # A malformed trace header degrades to None (fresh-trace semantics);
        # it must never fail the scan it rode in on.
        ctx = context_from_wire(payload.get("trace"))
        tracer = get_tracer()
        with tracer.span(
            "worker.scan", ctx, shard=self.shard_id, kind=kind
        ) as scan_span:
            result = self.store.execute(query, read_ctx)
            scan_span.tag(complete=result.complete)
        get_registry().histogram(
            "repro_worker_scan_latency_seconds",
            "Simulated per-scan latency inside one shard worker",
            kind=kind,
        ).observe(result.latency)
        return self._reply(ctx, result=protocol.result_to_wire(result))

    def _shard_mutate(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        kind = payload.get("kind")
        if kind not in _MUTATION_KINDS:
            raise ProtocolError(f"unknown mutation kind {kind!r}")
        file = file_from_dict(dict(payload["file"]))
        ctx = context_from_wire(payload.get("trace"))
        tracer = get_tracer()
        with self.mutation_lock, tracer.span(
            "worker.mutate", ctx, shard=self.shard_id, kind=kind
        ):
            receipt: MutationReceipt = getattr(self.pipeline, kind)(file)
        get_registry().histogram(
            "repro_worker_mutation_latency_seconds",
            "Simulated per-mutation latency inside one shard worker",
            kind=kind,
        ).observe(receipt.latency)
        return self._reply(ctx, receipt=protocol.receipt_to_wire(receipt))

    def _compact(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        mode = payload.get("mode", "run_once")
        if mode not in ("run_once", "drain"):
            raise ProtocolError(f"unknown compaction mode {mode!r}")
        with self.mutation_lock:
            count = (
                self.pipeline.compactor.drain()
                if mode == "drain"
                else self.pipeline.compactor.run_once()
            )
        return {
            "count": int(count),
            "staged": len(self.pipeline.overlay),
            "group_compactions": self.pipeline.compactor.stats.group_compactions,
        }


def _serve_connection(state: _WorkerState, conn: socket.socket) -> None:
    codec = WireCodec("json")
    try:
        while not state.stop.is_set():
            try:
                payload = read_frame(
                    conn, codec, max_frame_bytes=state.max_frame_bytes
                )
            except ConnectionClosed:
                return
            except (ProtocolError, socket.timeout, OSError) as exc:
                # Malformed bytes from the parent: answer with an error
                # envelope when the socket still works, then drop the
                # connection — never leave the peer waiting.
                try:
                    write_frame(conn, error_envelope(None, exc), codec)
                except OSError:
                    pass
                return
            request_id = payload.get("id")
            try:
                reply = state.handle(payload)
                reply.update({"id": request_id, "ok": True})
            except BaseException as exc:  # noqa: BLE001 - must answer the peer
                reply = error_envelope(request_id, exc)
            try:
                write_frame(conn, reply, codec, max_frame_bytes=state.max_frame_bytes)
            except OSError:
                return
    finally:
        try:
            conn.close()
        except OSError:
            pass


def worker_main(payload: Dict[str, Any], ready: Any) -> None:
    """Entry point of one shard worker process (spawn target).

    Builds the shard deployment, binds a loopback listener and reports
    ``{"port": ..., "unit_ids": [...]}`` (or ``{"error": ...}``) through
    the ``ready`` pipe, then serves until a ``shutdown`` op or SIGTERM.
    """
    try:
        state = _WorkerState(payload)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(16)
        listener.settimeout(0.2)
    except BaseException as exc:  # noqa: BLE001 - parent must learn why
        try:
            ready.send({"error": f"{type(exc).__name__}: {exc}"})
        finally:
            ready.close()
        return
    ready.send(
        {
            "port": listener.getsockname()[1],
            "unit_ids": state.store.cluster.unit_ids(),
        }
    )
    ready.close()

    def _terminate(signum: int, frame: Any) -> None:  # pragma: no cover - signal path
        state.stop.set()

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass

    handlers: List[threading.Thread] = []
    try:
        while not state.stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=_serve_connection,
                args=(state, conn),
                name=f"repro-worker-{state.shard_id}-conn",
                daemon=True,
            )
            thread.start()
            handlers.append(thread)
            handlers = [t for t in handlers if t.is_alive()]
    finally:
        listener.close()
        for thread in handlers:
            thread.join(timeout=1.0)
        state.pipeline.close()


# ---------------------------------------------------------------------------- proxy-side shims
class _RemoteCluster:
    """Home-unit domain of a remote shard, mirrored from the worker (an
    unpinned request's home is drawn by the worker's own cluster)."""

    def __init__(self, unit_ids: Sequence[int]) -> None:
        self._unit_ids = [int(u) for u in unit_ids]

    @property
    def num_units(self) -> int:
        return len(self._unit_ids)

    def unit_ids(self) -> List[int]:
        return list(self._unit_ids)


class _RemoteOverlay:
    """``len(pipeline.overlay)`` view: the worker's staged-mutation count,
    mirrored from the most recent reply that carried it."""

    def __init__(self) -> None:
        self.staged = 0

    def __len__(self) -> int:
        return self.staged


class _RemoteCompactorStats:
    def __init__(self) -> None:
        self.group_compactions = 0


class _RemoteCompactor:
    """Drives the worker's compactor over the wire (router compactor hook)."""

    def __init__(self, shard: "RemoteShard") -> None:
        self._shard = shard
        self.stats = _RemoteCompactorStats()

    def _compact(self, mode: str) -> int:
        reply = self._shard._call({"op": "compact", "mode": mode})
        self._shard._observe_staged(reply)
        self.stats.group_compactions = int(reply.get("group_compactions", 0))
        return int(reply.get("count", 0))

    def run_once(self) -> int:
        return self._compact("run_once")

    def drain(self) -> int:
        return self._compact("drain")

    def stop(self) -> None:  # pipeline-close parity; workers have no daemon
        return None


class RemoteShard:
    """Front-door proxy for one shard worker process.

    Satisfies the :class:`~repro.shard.router.ShardRouter` backend
    contract — store facade (``execute`` / ``files`` / ``schema`` /
    ``cluster`` / ``versioning``) *and* write path (``insert`` /
    ``delete`` / ``modify`` / ``compactor`` / ``overlay``) — by calling
    the worker over the wire protocol.  The proxy keeps a small
    per-worker connection pool (the scatter pool may land several
    concurrent calls on one shard) and a local
    :class:`~repro.core.versioning.VersioningManager` mirror whose clock
    bumps on every routed mutation, so the service's cache epochs behave
    exactly as they do over in-process shards.
    """

    def __init__(
        self,
        shard_id: int,
        files: Sequence[FileMetadata],
        schema: AttributeSchema,
        config: SmartStoreConfig,
        index_bounds: Tuple[np.ndarray, np.ndarray],
        process: multiprocessing.process.BaseProcess,
        port: int,
        unit_ids: Sequence[int],
        *,
        call_timeout: float = CALL_TIMEOUT_S,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        self.shard_id = shard_id
        self.files = list(files)
        self.schema = schema
        self.config = config
        self.index_lower = np.asarray(index_bounds[0], dtype=np.float64)
        self.index_upper = np.asarray(index_bounds[1], dtype=np.float64)
        self.process = process
        self.port = port
        self.alive = True
        self.versioning = VersioningManager()
        self.cluster = _RemoteCluster(unit_ids)
        self.overlay = _RemoteOverlay()
        self.compactor = _RemoteCompactor(self)
        self._call_timeout = call_timeout
        self._max_frame_bytes = max_frame_bytes
        self._codec = WireCodec("json")
        self._conns: List[socket.socket] = []
        self._conn_lock = threading.Lock()
        self._request_id = 0
        self._closed = False

    # ------------------------------------------------------------------ transport
    def _dial(self) -> socket.socket:
        conn = socket.create_connection(
            ("127.0.0.1", self.port), timeout=self._call_timeout
        )
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _checkout(self) -> socket.socket:
        with self._conn_lock:
            if self._conns:
                return self._conns.pop()
        return self._dial()

    def _checkin(self, conn: socket.socket) -> None:
        with self._conn_lock:
            if not self._closed:
                self._conns.append(conn)
                return
        try:
            conn.close()
        except OSError:
            pass

    def _next_id(self) -> int:
        with self._conn_lock:
            self._request_id += 1
            return self._request_id

    def _call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response exchange; transport failure marks the
        shard dead and raises :class:`ShardUnavailableError`."""
        if self._closed:
            raise ShardUnavailableError(self.shard_id, "proxy is closed")
        payload = dict(payload)
        payload["id"] = self._next_id()
        try:
            conn = self._checkout()
        except OSError as exc:
            self.alive = False
            raise ShardUnavailableError(self.shard_id, f"dial failed: {exc}") from exc
        try:
            write_frame(
                conn, payload, self._codec, max_frame_bytes=self._max_frame_bytes
            )
            reply = read_frame(
                conn, self._codec, max_frame_bytes=self._max_frame_bytes
            )
        except (ConnectionClosed, ProtocolError, socket.timeout, OSError) as exc:
            self.alive = False
            try:
                conn.close()
            except OSError:
                pass
            raise ShardUnavailableError(
                self.shard_id, f"worker transport failed: {exc}"
            ) from exc
        self._checkin(conn)
        if not reply.get("ok"):
            # A structured failure from a *live* worker: re-raise it as the
            # exception it was (bad query, unknown op...), not as death.
            protocol.raise_remote_error(reply.get("error", {}))
        return reply

    def _observe_staged(self, reply: Dict[str, Any]) -> None:
        staged = reply.get("staged")
        if staged is not None:
            self.overlay.staged = int(staged)

    def _traced_call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """A shard op under the ambient trace: the context rides out in the
        payload and the worker's spans for this request are folded into
        the local collector — one trace across the process boundary."""
        tracer = get_tracer()
        ctx = tracer.current() if tracer.enabled else None
        if ctx is not None:
            payload["trace"] = context_to_wire(ctx)
        reply = self._call(payload)
        self._observe_staged(reply)
        if ctx is not None:
            tracer.collector.ingest(reply.get("spans"))
        return reply

    # ------------------------------------------------------------------ store facade
    def execute(self, query: Query, ctx: Optional[ReadContext] = None) -> QueryResult:
        """Run one query on the worker (the shared read entry point).

        The context crosses the process boundary field by field — the
        deadline as its remaining budget; ``consistency`` stays behind (a
        worker's store is unreplicated, so every level reads the same).
        """
        ctx = ctx if ctx is not None else ReadContext()
        payload: Dict[str, Any] = {
            "op": "shard_query",
            "query": protocol.query_to_wire(query),
            "home_unit": ctx.home_unit,
        }
        if ctx.deadline is not None:
            payload["deadline_remaining_s"] = max(0.0, ctx.deadline.remaining())
        if ctx.max_d_bound is not None:
            payload["max_d_bound"] = float(ctx.max_d_bound)
        return protocol.result_from_wire(self._traced_call(payload)["result"])

    # ------------------------------------------------------------------ write path (pipeline)
    def _mutate(self, kind: str, file: FileMetadata) -> MutationReceipt:
        payload: Dict[str, Any] = {
            "op": "shard_mutate",
            "kind": kind,
            "file": file_to_dict(file),
        }
        receipt = protocol.receipt_from_wire(self._traced_call(payload)["receipt"])
        # The worker's own versioning clock advanced; bump the local mirror
        # so the front door's cache epochs (and their subscribers) track it.
        self.versioning.touch()
        return receipt

    def insert(self, file: FileMetadata) -> MutationReceipt:
        return self._mutate("insert", file)

    def delete(self, file: FileMetadata) -> MutationReceipt:
        return self._mutate("delete", file)

    def modify(self, file: FileMetadata) -> MutationReceipt:
        return self._mutate("modify", file)

    def stats(self) -> Dict[str, Any]:
        reply = self._call({"op": "stats"})
        return dict(reply.get("stats", {}))

    def worker_stats(self) -> Dict[str, Any]:
        """The worker's full stats document (not just its pipeline stats):
        process identity, requests served, version clock, and the worker's
        metrics-registry snapshot — what the router surfaces so a remote
        client's ``stats()`` call sees per-worker internals."""
        reply = self._call({"op": "stats"})
        return {
            "alive": True,
            "pid": self.process.pid,
            "port": self.port,
            "requests_served": reply.get("requests_served"),
            "clock": reply.get("clock"),
            "stats": dict(reply.get("stats", {})),
            "metrics": reply.get("metrics"),
        }

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Ask the worker to exit, close the pool, reap the process."""
        if self._closed:
            return
        try:
            self._call({"op": "shutdown"})
        except (ShardUnavailableError, ProtocolError):
            pass  # already dead — reaped below
        with self._conn_lock:
            self._closed = True
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        if self.process.is_alive():
            self.process.join(timeout=10.0)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.terminate()
                self.process.join(timeout=5.0)
        self.alive = False

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return (
            f"RemoteShard(shard={self.shard_id}, files={len(self.files)}, "
            f"port={self.port}, {state})"
        )


# ---------------------------------------------------------------------------- builders
def spawn_worker(
    shard_id: int,
    files: Sequence[FileMetadata],
    config: SmartStoreConfig,
    schema: AttributeSchema,
    index_bounds: Tuple[np.ndarray, np.ndarray],
    *,
    wal_path: Optional[Union[str, Path]] = None,
    fsync_every: int = 1,
    spawn_timeout: float = SPAWN_TIMEOUT_S,
) -> RemoteShard:
    """Spawn one shard worker process and return its connected proxy."""
    ctx = multiprocessing.get_context("spawn")
    parent_end, child_end = ctx.Pipe(duplex=False)
    payload = {
        "shard_id": shard_id,
        "files": [file_to_dict(f) for f in files],
        "schema": schema_to_dict(schema),
        "config": config_to_dict(config),
        "index_bounds": [
            [float(v) for v in index_bounds[0]],
            [float(v) for v in index_bounds[1]],
        ],
        "wal_path": None if wal_path is None else str(wal_path),
        "fsync_every": fsync_every,
        # Workers inherit the parent's tracing switch at spawn time so their
        # spans exist to ship back when the parent is collecting them.
        "tracing": get_tracer().enabled,
    }
    process = ctx.Process(
        target=worker_main,
        args=(payload, child_end),
        name=f"repro-shard-worker-{shard_id}",
        daemon=True,
    )
    process.start()
    child_end.close()
    if not parent_end.poll(spawn_timeout):
        process.terminate()
        raise RuntimeError(
            f"shard worker {shard_id} did not report readiness within "
            f"{spawn_timeout}s"
        )
    ready = parent_end.recv()
    parent_end.close()
    if "error" in ready:
        process.join(timeout=5.0)
        raise RuntimeError(f"shard worker {shard_id} failed to start: {ready['error']}")
    return RemoteShard(
        shard_id,
        files,
        schema,
        config,
        index_bounds,
        process,
        int(ready["port"]),
        ready["unit_ids"],
    )


def build_process_router(
    files: Sequence[FileMetadata],
    num_shards: int,
    config: Optional[SmartStoreConfig] = None,
    schema: AttributeSchema = DEFAULT_SCHEMA,
    *,
    partitioner: str = "semantic",
    strategy: str = "slice",
    units_per_shard: Optional[int] = None,
    wal_dir: Optional[Union[str, Path]] = None,
    fsync_every: int = 1,
    spawn_timeout: float = SPAWN_TIMEOUT_S,
) -> ShardRouter:
    """One worker process per shard behind an ordinary :class:`ShardRouter`.

    The corpus split, per-shard unit budget (``config.num_units`` is the
    *total*) and corpus-wide index bounds come from the same
    :func:`repro.shard.build.split_corpus` the in-process builder uses,
    so a process deployment is fingerprint-comparable with its in-process
    twin.
    ``num_shards=1`` is allowed (the single-worker baseline the scaling
    bench compares against).
    """
    config = config if config is not None else SmartStoreConfig()
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    part, shard_files, bounds, shard_config = split_corpus(
        files,
        num_shards,
        config,
        schema,
        partitioner=partitioner if num_shards > 1 else "hash",
        strategy=strategy,
        units_per_shard=units_per_shard,
    )

    wal_root = None
    if wal_dir is not None:
        wal_root = Path(wal_dir)
        wal_root.mkdir(parents=True, exist_ok=True)

    proxies: List[RemoteShard] = []
    try:
        for sid, members in enumerate(shard_files):
            proxies.append(
                spawn_worker(
                    sid,
                    members,
                    shard_config,
                    schema,
                    bounds,
                    wal_path=(
                        None if wal_root is None else wal_root / f"shard-{sid}.wal"
                    ),
                    fsync_every=fsync_every,
                    spawn_timeout=spawn_timeout,
                )
            )
    except BaseException:
        for proxy in proxies:
            proxy.close()
        raise
    # A pool thread per shard: every request of a scatter is on the wire
    # before any reply is read, and the workers scan side by side.
    return ShardRouter(
        proxies, part, pipelines=proxies, max_workers=len(proxies)
    )
