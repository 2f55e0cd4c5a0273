"""The unified client: one front door for every deployment shape.

``connect(spec)`` builds whatever topology the
:class:`~repro.api.spec.DeploymentSpec` declares — plain, durable,
sharded, replicated, or sharded+replicated — wires a
:class:`~repro.service.service.QueryService` over it, and returns a
:class:`Client` whose surface is identical across all five shapes:

* :meth:`Client.execute` / :meth:`Client.submit` — queries, each
  optionally carrying :class:`~repro.api.options.RequestOptions`
  (deadline, consistency preference, pagination);
* :meth:`Client.insert` / :meth:`Client.delete` / :meth:`Client.modify`
  — mutations through the deployment's write path (WAL-first when the
  spec is durable, shard-routed, replica-shipped — whatever the shape
  provides);
* every call returns the same :class:`~repro.api.response.Response`
  envelope, with attribution describing which topology (and which
  shards/replicas) served it;
* :meth:`Client.stats`, :meth:`Client.close`, context-manager support.

Pagination: a request with ``page_size`` returns a
:class:`~repro.api.response.ResultPage` whose cursor fetches the next
page.  The first page pins the full result (at the version-clock epoch of
its execution) in a bounded client-side snapshot store, so the
concatenation of all pages is byte-identical to the unpaginated result
even while mutations land concurrently.  A cursor that outlives its
pinned snapshot (client restart, eviction) still resumes: the query is
re-executed and the stream continues strictly after the cursor's last
served key in the canonical, placement-independent result order.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api.cursor import Cursor, CursorKey, InvalidCursorError, query_fingerprint
from repro.api.options import (
    DeadlineExceededError,
    PartialResultError,
    RequestOptions,
)
from repro.api.response import Response, ResultPage
from repro.api.spec import DeploymentSpec
from repro.core.queries import QueryResult
from repro.core.smartstore import SmartStore
from repro.ingest.pipeline import IngestPipeline, recover_from_storage, replay_tail
from repro.ingest.wal import WriteAheadLog
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.obs import TraceContext, get_slowlog, get_tracer
from repro.persistence.jsonl import load_files
from repro.replication.group import ReplicaGroup, build_group
from repro.service.service import QueryService
from repro.shard.reshard import ReshardController
from repro.shard.build import build_router
from repro.shard.router import ShardRouter
from repro.storage import SegmentStore, has_snapshot
from repro.workloads.types import Query, TopKQuery

__all__ = ["Client", "connect"]

#: How many pinned page-stream snapshots one client retains (LRU).
SNAPSHOT_LIMIT = 128

#: What a call without options runs under (frozen, so one is enough).
_DEFAULT_OPTIONS = RequestOptions()

#: A pinned full result: (files, distances, epoch, complete, latency).
_Snapshot = Tuple[List[FileMetadata], List[float], str, bool, float]


def connect(
    spec: Any,
    files: Optional[Sequence[FileMetadata]] = None,
    schema: AttributeSchema = DEFAULT_SCHEMA,
) -> Any:
    """Build (or dial) the deployment a spec declares and return its client.

    ``spec`` is either a :class:`~repro.api.spec.DeploymentSpec` — the
    deployment is built in this process — or a ``"tcp://host:port"``
    address, in which case a
    :class:`~repro.server.remote.RemoteClient` for an already-running
    :class:`~repro.server.server.StoreServer` is returned instead; the
    remote client is a drop-in for the local one (same
    execute/submit/pages/mutation surface, same Response envelope).

    ``files`` is the population to index; when omitted the spec's
    ``population`` path (a JSON-Lines artefact) is loaded instead.
    """
    if isinstance(spec, str):
        if not spec.startswith("tcp://"):
            raise ValueError(
                f"string specs must be tcp://host:port addresses, got {spec!r}"
            )
        if files is not None:
            raise ValueError(
                "a remote deployment is already populated; connect(address) "
                "does not take files"
            )
        from repro.server.remote import connect_remote

        return connect_remote(spec)
    if files is None:
        if _storage_restorable(spec):
            # Cold start from the spec's snapshot root(s): the population
            # lives in the segments, O(tail) to come back.
            files = []
        elif spec.population is None:
            raise ValueError(
                "connect() needs a file population: pass files=... or set "
                "DeploymentSpec.population to a JSON-Lines path"
            )
        else:
            files = load_files(spec.population)
    files = list(files)

    pipeline: Optional[IngestPipeline] = None
    if spec.topology == "plain":
        if spec.storage is not None:
            pipeline = _open_single_store(spec, files, schema, wal_path=None)
            store: object = pipeline.store
        else:
            store = SmartStore.build(files, spec.store, schema)
    elif spec.topology == "durable":
        wal_dir = Path(spec.wal_dir)  # type: ignore[arg-type]  # validated by the spec
        wal_dir.mkdir(parents=True, exist_ok=True)
        if spec.storage is not None:
            pipeline = _open_single_store(
                spec, files, schema, wal_path=wal_dir / "store.wal"
            )
            store = pipeline.store
        else:
            plain = SmartStore.build(files, spec.store, schema)
            wal = WriteAheadLog(wal_dir / "store.wal", fsync_every=spec.fsync_every)
            pipeline = IngestPipeline(plain, wal)
            # A restart finds the previous run's log: every acked mutation
            # in it is above the bare population this store was built from.
            replay_tail(pipeline, after_seq=0)
            store = plain
    elif spec.sharded:
        shard_options: Dict[str, Any] = dict(
            partitioner=spec.partitioner,
            strategy=spec.partition_strategy,
            units_per_shard=spec.units_per_shard,
            wal_dir=spec.wal_dir,
            fsync_every=spec.fsync_every,
        )
        if spec.execution == "processes":
            # One worker OS process per shard, scattered to over the wire
            # protocol (imported lazily: the server package depends on the
            # api package, not the other way round).
            from repro.server.worker import build_process_router

            store = build_process_router(
                files, spec.shards, spec.store, schema, **shard_options
            )
        else:
            store = build_router(
                files,
                spec.shards,
                spec.store,
                schema,
                replication=spec.replication_config() if spec.replicated else None,
                storage=spec.storage,
                **shard_options,
            )
    else:  # replicated
        wal_path = None
        if spec.wal_dir is not None:
            wal_dir = Path(spec.wal_dir)
            wal_dir.mkdir(parents=True, exist_ok=True)
            wal_path = wal_dir / "group.wal"
        store = build_group(
            files,
            spec.store,
            schema,
            replication=spec.replication_config(),
            wal_path=wal_path,
            fsync_every=spec.fsync_every,
            storage=spec.storage,
        )
    service = QueryService(store, spec.service, pipeline=pipeline)
    return Client(spec, store, service)


def _storage_restorable(spec: DeploymentSpec) -> bool:
    """True when the spec's snapshot root(s) can stand the topology up
    without a file population."""
    if spec.storage is None or spec.storage.root is None:
        return False
    root = Path(spec.storage.root)
    if spec.sharded:
        return any(has_snapshot(path) for path in root.glob("shard-*"))
    return has_snapshot(root)


def _open_single_store(
    spec: DeploymentSpec,
    files: List[FileMetadata],
    schema: AttributeSchema,
    *,
    wal_path: Optional[Path],
) -> IngestPipeline:
    """Stand up one storage-backed store: restore from the snapshot root
    when it holds a published manifest, else build fresh and attach a
    segment store so the first ``checkpoint()`` publishes there."""
    storage = spec.storage
    assert storage is not None and storage.root is not None  # spec-validated
    if has_snapshot(storage.root):
        pipeline, _report = recover_from_storage(
            storage.root,
            wal_path=wal_path,
            fsync_every=spec.fsync_every,
            resident_segments=storage.resident_segments,
        )
        return pipeline
    plain = SmartStore.build(files, spec.store, schema)
    wal = (
        WriteAheadLog(wal_path, fsync_every=spec.fsync_every)
        if wal_path is not None
        else None
    )
    pipeline = IngestPipeline(plain, wal)
    # No snapshot published yet, but a previous run may have logged
    # mutations: they are all above the bare population built here.
    replay_tail(pipeline, after_seq=0)
    pipeline.attach_storage(
        SegmentStore(storage.root, resident_segments=storage.resident_segments)
    )
    return pipeline


class Client:
    """A connected deployment, whatever its shape (use :func:`connect`).

    ``store`` is whichever backend the spec built (``SmartStore``,
    ``ShardRouter`` or ``ReplicaGroup``); all answer ``execute(query,
    ctx)`` on one :class:`~repro.core.queries.ReadContext`, which is the
    only read surface the service layer below consumes.
    """

    def __init__(self, spec: DeploymentSpec, store: Any, service: QueryService) -> None:
        self.spec = spec
        self.store = store
        self.service = service
        self._snapshots: "OrderedDict[str, _Snapshot]" = OrderedDict()
        self._snapshot_lock = threading.Lock()
        self._cursor_counter = 0
        self._closed = False
        self._reshard_lock = threading.Lock()
        self._reshard_controller: Optional[ReshardController] = None
        # A store that is neither sharded nor replicated has nothing to
        # report per request: every response shares this one document.
        self._fixed_attribution: Optional[Dict[str, object]] = (
            None
            if isinstance(store, (ShardRouter, ReplicaGroup))
            else {"topology": spec.topology}
        )

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Drain the service and release every owned resource.

        Idempotent: a second ``close()`` (or exiting the context manager
        after an explicit close) is a no-op, and closing with page-stream
        cursors still open simply releases their pinned snapshots — the
        cursors remain decodable and resume by re-execution on a fresh
        client.  Snapshot release is deterministic: it happens on this
        call even if a layer below fails to close cleanly.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.service.close()
            pipeline = self.service.pipeline
            if pipeline is not None and hasattr(pipeline, "close"):
                pipeline.close()
            if hasattr(self.store, "close"):
                self.store.close()
        finally:
            with self._snapshot_lock:
                self._snapshots.clear()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ queries
    def execute(self, query: Query, options: Optional[RequestOptions] = None) -> Response:
        """Serve one query; returns the uniform :class:`Response` envelope.

        With ``options.page_size`` / ``options.cursor`` set the response
        carries a :class:`~repro.api.response.ResultPage`; otherwise a
        full :class:`~repro.core.queries.QueryResult`.  A deadline partial
        either comes back with ``complete=False`` (policy ``"partial"``)
        or raises :class:`~repro.api.options.DeadlineExceededError`
        (policy ``"fail"``) — the expiry is counted in the service
        telemetry either way.
        """
        options = self._traced_options(options)
        started = time.perf_counter()
        ctx = (
            TraceContext(options.trace_id, options.trace_parent or "")
            if options.trace_id is not None
            else None
        )
        with get_tracer().span(
            "client.execute",
            ctx,
            query=type(query).__name__,
        ) as root:
            inner = self._child_options(options, root.span_id)
            if options.paginated:
                response = self._execute_page(query, inner, started)
            else:
                result = self.service.execute(
                    query, self._service_options(inner)
                )
                response = self._wrap_result(result, inner, started)
        self._maybe_slowlog(response)
        return response

    def submit(self, query: Query, options: Optional[RequestOptions] = None) -> "Future[Response]":
        """Admit one query asynchronously; resolves to a :class:`Response`.

        Paginated options are not accepted here — a page stream is an
        interactive, cursor-driven protocol; use :meth:`execute`.
        """
        options = self._traced_options(options)
        if options.paginated:
            raise ValueError("paginated requests must go through execute()")
        started = time.perf_counter()
        inner = self.service.submit(query, self._service_options(options))
        outer: "Future[Response]" = Future()

        def _done(f: "Future[QueryResult]") -> None:
            try:
                outer.set_result(self._wrap_result(f.result(), options, started))
            except BaseException as exc:
                outer.set_exception(exc)

        inner.add_done_callback(_done)
        return outer

    def execute_many(
        self, queries: Sequence[Query], options: Optional[RequestOptions] = None
    ) -> List[Response]:
        """Serve a whole workload, preserving input order."""
        futures = [self.submit(q, options) for q in queries]
        self.service.drain()
        return [f.result() for f in futures]

    def pages(
        self, query: Query, page_size: int, options: Optional[RequestOptions] = None
    ) -> Iterator[Response]:
        """Iterate every page of a paginated result (convenience)."""
        options = options if options is not None else _DEFAULT_OPTIONS
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
        """Insert one record through the deployment's write path."""
        return self._mutate("insert", file)

    def delete(self, file: FileMetadata) -> Response:
        """Delete one record (masked from queries immediately)."""
        return self._mutate("delete", file)

    def modify(self, file: FileMetadata) -> Response:
        """Replace one record's attribute values."""
        return self._mutate("modify", file)

    def _mutate(self, kind: str, file: FileMetadata) -> Response:
        started = time.perf_counter()
        tracer = get_tracer()
        # Continue the ambient trace when one is active (the server edge's
        # span), else start a fresh one per mutation.
        ctx = tracer.current() if tracer.enabled else None
        if ctx is None and tracer.enabled:
            ctx = TraceContext.new()
        trace_id = ctx.trace_id if ctx is not None else None
        with tracer.span("client.mutate", ctx, kind=kind):
            receipt = self.service.mutate(kind, file)
        response = Response(
            kind="mutation",
            latency_s=receipt.latency,
            wall_s=time.perf_counter() - started,
            receipt=receipt,
            attribution=self._attribution(),
            trace_id=trace_id,
        )
        self._maybe_slowlog(response)
        return response

    # ------------------------------------------------------------------ durability
    def checkpoint(self) -> Dict[str, object]:
        """Publish a segment snapshot through the deployment's storage.

        Every storage-backed layer of the topology publishes: a plain or
        durable deployment snapshots its one store, a replica group
        snapshots every member, a sharded deployment snapshots every
        shard (and every replica of every shard).  After this returns, a
        new ``connect`` with the same spec cold-starts from the published
        manifests in O(WAL tail).  Raises ``ValueError`` when the spec
        has no ``storage`` block.
        """
        store = self.store
        if isinstance(store, ShardRouter):
            return {"shards": store.checkpoint()}
        if isinstance(store, ReplicaGroup):
            return store.checkpoint()
        pipeline = self.service.pipeline
        if pipeline is not None and getattr(pipeline, "storage", None) is not None:
            return pipeline.checkpoint()
        raise ValueError(
            "checkpoint() needs a tiered-storage deployment "
            "(DeploymentSpec.storage with a root directory)"
        )

    # ------------------------------------------------------------------ elasticity
    def reshard(self, force: bool = False) -> Dict[str, object]:
        """One reshard-controller pass over a sharded deployment.

        Evaluates the router's live partition load and, when degenerate
        (or ``force=True``), rebalances — or splits, when fresh quantile
        cuts already match the placement — under traffic; see
        :class:`~repro.shard.reshard.ReshardController`.  Returns the
        outcome document (``performed``, ``action``, ``reason``, counts,
        the load snapshot).  Topologies without live shards (plain,
        durable, replicated, process-mode) report ``performed=False``
        with a reason instead of raising — elasticity is advisory.
        """
        store = self.store
        if not isinstance(store, ShardRouter):
            return {
                "performed": False,
                "reason": f"topology {self.topology!r} has no "
                "in-process shards to reshard",
                "action": "none",
            }
        with self._reshard_lock:
            if self._reshard_controller is None:
                self._reshard_controller = ReshardController(store)
            controller = self._reshard_controller
        return controller.run_once(force=force).as_dict()

    # ------------------------------------------------------------------ introspection
    @property
    def topology(self) -> str:
        return self.spec.topology

    def epoch(self) -> str:
        """The deployment's current version-clock snapshot, as a string.

        Comparable across reads of the same client; any mutation anywhere
        in the deployment changes it.  Cursors record it so a resume can
        tell whether it continued the pinned snapshot or a fresher result.
        """
        return repr(self.service.store.versioning.change_clock)

    def stats(self) -> Dict[str, object]:
        """One uniform statistics document for every topology."""
        return {
            "topology": self.topology,
            "spec": self.spec.to_dict(),
            "service": self.service.stats(),
            "store": self.store.stats(),
        }

    def _attribution(self) -> Dict[str, object]:
        if self._fixed_attribution is not None:
            return self._fixed_attribution
        d: Dict[str, object] = {"topology": self.topology}
        store = self.store
        if isinstance(store, ShardRouter):
            d["shards"] = store.num_shards
            d["execution"] = self.spec.execution
            down = store.dead_shards()
            if down:
                # Name the shards whose worker is gone, so an incomplete
                # response carries its own explanation.
                d["shards_down"] = down
            groups = store.replica_groups()
            if groups:
                d["replicas_per_shard"] = groups[0].num_replicas
                d["primaries"] = [g.primary_id for g in groups]
        elif isinstance(store, ReplicaGroup):
            d["replicas"] = store.num_replicas
            d["primary"] = store.primary_id
        return d

    # ------------------------------------------------------------------ tracing plumbing
    @staticmethod
    def _traced_options(options: Optional[RequestOptions]) -> RequestOptions:
        """Default options, with a fresh trace id attached when tracing is
        on and the caller did not bring one.  Trace fields never make the
        request constrained, so caching/batching behaviour is unchanged."""
        options = options if options is not None else _DEFAULT_OPTIONS
        if options.trace_id is None and get_tracer().enabled:
            options = replace(options, trace_id=TraceContext.new().trace_id)
        return options

    @staticmethod
    def _child_options(options: RequestOptions, span_id: str) -> RequestOptions:
        """Re-parent the options under the client's root span."""
        if options.trace_id is None or not span_id:
            return options
        return replace(options, trace_parent=span_id)

    @staticmethod
    def _service_options(options: RequestOptions) -> Optional[RequestOptions]:
        """What the service layer receives: the options object when it
        constrains the request *or* carries a trace (the service reads the
        trace fields but treats the request as unconstrained), else None —
        exactly the legacy call shape for plain requests."""
        return options if options.constrained or options.traced else None

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
            epoch=self.epoch(),
            spans=spans,
        )

    # ------------------------------------------------------------------ envelope plumbing
    def _wrap_result(
        self, result: QueryResult, options: RequestOptions, started: float
    ) -> Response:
        expired = options.deadline_s is not None and not result.complete
        self._enforce_completeness(options, expired, result.complete)
        return Response(
            kind="query",
            latency_s=result.latency,
            wall_s=time.perf_counter() - started,
            complete=result.complete,
            deadline_expired=expired,
            result=result,
            attribution=self._attribution(),
            trace_id=options.trace_id,
        )

    def _enforce_completeness(
        self, options: RequestOptions, expired: bool, complete: bool
    ) -> None:
        """Apply the caller's ``on_deadline`` policy to an incomplete result.

        A deadline expiry raises :class:`DeadlineExceededError`; a result
        that is incomplete for any *other* reason — a shard worker process
        died mid-scatter — raises :class:`PartialResultError` instead.
        Policy ``"partial"`` (the default) returns the incomplete payload
        either way, with the failed shards named in the attribution.
        """
        if complete or options.on_deadline != "fail":
            return
        if expired:
            raise DeadlineExceededError(
                f"deadline of {options.deadline_s}s expired before the query "
                f"completed"
            )
        down = (
            self.store.dead_shards() if isinstance(self.store, ShardRouter) else []
        )
        raise PartialResultError(
            "query returned an incomplete result"
            + (f"; shards down: {down}" if down else "")
        )

    # ------------------------------------------------------------------ pagination
    def _run_full(self, query: Query, options: RequestOptions) -> QueryResult:
        stripped = replace(options, page_size=None, cursor=None)
        return self.service.execute(query, self._service_options(stripped))

    def _pin(self, snapshot: _Snapshot) -> str:
        with self._snapshot_lock:
            self._cursor_counter += 1
            sid = f"s{self._cursor_counter}"
            self._snapshots[sid] = snapshot
            while len(self._snapshots) > SNAPSHOT_LIMIT:
                self._snapshots.popitem(last=False)
        return sid

    def _pinned(self, sid: str) -> Optional[_Snapshot]:
        with self._snapshot_lock:
            snapshot = self._snapshots.get(sid)
            if snapshot is not None:
                self._snapshots.move_to_end(sid)
            return snapshot

    @staticmethod
    def _keys(
        query: Query, files: List[FileMetadata], distances: List[float]
    ) -> List[CursorKey]:
        """Canonical resume keys, matching the engine's result order."""
        if isinstance(query, TopKQuery):
            return [(d, f.file_id) for d, f in zip(distances, files)]
        return [f.file_id for f in files]

    def _execute_page(
        self, query: Query, options: RequestOptions, started: float
    ) -> Response:
        if options.cursor is not None:
            cursor = Cursor.decode(options.cursor)
            if not cursor.matches(query):
                raise InvalidCursorError(
                    "cursor belongs to a different query; present it with the "
                    "query that created it"
                )
            page_size = cursor.page_size
            snapshot = self._pinned(cursor.snapshot_id)
            sid: Optional[str]
            if snapshot is not None:
                files, distances, epoch, complete, _ = snapshot
                offset, pinned, sid, latency = cursor.offset, True, cursor.snapshot_id, 0.0
            else:
                # The pinned snapshot is gone (restart / LRU eviction):
                # re-execute at the current epoch and continue strictly
                # after the last served key.  Both canonical orders are
                # placement-independent, so this works on any topology —
                # including one that failed over or resharded meanwhile.
                result = self._run_full(query, options)
                keys = self._keys(query, result.files, result.distances)
                skip = 0
                if cursor.last_key is not None:
                    while skip < len(keys) and keys[skip] <= cursor.last_key:
                        skip += 1
                files = result.files[skip:]
                distances = result.distances[skip:] if result.distances else []
                epoch, complete, latency = self.epoch(), result.complete, result.latency
                sid = None  # pinned below only if the stream continues
                offset, pinned = 0, False
            page_index = cursor.page_index
        else:
            page_size = options.page_size or 0
            result = self._run_full(query, options)
            files, distances = result.files, result.distances
            epoch, complete, latency = self.epoch(), result.complete, result.latency
            sid = None  # pinned below only if the stream continues
            offset, pinned, page_index = 0, True, 0

        expired = options.deadline_s is not None and not complete
        self._enforce_completeness(options, expired, complete)

        end = offset + page_size
        page_files = files[offset:end]
        page_distances = distances[offset:end] if distances else []
        next_cursor: Optional[str] = None
        if end < len(files):
            # More pages remain: pin the result now (single-page streams
            # never enter the snapshot store at all).
            if sid is None:
                sid = self._pin((files, distances, epoch, complete, latency))
            keys = self._keys(query, page_files, page_distances)
            next_cursor = Cursor(
                query_fp=query_fingerprint(query),
                snapshot_id=sid,
                offset=end,
                last_key=keys[-1] if keys else None,
                epoch=epoch,
                page_size=page_size,
                page_index=page_index + 1,
            ).encode()
        elif sid is not None:
            # Final page served from a pinned snapshot: release it —
            # the cursor stream is exhausted and can never present it.
            with self._snapshot_lock:
                self._snapshots.pop(sid, None)
        page = ResultPage(
            files=list(page_files),
            distances=list(page_distances),
            index=page_index,
            cursor=next_cursor,
            pinned=pinned,
        )
        return Response(
            kind="page",
            latency_s=latency,
            wall_s=time.perf_counter() - started,
            complete=complete,
            deadline_expired=expired,
            page=page,
            attribution=self._attribution(),
            trace_id=options.trace_id,
        )
