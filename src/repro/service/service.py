"""The concurrent query service layered over a built SmartStore.

A :class:`QueryService` turns the library facade into serving
infrastructure:

* requests are **admitted** (bounded in-flight window, blocking or
  rejecting), **batched** (window of submissions) and **coalesced**
  (identical queries execute once per batch);
* a closed-loop ``execute`` or ``mutate`` is served **on the thread that
  asked**, start to finish; the unique queries of a batch that need the
  engine run one after another on the batch's dispatcher thread — reads on
  either path through the deployment's ``execute(query, ctx)``;
* every request carries a **deterministic seed and home unit**, a pure
  function of its admission order (drawn only if the engine is reached),
  so results *and* simulated-cost accounting are reproducible regardless
  of thread scheduling;
* results are served from a versioning-aware :class:`ResultCache` when
  possible, and every request is recorded once, in the registry series
  :class:`ServiceTelemetry` binds.

Typical use::

    from repro import SmartStore, SmartStoreConfig
    from repro.service import QueryService, ServiceConfig

    store = SmartStore.build(files, SmartStoreConfig(num_units=20))
    with QueryService(store, ServiceConfig(batch_window=16)) as service:
        results = service.execute_many(queries)
        print(service.stats()["telemetry"]["classes"]["topk"])

Correctness contract: with caching and batching enabled the service returns
results whose payload (files, distances, found) is byte-identical to direct
``store.execute`` calls over the same workload — verified by
``tests/test_service_cache.py`` and re-checked by ``repro bench serve``.

The service runs unchanged over every store-shaped backend —
:class:`~repro.core.smartstore.SmartStore`,
:class:`~repro.shard.router.ShardRouter`,
:class:`~repro.replication.group.ReplicaGroup` — because it consumes one
read surface: ``store.execute(query, ctx)``, where ``ctx`` is the
:class:`~repro.core.queries.ReadContext` packed here from the admitted
request (deterministic home unit, started deadline, consistency
preference) and forwarded whole by every hop below.  Beside it the
service uses ``store.cluster.unit_ids()`` (the home-unit domain),
``store.versioning`` (the cache epoch — a composite clock on routers and
groups) and ``store.default_pipeline()`` (the write path).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.concurrency import ReadWriteLock
from repro.core.queries import QueryResult, ReadContext
from repro.core.smartstore import SmartStore
from repro.ingest.pipeline import IngestPipeline, MutationReceipt
from repro.metadata.file_metadata import FileMetadata
from repro.obs import TraceContext, get_tracer
from repro.service.batching import (
    AdmissionController,
    RequestBatcher,
    ServiceOverloadedError,
    ServiceRequest,
)
from repro.service.cache import ResultCache
from repro.service.telemetry import ServiceTelemetry
from repro.workloads.types import Query

__all__ = ["ServiceConfig", "QueryService"]


def _trace_context(options) -> Optional[TraceContext]:
    """The trace context a request's options carry (None when untraced)."""
    trace_id = getattr(options, "trace_id", None) if options is not None else None
    if trace_id is None:
        return None
    return TraceContext(trace_id, getattr(options, "trace_parent", None) or "")


#: One coalesced group: the leader that executes and the requests riding it.
_Group = Tuple[ServiceRequest, Sequence[ServiceRequest]]

# Engine query execution (closed-loop callers, the dispatcher) takes the
# read side; mutation application and compaction (the mutating caller, or
# the dispatcher thread for a submit_*) take the write side, so structural
# updates to the servers, the semantic R-tree and the population map never
# interleave with a scan.  The primitive moved to
# repro.concurrency (the shard layer reuses it for topology changes); the
# private alias keeps this module's call sites and history readable.
_ReadWriteLock = ReadWriteLock


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a query service.

    ``max_in_flight`` bounds admitted-but-uncompleted requests (the
    admission window) and must be at least ``batch_window`` — otherwise a
    batch could never fill while every buffered request holds a slot.
    The engine concurrency of closed-loop callers is bounded by the callers
    themselves and by ``max_in_flight``.
    """

    batch_window: int = 32
    max_in_flight: int = 256
    cache_enabled: bool = True
    batching_enabled: bool = True
    cache_capacity: int = 2048
    negative_capacity: int = 8192
    block_on_overload: bool = True
    #: Run the ingest pipeline's policy-driven compaction after each
    #: mutation, on the thread that applied it (a cheap no-op while nothing
    #: is due).
    auto_compact: bool = True
    seed: int = 7

    def __post_init__(self) -> None:
        if self.batch_window < 1:
            raise ValueError("batch_window must be >= 1")
        if self.max_in_flight < self.batch_window:
            raise ValueError(
                "max_in_flight must be >= batch_window "
                f"({self.max_in_flight} < {self.batch_window})"
            )


class QueryService:
    """Concurrent, cached, batched query execution over one deployment.

    ``store`` is any backend answering ``execute(query, ctx)`` (see the
    module docstring for the surface the service consumes).
    """

    def __init__(
        self,
        store: SmartStore,
        config: Optional[ServiceConfig] = None,
        *,
        pipeline: Optional[IngestPipeline] = None,
    ) -> None:
        self.store = store
        self.config = config if config is not None else ServiceConfig()
        # The durable write path.  A caller-supplied pipeline brings its own
        # WAL/compaction policy; otherwise a volatile one (read-your-writes staging,
        # no log) is created lazily on the first mutation.
        self.pipeline = pipeline
        self.telemetry = ServiceTelemetry()
        self.admission = AdmissionController(
            self.config.max_in_flight, block=self.config.block_on_overload
        )
        self.batcher = RequestBatcher(self.config.batch_window)
        self.cache: Optional[ResultCache] = None
        if self.config.cache_enabled:
            self.cache = ResultCache(
                self.config.cache_capacity,
                negative_capacity=self.config.negative_capacity,
                versioning=store.versioning,
                cost_model=store.config.cost_model,
            )
        # Full batches are handed to a single dispatcher thread so that
        # submit() never blocks on batch execution (an open-loop submitter
        # must keep its arrival schedule); one thread keeps batch order —
        # and therefore cache warm-up order — deterministic.
        self._dispatcher = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-qs-batch"
        )
        self._dispatch_lock = threading.Lock()
        self._dispatch_futures: List[Future] = []
        self._unit_ids = np.asarray(store.cluster.unit_ids(), dtype=np.int64)
        self._id_lock = threading.Lock()
        self._next_request_id = 0
        # Readers: engine query execution; writer: mutation + compaction.
        self._state_lock = _ReadWriteLock()
        self._pipeline_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Drain outstanding work and shut the dispatcher down."""
        if self._closed:
            return
        self.drain()
        self._closed = True
        if self.cache is not None:
            self.cache.detach()
        self._dispatcher.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ request plumbing
    def _admit(self, query: Query, options=None, future=None) -> ServiceRequest:
        """Take an admission slot (blocking or rejecting, per the config) and
        mint the request (its id, so admission order is identity order).  The
        deadline clock starts before the wait, so queueing counts against
        the budget."""
        if self._closed:
            raise RuntimeError("service is closed")
        deadline = options.start() if options is not None else None
        with get_tracer().span("service.admission", _trace_context(options)):
            admitted = self.admission.admit()
        if not admitted:
            self.telemetry.record_rejection()
            raise ServiceOverloadedError(
                f"admission limit of {self.config.max_in_flight} requests reached"
            )
        return self._new_request(query, options, deadline, future)

    def _new_request(
        self, query: Query, options=None, deadline=None, future=None
    ) -> ServiceRequest:
        with self._id_lock:
            request_id = self._next_request_id
            self._next_request_id += 1
        return ServiceRequest(
            request_id,
            query,
            draw=self._draw_identity,
            future=future,
            options=options,
            deadline=deadline,
        )

    def _draw_identity(self, request_id: int) -> Tuple[int, int]:
        """``(seed, home_unit)`` of one request id.

        A pure function of (service seed, admission order): neither thread
        scheduling nor how many requests were drawn before can change any
        request's accounting.  The request calls this on first read, so only
        requests that reach the engine pay for the ``Generator``; the seed
        is kept beside the home unit to make the draw replayable when
        debugging.
        """
        rng = np.random.default_rng([self.config.seed, request_id])
        seed = int(rng.integers(1 << 62))
        home = int(self._unit_ids[rng.integers(len(self._unit_ids))])
        return seed, home

    @staticmethod
    def _constrained(options) -> bool:
        return options is not None and getattr(options, "constrained", False)

    @staticmethod
    def _read_context(request: ServiceRequest) -> ReadContext:
        """Pack the request's read options — the one place they are packed;
        every layer below forwards the context whole."""
        options = request.options
        return ReadContext(
            home_unit=request.home_unit,
            deadline=request.deadline,
            consistency=getattr(options, "consistency", "primary"),
            max_staleness=getattr(options, "max_staleness", 0),
        )

    def _execute_on_engine(self, request: ServiceRequest) -> QueryResult:
        query = request.query
        # The span sets this thread's trace context, so the router /
        # replica / WAL spans below parent under it automatically.
        with get_tracer().span(
            "service.engine",
            _trace_context(request.options),
            request_id=request.request_id,
            query=type(query).__name__,
        ) as engine_span:
            deadline = request.deadline
            if deadline is not None and deadline.expired():
                # Admission wait ate the whole budget: no engine work starts
                # (and no home unit is drawn for it).
                self.telemetry.record_deadline_expiry()
                engine_span.tag(deadline_expired=True)
                return QueryResult.empty()
            ctx = self._read_context(request)
            # Read side of the state lock: mutations/compaction (write side)
            # restructure the very servers and tree nodes a scan walks.
            with self._state_lock.read_locked():
                result = self.store.execute(query, ctx)
            if deadline is not None and not result.complete:
                self.telemetry.record_deadline_expiry()
                engine_span.tag(deadline_expired=True)
            engine_span.tag(complete=result.complete)
        # A replicated store (ShardRouter over replica groups, or a bare
        # ReplicaGroup) surfaces failover/degraded-read events; fold any
        # new ones into the service telemetry.
        drain = getattr(self.store, "drain_replication_events", None)
        if drain is not None:
            events = drain()
            if events:
                self.telemetry.record_replication_events(events)
        return result

    # ------------------------------------------------------------------ serving
    def _serve(
        self,
        leader: ServiceRequest,
        followers: Sequence[ServiceRequest] = (),
        *,
        epoch,
        park: Optional[List[_Group]] = None,
        looked_up: bool = False,
    ) -> Optional[QueryResult]:
        """Serve one coalesced group, start to finish, on the calling thread.

        The one serve function: cache look-up; on a miss the engine step and
        ``cache.store`` (dropped there if ``epoch``, the versioning clock
        snapshotted before any engine work, has moved on); telemetry; every
        waiter resolved; and the group's admission slots released exactly
        once on every exit.  An exception — the engine's, say — reaches the
        caller with nothing stored and nothing observed (a batch passes it on
        to the group's waiters).

        A batch goes through here twice, so that all of its look-ups precede
        all of its stores.  With ``park`` (a list) a group that misses the
        cache is parked there, slots still held, instead of executed; the
        batch then serves each parked group again with ``looked_up``, which
        skips the look-up the group already made.
        """
        slots = 1 + len(followers)
        try:
            query = leader.query
            # Constrained requests (deadline / relaxed consistency) are not
            # interchangeable with plain ones: they neither read nor warm
            # the cache.
            cache = None if self._constrained(leader.options) else self.cache
            hit = None
            if cache is not None and not looked_up:
                with get_tracer().span(
                    "service.cache_lookup", _trace_context(leader.options)
                ) as lookup_span:
                    hit = cache.lookup(query)
                    lookup_span.tag(
                        hit=hit is not None,
                        source=hit.source if hit is not None else "miss",
                    )
            if hit is not None:
                result, source = hit.result, hit.source
            elif park is not None:
                park.append((leader, followers))
                slots = 0
                return None
            else:
                result = self._execute_on_engine(leader)
                source = "engine"
                if cache is not None:
                    cache.store(query, result, epoch=epoch)
            self.telemetry.observe(query, result.latency, source=source)
            leader.resolve(result)
            for follower in followers:
                # Zero-work marker span: this request rode the leader's batch.
                with get_tracer().span(
                    "service.batch_ride",
                    _trace_context(follower.options),
                    leader_request_id=leader.request_id,
                ):
                    pass
                self.telemetry.observe(
                    follower.query, result.latency, source="coalesced"
                )
                follower.resolve(result)
            return result
        finally:
            if slots:
                self.admission.release(slots)

    # ------------------------------------------------------------------ batch execution
    def _dispatch_batch(self, requests: List[ServiceRequest]) -> None:
        """Queue a batch for asynchronous processing on the dispatcher."""
        if not requests:
            return
        self._enqueue(self._dispatcher.submit(self._process_batch, requests))

    def _enqueue(self, task: Future) -> None:
        with self._dispatch_lock:
            self._dispatch_futures = [
                f for f in self._dispatch_futures if not f.done()
            ]
            self._dispatch_futures.append(task)

    def _serve_waiters(self, leader, followers, **how) -> None:
        """``_serve`` for a group whose members wait on futures: a failure
        goes to them (``_serve`` has released their slots) and, unless the
        interpreter is on its way out, stops there — the rest of the batch
        is still owed its answers."""
        try:
            self._serve(leader, followers, **how)
        except BaseException as exc:
            for request in (leader, *followers):
                request.fail(exc)
            if not isinstance(exc, Exception):
                raise

    def _process_batch(self, requests: List[ServiceRequest]) -> None:
        if not requests:
            return
        try:
            # Snapshot the versioning clock before any engine work: a
            # metadata mutation racing with this batch flushes the cache,
            # and results computed against the pre-mutation state must not
            # be stored back after that flush (store() drops them).
            epoch = self.store.versioning.change_clock
            parked: List[_Group] = []
            for _query, members in self.batcher.coalesce(requests):
                self._serve_waiters(
                    members[0], members[1:], epoch=epoch, park=parked
                )
            # The parked leaders' engine steps run here, in order.
            for leader, followers in parked:
                self._serve_waiters(leader, followers, epoch=epoch, looked_up=True)
        except BaseException as exc:
            # Fail-and-release only requests not yet resolved: resolved
            # (or failed) ones already released their admission slot, and
            # releasing twice would silently raise the effective admission
            # limit.
            for request in requests:
                if request.future is not None and not request.future.done():
                    request.fail(exc)
                    self.admission.release()
            raise

    # ------------------------------------------------------------------ public API
    def submit(self, query: Query, options=None) -> "Future[QueryResult]":
        """Admit one request; returns a future resolving to its result.

        With batching enabled the request may wait in the current window
        until the window fills or :meth:`drain` runs.  When the admission
        limit is reached the call blocks (default) or raises
        :class:`ServiceOverloadedError` (``block_on_overload=False``).

        ``options`` is an optional
        :class:`~repro.api.options.RequestOptions`: its deadline clock
        starts *here* (admission wait counts against the budget) and a
        constraining options object makes the request bypass the batching
        window and the result cache — a deadline partial or a
        relaxed-consistency read must never be served to a plain caller.
        """
        future: "Future[QueryResult]" = Future()
        request = self._admit(query, options, future)
        if self.config.batching_enabled and not self._constrained(options):
            full_batch = self.batcher.add(request)
            if full_batch is not None:
                self._dispatch_batch(full_batch)
        else:
            self._dispatch_batch([request])
        return future

    def execute(self, query: Query, options=None) -> QueryResult:
        """Serve one request to completion on the calling thread.

        Closed-loop clients use this: the request goes through admission,
        the cache, the engine (under the read side of the state lock) and
        telemetry without changing threads, waiting for a batching window
        or allocating a future.  An exception from the backend reaches the
        caller with the admission slot released.  ``options`` behaves as in
        :meth:`submit`.
        """
        request = self._admit(query, options)
        return self._serve(request, epoch=self.store.versioning.change_clock)

    def execute_many(self, queries: Sequence[Query]) -> List[QueryResult]:
        """Serve a whole workload, preserving input order in the results."""
        futures = [self.submit(query) for query in queries]
        self.drain()
        return [f.result() for f in futures]

    # ------------------------------------------------------------------ mutations
    def _ensure_pipeline(self) -> IngestPipeline:
        # Locked: two threads racing the first mutation must not create two
        # pipelines whose overlays would clobber each other on the store.
        # The store decides what its write path looks like: a SmartStore
        # hands back a volatile IngestPipeline, a ShardRouter hands back
        # itself (mutations are then routed to the per-shard pipelines).
        with self._pipeline_lock:
            if self.pipeline is None:
                self.pipeline = self.store.default_pipeline()
            return self.pipeline

    def _admit_mutation(self) -> IngestPipeline:
        """Take a mutation's admission slot and put it in order.

        Mutations share the admission window with queries (backpressure
        applies to writers too).  The partial batch buffered before the
        mutation is flushed to the dispatcher first, so those queries observe
        the pre-mutation state, while anything submitted afterwards observes
        the mutation — read-your-writes through the service.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        if not self.admission.admit():
            self.telemetry.record_rejection()
            raise ServiceOverloadedError(
                f"admission limit of {self.config.max_in_flight} requests reached"
            )
        pipeline = self._ensure_pipeline()
        if self.config.batching_enabled:
            self._dispatch_batch(self.batcher.flush())
        return pipeline

    def _apply_mutation(
        self, pipeline: IngestPipeline, kind: str, file: FileMetadata
    ) -> MutationReceipt:
        """Apply one admitted mutation on the calling thread and release its
        slot, exactly once, on every exit.

        The write side of the state lock: closed-loop ``execute`` calls hold
        the read side around the engine, so each such read observes the
        store atomically before or after a mutation, never mid-application.
        The mutation bumps the versioning change clock, which flushes the
        result cache; any in-flight read that snapshotted an older epoch sees
        its ``store()`` dropped as stale.
        """
        try:
            with self._state_lock.write_locked():
                receipt: MutationReceipt = getattr(pipeline, kind)(file)
                if self.config.auto_compact:
                    pipeline.compactor.run_once()
            self.telemetry.observe_mutation(kind, receipt.latency)
            return receipt
        finally:
            self.admission.release()

    def mutate(self, kind: str, file: FileMetadata) -> MutationReceipt:
        """Apply one mutation (``"insert"`` / ``"delete"`` / ``"modify"``) to
        completion on the calling thread.

        The closed-loop form, as :meth:`execute` is for reads: no change
        of thread, no future.  Anything already queued on the dispatcher —
        the batch just flushed, an un-awaited ``submit_*`` — finishes first,
        so it still orders before this mutation; a failure among it stays
        queued for :meth:`drain`.  An exception from the pipeline reaches
        the caller as itself.
        """
        pipeline = self._admit_mutation()
        with self._dispatch_lock:
            queued = [f for f in self._dispatch_futures if not f.done()]
        if queued:
            wait(queued)
        return self._apply_mutation(pipeline, kind, file)

    def _submit_mutation(self, kind: str, file: FileMetadata) -> "Future[MutationReceipt]":
        """The open-loop form of :meth:`mutate`: the same two steps, the
        second on the dispatcher thread, in order with the batches and
        mutations submitted before it; its outcome goes to the future."""
        pipeline = self._admit_mutation()
        future: "Future[MutationReceipt]" = Future()

        def resolve() -> None:
            try:
                future.set_result(self._apply_mutation(pipeline, kind, file))
            except BaseException as exc:
                future.set_exception(exc)

        self._enqueue(self._dispatcher.submit(resolve))
        return future

    def submit_insert(self, file: FileMetadata) -> "Future[MutationReceipt]":
        """Insert one record; later queries reflect it immediately.

        Durability requires constructing the service with a WAL-backed
        :class:`~repro.ingest.pipeline.IngestPipeline`; the lazily-created
        default pipeline stages in memory only (no log).
        """
        return self._submit_mutation("insert", file)

    def submit_delete(self, file: FileMetadata) -> "Future[MutationReceipt]":
        """Delete one record; later queries mask it immediately.

        Durable only with a caller-supplied WAL-backed pipeline (see
        :meth:`submit_insert`).
        """
        return self._submit_mutation("delete", file)

    def submit_modify(self, file: FileMetadata) -> "Future[MutationReceipt]":
        """Replace one record's attribute values.

        Durable only with a caller-supplied WAL-backed pipeline (see
        :meth:`submit_insert`).
        """
        return self._submit_mutation("modify", file)

    def drain(self) -> None:
        """Flush the partial batching window and wait for in-flight work."""
        self._dispatch_batch(self.batcher.flush())
        while True:
            with self._dispatch_lock:
                if not self._dispatch_futures:
                    break
                future = self._dispatch_futures.pop(0)
            future.result()  # surfaces dispatcher-side failures
        self.admission.drain()

    # ------------------------------------------------------------------ introspection
    def stats(self) -> dict:
        """Service-level statistics (telemetry + cache + admission)."""
        d = {
            "telemetry": self.telemetry.as_dict(),
            "admitted": self.admission.admitted,
            "rejected": self.admission.rejected,
            "batches_formed": self.batcher.batches_formed,
            "coalesced_requests": self.batcher.coalesced_requests,
        }
        if self.cache is not None:
            d["cache"] = self.cache.stats.as_dict()
        if self.pipeline is not None:
            d["ingest"] = self.pipeline.stats()
        if hasattr(self.store, "replica_groups"):  # replicated ShardRouter
            replication = self.store.stats().get("replication")
            if replication is not None:
                d["replication"] = replication
        elif hasattr(self.store, "members"):  # bare ReplicaGroup
            d["replication"] = self.store.stats()
        return d

    def __repr__(self) -> str:
        return (
            f"QueryService(store={self.store!r}, "
            f"batch_window={self.config.batch_window}, "
            f"cache={'on' if self.cache is not None else 'off'}, "
            f"batching={'on' if self.config.batching_enabled else 'off'})"
        )
