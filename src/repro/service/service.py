"""The concurrent query service layered over a built SmartStore.

A :class:`QueryService` turns the library facade into serving
infrastructure:

* requests are **admitted** (bounded in-flight window, blocking or
  rejecting);
* ``execute`` and ``mutate`` are the only ways in, and each is served
  **on the thread that asked**, start to finish — reads through the
  deployment's ``execute(query, ctx)``; ``execute_many`` is a loop of
  ``execute``;
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
    with QueryService(store, ServiceConfig(cache_capacity=4096)) as service:
        results = service.execute_many(queries)
        print(service.stats()["telemetry"]["classes"]["topk"])

Correctness contract: with caching enabled the service returns
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
from dataclasses import dataclass
from typing import ContextManager, List, Optional, Sequence, Tuple

import numpy as np

from repro.concurrency import ReadWriteLock
from repro.core.queries import QueryResult, ReadContext
from repro.core.smartstore import SmartStore
from repro.ingest.pipeline import IngestPipeline, MutationReceipt
from repro.metadata.file_metadata import FileMetadata
from repro.obs import TraceContext, get_tracer
from repro.service.admission import (
    AdmissionController,
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


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a query service.

    ``max_in_flight`` bounds admitted-but-uncompleted requests (the
    admission window).  The engine concurrency of callers is bounded by the
    callers themselves and by ``max_in_flight``.
    """

    max_in_flight: int = 256
    cache_enabled: bool = True
    cache_capacity: int = 2048
    negative_capacity: int = 8192
    block_on_overload: bool = True
    #: Run the ingest pipeline's policy-driven compaction after each
    #: mutation, on the thread that applied it (a cheap no-op while nothing
    #: is due).
    auto_compact: bool = True
    seed: int = 7

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {self.max_in_flight}")


class QueryService:
    """Concurrent, cached query execution over one deployment.

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
        self.cache: Optional[ResultCache] = None
        if self.config.cache_enabled:
            self.cache = ResultCache(
                self.config.cache_capacity,
                negative_capacity=self.config.negative_capacity,
                versioning=store.versioning,
                cost_model=store.config.cost_model,
            )
        self._unit_ids = np.asarray(store.cluster.unit_ids(), dtype=np.int64)
        self._id_lock = threading.Lock()
        self._next_request_id = 0
        # Readers: engine query execution; writer: mutation + compaction, so
        # structural updates to the servers, the semantic R-tree and the
        # population map never interleave with a scan.
        self._state_lock = ReadWriteLock()
        self._pipeline_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Wait for every admitted request to finish, then refuse new ones."""
        if self._closed:
            return
        self.admission.drain()
        self._closed = True
        if self.cache is not None:
            self.cache.detach()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ request plumbing
    def _admit(self, query: Query, options=None) -> ServiceRequest:
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
            raise self._rejected()
        return self._new_request(query, options, deadline)

    def _rejected(self) -> ServiceOverloadedError:
        """Count a rejection; the error to raise for it."""
        self.telemetry.record_rejection()
        return ServiceOverloadedError(
            f"admission limit of {self.config.max_in_flight} requests reached"
        )

    def _new_request(
        self, query: Query, options=None, deadline=None
    ) -> ServiceRequest:
        with self._id_lock:
            request_id = self._next_request_id
            self._next_request_id += 1
        return ServiceRequest(
            request_id,
            query,
            draw=self._draw_identity,
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
    def _serve(self, request: ServiceRequest) -> QueryResult:
        """Serve one admitted request, start to finish, on the calling thread.

        Cache look-up; on a miss the engine step and ``cache.store``
        (dropped there if the versioning clock has moved on since it was
        snapshotted here, before any engine work); telemetry; and the
        admission slot released exactly once on every exit.  An exception —
        the engine's, say — reaches the caller with nothing stored and
        nothing observed.
        """
        try:
            epoch = self.store.versioning.change_clock
            query, options = request.query, request.options
            # Constrained requests (deadline / relaxed consistency) are not
            # interchangeable with plain ones: they neither read nor warm
            # the cache.
            constrained = options is not None and getattr(options, "constrained", False)
            cache = None if constrained else self.cache
            hit = None
            if cache is not None:
                with get_tracer().span(
                    "service.cache_lookup", _trace_context(options)
                ) as lookup_span:
                    hit = cache.lookup(query)
                    lookup_span.tag(
                        hit=hit is not None,
                        source=hit.source if hit is not None else "miss",
                    )
            if hit is not None:
                result, source = hit.result, hit.source
            else:
                result = self._execute_on_engine(request)
                source = "engine"
                if cache is not None:
                    cache.store(query, result, epoch=epoch)
            self.telemetry.observe(query, result.latency, source=source)
            return result
        finally:
            self.admission.release()

    # ------------------------------------------------------------------ public API
    def execute(self, query: Query, options=None) -> QueryResult:
        """Serve one request to completion on the calling thread.

        The request goes through admission, the cache, the engine (under
        the read side of the state lock) and telemetry without changing
        threads or allocating a future.  When the admission limit is reached
        the call blocks (default) or raises :class:`ServiceOverloadedError`
        (``block_on_overload=False``).  An exception from the backend
        reaches the caller with the admission slot released.

        ``options`` is an optional
        :class:`~repro.api.options.RequestOptions`: its deadline clock
        starts *here* (admission wait counts against the budget) and a
        constraining options object makes the request bypass the result
        cache — a deadline partial or a relaxed-consistency read must never
        be served to a plain caller.
        """
        return self._serve(self._admit(query, options))

    def execute_many(self, queries: Sequence[Query]) -> List[QueryResult]:
        """Serve a whole workload, in order: one :meth:`execute` per query."""
        return [self.execute(query) for query in queries]

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

    def mutate(self, kind: str, file: FileMetadata) -> MutationReceipt:
        """Apply one mutation (``"insert"`` / ``"delete"`` / ``"modify"``) to
        completion on the calling thread, as :meth:`execute` does a read.

        Mutations share the admission window with queries (backpressure
        applies to writers too), and the slot is released exactly once on
        every exit.  The mutation takes the write side of the state lock:
        ``execute`` holds the read side around the engine, so each read
        observes the store atomically before or after a mutation, never
        mid-application.  The mutation bumps the versioning change clock,
        which flushes the result cache; any in-flight read that snapshotted
        an older epoch sees its ``store()`` dropped as stale.  An exception
        from the pipeline reaches the caller as itself.

        Durability requires constructing the service with a WAL-backed
        :class:`~repro.ingest.pipeline.IngestPipeline`; the lazily-created
        default pipeline stages in memory only (no log).
        """
        if self._closed:
            raise RuntimeError("service is closed")
        if not self.admission.admit():
            raise self._rejected()
        try:
            pipeline = self._ensure_pipeline()
            with self._state_lock.write_locked():
                receipt: MutationReceipt = getattr(pipeline, kind)(file)
                if self.config.auto_compact:
                    pipeline.compactor.run_once()
            self.telemetry.observe_mutation(kind, receipt.latency)
            return receipt
        finally:
            self.admission.release()

    def exclusive(self) -> ContextManager[None]:
        """The write side of the state lock, for a caller outside
        :meth:`mutate` that restructures what reads scan (a checkpoint's
        drain): held, no :meth:`execute` is inside the engine."""
        return self._state_lock.write_locked()

    # ------------------------------------------------------------------ introspection
    def stats(self) -> dict:
        """Service-level statistics (telemetry + cache + admission)."""
        d = {
            "telemetry": self.telemetry.as_dict(),
            "admitted": self.admission.admitted,
            "rejected": self.admission.rejected,
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
            f"cache={'on' if self.cache is not None else 'off'})"
        )
