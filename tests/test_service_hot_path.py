"""The service's read path, counted not timed.

A closed-loop ``QueryService.execute`` runs to completion on the thread that
asked; only a batch with two or more engine-bound leaders uses the pool; a
request's ``(seed, home_unit)`` is a pure function of ``(service seed,
request id)`` that is drawn only when the engine is reached.  Nothing here
looks at a clock: the tests count threads, constructor calls and registry
look-ups, and compare whole op streams against digests recorded at the
commit before the read path was rewritten (53e436c), so CI guards the path
on any machine.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import Client, DeploymentSpec, RequestOptions, connect
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.metadata.file_metadata import FileMetadata
from repro.obs import (
    MetricsRegistry,
    TraceContext,
    Tracer,
    get_registry,
    get_tracer,
    set_registry,
    set_tracer,
)
from repro.service import (
    QueryService,
    ServiceConfig,
    ServiceOverloadedError,
    ServiceRequest,
    repeated_stream,
    result_fingerprint,
)
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery

from helpers import make_files

STORE_CONFIG = SmartStoreConfig(num_units=8, seed=3)
PLAIN = DeploymentSpec(topology="plain", store=STORE_CONFIG)


@pytest.fixture(scope="module")
def population():
    return make_files(120, clusters=4)


def build_store(population):
    return SmartStore.build(population, STORE_CONFIG)


class RecordingStore:
    """A real store behind a proxy that notes which thread ran each
    ``execute`` — and can be told to raise, or to bump the versioning clock
    mid-read the way a racing mutation would."""

    def __init__(self, store, *, raises=None, touch=False):
        self._store = store
        self.raises = raises
        self.touch = touch
        self.threads = []  # (ident, name) per execute call

    def __getattr__(self, name):
        return getattr(self._store, name)

    def execute(self, query, ctx=None):
        thread = threading.current_thread()
        self.threads.append((thread.ident, thread.name))
        if self.raises is not None:
            raise self.raises
        result = self._store.execute(query, ctx)
        if self.touch:
            self._store.versioning.touch()
        return result


# ---------------------------------------------------------------------------- identity goldens
#: ``(seed, home_unit)`` of request ids 0-7 under ``ServiceConfig(seed=7)``
#: over the 8-unit store above, as drawn eagerly at admission by 53e436c.
IDENTITIES_SEED_7 = [
    (2882744023523087010, 5),
    (3551648255961093939, 7),
    (1281911663930453127, 1),
    (4496548607185794417, 4),
    (942944635368671404, 6),
    (87633568414753693, 7),
    (2236969164821320619, 6),
    (776828866586737513, 3),
]

#: Digests of the 1,200-op stream below, recorded at 53e436c.  Through
#: ``execute`` a 48-entry cache interleaves 530 hits with 670 misses, so a
#: home unit that depended on how many draws came before it would show;
#: through ``execute_many`` there is one digest for any ``max_workers``.
EXECUTE_STREAM_SHA256 = "dcc18ab9442bcccfe8b13fc1a6d0777495e2dcece7e334c6add6a07521508fb9"
EXECUTE_STREAM_HITS = 530
EXECUTE_MANY_STREAM_SHA256 = (
    "a209b11e15d91c3c22841251d6118bd4c2b626cec85cdd359d4253b136c441ea"
)


def golden_stream(population):
    generator = QueryWorkloadGenerator(population, seed=5)
    base = (
        generator.point_queries(40, existing_fraction=0.7)
        + generator.range_queries(40, distribution="zipf")
        + generator.topk_queries(40, k=5)
    )
    return repeated_stream(base, 10, seed=2)


def stream_digest(results):
    """sha256 over every request's Metrics counters and visited units,
    ``repr(latency)``, payload fingerprint and ``groups_visited``."""
    h = hashlib.sha256()
    for r in results:
        counters = sorted(r.metrics.as_dict().items())
        units = sorted(r.metrics.units_visited)
        h.update(
            f"{counters}|{units}|{r.latency!r}|{result_fingerprint(r)}|"
            f"{r.groups_visited}\n".encode("utf-8")
        )
    return h.hexdigest()


def run_execute_stream(population):
    config = ServiceConfig(seed=7, cache_capacity=48, negative_capacity=8)
    with QueryService(build_store(population), config) as service:
        results = [service.execute(q) for q in golden_stream(population)]
        stats = service.cache.stats
        return stream_digest(results), stats.hits + stats.negative_hits, stats.misses


def run_execute_many_stream(population, workers):
    config = ServiceConfig(seed=7, max_workers=workers, batch_window=16)
    with QueryService(build_store(population), config) as service:
        return stream_digest(service.execute_many(golden_stream(population)))


class TestIdentityGoldens:
    def test_identity_is_a_function_of_the_request_id_alone(self, population):
        with QueryService(build_store(population), ServiceConfig(seed=7)) as service:
            requests = [service._new_request(PointQuery("x")) for _ in range(8)]
            assert [r.request_id for r in requests] == list(range(8))
            # Read out of order first: a draw does not depend on how many
            # happened before it.
            for i in (5, 0, 7, 2):
                assert (requests[i].seed, requests[i].home_unit) == IDENTITIES_SEED_7[i]
            assert [(r.seed, r.home_unit) for r in requests] == IDENTITIES_SEED_7

    def test_interleaved_hits_and_misses_match_the_parent(self, population):
        digest, hits, misses = run_execute_stream(population)
        assert (hits, misses) == (EXECUTE_STREAM_HITS, 1200 - EXECUTE_STREAM_HITS)
        assert digest == EXECUTE_STREAM_SHA256

    @pytest.mark.parametrize("workers", [1, 4])
    def test_batched_stream_matches_the_parent(self, population, workers):
        digest = run_execute_many_stream(population, workers)
        assert digest == EXECUTE_MANY_STREAM_SHA256

    def test_pre_drawn_requests_are_still_accepted(self):
        request = ServiceRequest(
            request_id=3, query=PointQuery("a"), seed=11, home_unit=2
        )
        assert (request.seed, request.home_unit) == (11, 2)
        assert request.future is None
        with pytest.raises(ValueError):
            ServiceRequest(request_id=3, query=PointQuery("a"))
        with pytest.raises(ValueError):
            ServiceRequest(request_id=3, query=PointQuery("a"), seed=11)


# ---------------------------------------------------------------------------- where a request runs
NOTHING = {"default_rng": 0, "Future": 0, "pool_submit": 0, "registry_get": 0}


@pytest.fixture()
def counted(monkeypatch):
    """Running counts of everything a cache hit must not do; ``clear()``
    them after set-up."""
    counts = dict(NOTHING)

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        np.random, "default_rng", counting("default_rng", np.random.default_rng)
    )
    monkeypatch.setattr(Future, "__init__", counting("Future", Future.__init__))
    monkeypatch.setattr(
        ThreadPoolExecutor, "submit", counting("pool_submit", ThreadPoolExecutor.submit)
    )
    monkeypatch.setattr(
        MetricsRegistry, "_get", counting("registry_get", MetricsRegistry._get)
    )
    return counts


@pytest.fixture()
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    yield get_registry(), previous
    set_registry(previous)


def distinct_queries(population, n):
    return QueryWorkloadGenerator(population, seed=9).topk_queries(n, k=4)


class TestThreadOfExecution:
    def test_execute_runs_on_the_caller(self, population):
        store = RecordingStore(build_store(population))
        with QueryService(store) as service:
            for query in distinct_queries(population, 3):
                assert service.execute(query).files
        assert [ident for ident, _ in store.threads] == [threading.get_ident()] * 3

    def test_a_batch_with_two_or_more_misses_uses_the_pool(self, population):
        store = RecordingStore(build_store(population))
        with QueryService(store) as service:
            futures = [service.submit(q) for q in distinct_queries(population, 3)]
            service.drain()
            assert all(f.result(timeout=30).files for f in futures)
        names = [name for _, name in store.threads]
        assert len(names) == 3
        assert all(n.startswith("repro-qs_") for n in names), names

    def test_a_lone_leader_runs_on_the_dispatcher(self, population):
        store = RecordingStore(build_store(population))
        queries = distinct_queries(population, 3)
        with QueryService(store) as service:
            # A constrained submit is a batch of one ...
            lone = service.submit(queries[0], RequestOptions(deadline_s=30.0))
            assert lone.result(timeout=30).files
            # ... and so, as far as the engine goes, is one miss among hits.
            service.execute(queries[1])
            batch = [service.submit(q) for q in (queries[1], queries[2], queries[1])]
            service.drain()
            assert all(f.result(timeout=30).files for f in batch)
        me = threading.get_ident()
        elsewhere = [name for ident, name in store.threads if ident != me]
        assert len(store.threads) == 3 and len(elsewhere) == 2
        assert all(n.startswith("repro-qs-batch") for n in elsewhere), elsewhere

    def test_a_cache_hit_allocates_and_looks_up_nothing(
        self, population, fresh_registry, counted
    ):
        registry, previous = fresh_registry
        outside = len(previous.series())
        query = distinct_queries(population, 1)[0]
        with connect(PLAIN, population) as client:
            assert client.execute(query).files  # the miss that warms the cache
            served = registry.counter(
                "repro_requests_total", kind="topk", source="cache"
            )
            latency = registry.histogram("repro_request_latency_seconds", kind="topk")
            served_before, observed_before = served.value, latency.count
            counted.update(NOTHING)
            response = client.execute(query)
            assert counted == NOTHING
            assert response.files and client.service.cache.stats.hits == 1
            assert served.value == served_before + 1
            assert latency.count == observed_before + 1
            engine = registry.counter(
                "repro_requests_total", kind="topk", source="engine"
            )
            assert (engine.value, served.value) == (1, 1)
        # set_registry() isolated the service built after the swap.
        assert len(previous.series()) == outside

    def test_requests_that_skip_the_engine_draw_nothing(self, population, counted):
        store = RecordingStore(build_store(population))
        query = PointQuery("no-such-file.dat")
        with QueryService(store) as service:
            counted.update(NOTHING)
            assert not service.execute(query).found  # the miss: the one draw
            assert counted["default_rng"] == 1
            assert not service.execute(query).found  # negative hit
            riders = [service.submit(query) for _ in range(3)]  # hit + 2 followers
            service.drain()
            spent = service.execute(query, RequestOptions(deadline_s=0.0))
            assert counted["default_rng"] == 1
            assert len(store.threads) == 1
            assert all(not f.result(timeout=30).found for f in riders)
            # The spent deadline did no engine work and is counted once.
            assert not spent.complete and not spent.files
            assert service.telemetry.deadline_expired == 1
            assert service.telemetry.total_requests == 6
            assert service.admission.in_flight == 0


# ---------------------------------------------------------------------------- error path
@contextmanager
def held_slot(service):
    """An unrelated admitted request: a double release would free it too.
    Released on the way out whatever happened, or ``close()`` would wait."""
    assert service.admission.admit()
    try:
        yield
    finally:
        service.admission.release()


class TestErrorPath:
    def test_a_raising_backend_surfaces_and_releases_exactly_once(self, population):
        store = RecordingStore(build_store(population), raises=RuntimeError("boom"))
        query = distinct_queries(population, 1)[0]
        with QueryService(store, ServiceConfig(batching_enabled=False)) as service:
            with held_slot(service):
                with pytest.raises(RuntimeError, match="boom"):
                    service.execute(query)
                assert service.admission.in_flight == 1
                with pytest.raises(RuntimeError, match="boom"):
                    service.submit(query).result(timeout=30)
                assert service.admission.in_flight == 1
            assert service.admission.in_flight == 0
            assert len(service.cache) == 0 and service.cache.stats.insertions == 0
            assert service.telemetry.total_requests == 0
            store.raises = None
            assert service.execute(query).files
            assert service.telemetry.total_requests == 1

    def test_one_failing_group_does_not_sink_its_batch(self, population):
        class FailsOn(RecordingStore):
            def execute(self, query, ctx=None):
                if query == self.poison:
                    raise RuntimeError("boom")
                return super().execute(query, ctx)

        store = FailsOn(build_store(population))
        queries = distinct_queries(population, 3)
        store.poison = queries[1]
        with QueryService(store) as service:
            futures = [service.submit(q) for q in (*queries, queries[1])]
            service.drain()
            assert futures[0].result(timeout=30).files
            assert futures[2].result(timeout=30).files
            for poisoned in (futures[1], futures[3]):  # the leader and its rider
                with pytest.raises(RuntimeError, match="boom"):
                    poisoned.result(timeout=30)
            assert service.admission.in_flight == 0
            assert service.telemetry.total_requests == 2

    def test_a_rejection_takes_no_slot(self, population):
        config = ServiceConfig(max_in_flight=1, batch_window=1, block_on_overload=False)
        query = distinct_queries(population, 1)[0]
        with QueryService(build_store(population), config) as service:
            with held_slot(service):
                with pytest.raises(ServiceOverloadedError):
                    service.execute(query)
                assert service.admission.in_flight == 1
                assert service.telemetry.rejected == 1
            assert service.execute(query).files
            assert service.admission.in_flight == 0

    def test_execute_after_close(self, population):
        service = QueryService(build_store(population))
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.execute(distinct_queries(population, 1)[0])
        assert service.admission.in_flight == 0
        assert service.admission.admitted == 0


# ---------------------------------------------------------------------------- semantics kept
N_MARKERS = 12
MARKER_WINDOW = RangeQuery(("size",), (4.9e6,), (5.1e6,))


def marker(i):
    return FileMetadata(
        path=f"/markers/m{i:02d}.dat",
        attributes={
            "size": 5.0e6 + i, "ctime": 2000.0, "mtime": 2100.0, "atime": 2200.0,
            "read_bytes": 2500.0, "write_bytes": 700.0, "access_count": 3.0,
            "owner": 2.0,
        },
    )


@pytest.fixture()
def tracer():
    previous = set_tracer(Tracer(enabled=True))
    yield get_tracer()
    set_tracer(previous)


def edges(tracer, trace_id):
    """Sorted ``(span name, parent's name)`` pairs of one trace."""
    spans = tracer.collector.spans_for(trace_id)
    names = {s.span_id: s.name for s in spans}
    return sorted((s.name, names.get(s.parent_id, "")) for s in spans)


#: What a traced plain-store ``Client.execute`` recorded at 53e436c.
HIT_EDGES = [
    ("client.execute", ""),
    ("service.admission", "client.execute"),
    ("service.cache_lookup", "client.execute"),
]
MISS_EDGES = HIT_EDGES + [("service.engine", "client.execute")]


def submitted(service, kind, file):
    return getattr(service, f"submit_{kind}")(file).result(timeout=30)


def inline(service, kind, file):
    return service.mutate(kind, file)


class TestSemanticsUnchanged:
    def test_reads_are_atomic_around_concurrent_mutations(self, population):
        self.check_atomic_reads(population, submitted)

    def test_reads_are_atomic_around_inline_mutations(self, population):
        self.check_atomic_reads(population, inline)

    @staticmethod
    def check_atomic_reads(population, write):
        """Markers go in one by one, then come out one by one, so at every
        instant the visible ones are a contiguous run.  A reader must see
        such a run, holding every insert acked before it asked and no delete
        acked before it asked — whether the engine or the cache answered, and
        whichever thread ``write`` applies the mutation on."""
        config = SmartStoreConfig(num_units=8, seed=3, search_breadth=64)
        store = SmartStore.build(population, config)
        markers = [marker(i) for i in range(N_MARKERS)]
        index_of = {m.file_id: i for i, m in enumerate(markers)}
        inserted, deleted = [0], [0]  # acked so far
        stop = threading.Event()
        errors = []

        def reader(service):
            while not stop.is_set():
                gone, there = deleted[0], inserted[0]  # sampled BEFORE the read
                result = service.execute(MARKER_WINDOW)
                seen = sorted(index_of[f.file_id] for f in result.files)
                # One more delete than acked may have been applied by now.
                may_be_gone = min(deleted[0] + 1, N_MARKERS)
                if seen and seen != list(range(seen[0], seen[-1] + 1)):
                    errors.append(("torn", seen))
                elif any(i < gone for i in seen):
                    errors.append(("resurrected", gone, seen))
                elif not set(range(may_be_gone, there)) <= set(seen):
                    errors.append(("lost", may_be_gone, there, seen))

        with QueryService(store, ServiceConfig(max_workers=2)) as service:
            threads = [
                threading.Thread(target=reader, args=(service,)) for _ in range(4)
            ]
            for t in threads:
                t.start()
            try:
                for i, m in enumerate(markers):
                    assert write(service, "insert", m).known
                    inserted[0] = i + 1
                for i, m in enumerate(markers):
                    assert write(service, "delete", m).known
                    deleted[0] = i + 1
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors[:5]
            assert service.telemetry.query_class("range").count > 0
            assert not service.execute(MARKER_WINDOW).files
            assert service.admission.in_flight == 0

    def test_a_result_computed_before_a_flush_is_not_stored_after_it(self, population):
        # The clock moves while the engine step is running, as it does when a
        # mutation lands between a batch's epoch snapshot and its store().
        store = RecordingStore(build_store(population), touch=True)
        query = distinct_queries(population, 1)[0]
        with QueryService(store) as service:
            first = service.execute(query)
            assert service.cache.stats.stale_drops == 1 and len(service.cache) == 0
            store.touch = False
            second = service.execute(query)  # a miss again, and stored this time
            third = service.execute(query)
            assert len(store.threads) == 2 and service.cache.stats.hits == 1
            assert (
                result_fingerprint(first)
                == result_fingerprint(second)
                == result_fingerprint(third)
            )

    def test_traced_execute_keeps_its_spans_and_the_callers_context(
        self, population, tracer
    ):
        query = distinct_queries(population, 1)[0]
        with connect(PLAIN, population) as client:
            miss = client.execute(query)
            assert tracer.current() is None
            hit = client.execute(query)
            assert tracer.current() is None
            assert edges(tracer, miss.trace_id) == MISS_EDGES
            assert edges(tracer, hit.trace_id) == HIT_EDGES
            # Called under somebody else's span, that span is current again.
            with tracer.root("outer") as outer:
                mine = TraceContext(outer.trace_id, outer.span_id)
                client.execute(query)
                assert tracer.current() == mine
                client.execute(distinct_queries(population, 2)[1])
                assert tracer.current() == mine
            assert tracer.current() is None

    def test_traced_execute_restores_the_context_when_the_backend_raises(
        self, population, tracer
    ):
        store = RecordingStore(build_store(population), raises=RuntimeError("boom"))
        query = distinct_queries(population, 1)[0]
        with Client(PLAIN, store, QueryService(store)) as client:
            with tracer.root("outer") as outer:
                with pytest.raises(RuntimeError, match="boom"):
                    client.execute(query, RequestOptions(trace_id="t-raise"))
                assert tracer.current() == TraceContext(outer.trace_id, outer.span_id)
            assert tracer.current() is None
            assert edges(tracer, "t-raise") == MISS_EDGES
            assert client.service.admission.in_flight == 0
