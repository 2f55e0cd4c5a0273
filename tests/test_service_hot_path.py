"""The service's read path, counted not timed.

``QueryService.execute`` runs to completion on the thread that asked, and
``execute_many`` / ``Client.submit`` are made of it
(``tests/test_request_thread.py``); a request's ``(seed, home_unit)`` is a
pure function of ``(service seed, request id)`` that is drawn only when the
engine is reached.  Nothing here looks at a clock: the tests count threads,
constructor calls and registry look-ups, and compare whole op streams
against digests recorded before the path was rewritten, so CI guards the
path on any machine.
"""

from __future__ import annotations

import hashlib
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import Client, DeploymentSpec, RequestOptions, connect
from repro.cluster.metrics import Metrics
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.metadata.file_metadata import FileMetadata
from repro.obs import (
    MetricsRegistry,
    TraceContext,
    Tracer,
    get_registry,
    get_tracer,
    set_tracer,
)
from repro.service import (
    MUTATION_KINDS,
    QUERY_KINDS,
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
#: home unit that depended on how many draws came before it would show.
EXECUTE_STREAM_SHA256 = "dcc18ab9442bcccfe8b13fc1a6d0777495e2dcece7e334c6add6a07521508fb9"
EXECUTE_STREAM_HITS = 530
#: The same stream through ``execute_many`` under ``ServiceConfig(seed=7)``,
#: with the result cache on and off.  Both were recorded at 8a08f41, the
#: commit before ``execute_many`` became a loop of ``execute``, and each is
#: what that commit gave both through ``execute_many`` with
#: ``batching_enabled=False`` and through ``[service.execute(q) for q in
#: stream]``.  (Its batched ``execute_many`` gave another digest: coalescing
#: charged each rider its leader's engine latency.)
EXECUTE_MANY_STREAM_SHA256 = (
    "036b6cbb9b9a2c55e77156c56a2dfccc6857266973362744e1b1fc2d1469db13"
)
EXECUTE_MANY_UNCACHED_STREAM_SHA256 = (
    "1d1fc8cdc51485a0d28fe6ec7170c59e8eecbdbffd78253fb1a1fa27bab9e861"
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


def run_execute_many_stream(population, cache_enabled=True):
    config = ServiceConfig(seed=7, cache_enabled=cache_enabled)
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

    def test_batched_stream_matches_the_parent(self, population):
        assert run_execute_many_stream(population) == EXECUTE_MANY_STREAM_SHA256
        assert (
            run_execute_many_stream(population, cache_enabled=False)
            == EXECUTE_MANY_UNCACHED_STREAM_SHA256
        )

    def test_pre_drawn_requests_are_still_accepted(self):
        request = ServiceRequest(
            request_id=3, query=PointQuery("a"), seed=11, home_unit=2
        )
        assert (request.seed, request.home_unit) == (11, 2)
        with pytest.raises(ValueError):
            ServiceRequest(request_id=3, query=PointQuery("a"))
        with pytest.raises(ValueError):
            ServiceRequest(request_id=3, query=PointQuery("a"), seed=11)


# ---------------------------------------------------------------------------- where a request runs
NOTHING = {
    "default_rng": 0,
    "Future": 0,
    "pool_submit": 0,
    "registry_get": 0,
    "metrics_merge": 0,
}


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
    monkeypatch.setattr(Metrics, "merge", counting("metrics_merge", Metrics.merge))
    return counts


def distinct_queries(population, n):
    return QueryWorkloadGenerator(population, seed=9).topk_queries(n, k=4)


class TestThreadOfExecution:
    def test_execute_runs_on_the_caller(self, population):
        store = RecordingStore(build_store(population))
        with QueryService(store) as service:
            for query in distinct_queries(population, 3):
                assert service.execute(query).files
        assert [ident for ident, _ in store.threads] == [threading.get_ident()] * 3

    def test_submit_and_execute_many_run_on_the_caller(self, population, counted):
        store = RecordingStore(build_store(population))
        queries = distinct_queries(population, 4)
        with Client(PLAIN, store, QueryService(store)) as client:
            counted.update(NOTHING)
            # A constrained submit skips the cache; the rest are plain misses.
            lone = client.submit(queries[0], RequestOptions(deadline_s=30.0))
            assert lone.done() and lone.result().files
            assert all(r.files for r in client.execute_many(queries[1:]))
            assert counted["pool_submit"] == 0
            assert counted["Future"] == 1  # the one ``submit`` hands back
        assert [ident for ident, _ in store.threads] == [threading.get_ident()] * 4

    def test_a_cache_hit_allocates_and_looks_up_nothing(self, population, counted):
        registry = get_registry()
        query = distinct_queries(population, 1)[0]
        with connect(PLAIN, population) as client:
            assert client.execute(query).files  # the miss that warms the cache
            served = registry.counter(
                "repro_requests_total", kind="topk", source="cache"
            )
            latency = registry.histogram("repro_request_modeled_seconds", kind="topk")
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

    def test_requests_that_skip_the_engine_draw_nothing(self, population, counted):
        store = RecordingStore(build_store(population))
        query = PointQuery("no-such-file.dat")
        with QueryService(store) as service:
            counted.update(NOTHING)
            assert not service.execute(query).found  # the miss: the one draw
            assert counted["default_rng"] == 1
            assert not service.execute(query).found  # negative hit
            riders = service.execute_many([query] * 3)  # three negative hits
            spent = service.execute(query, RequestOptions(deadline_s=0.0))
            assert counted["default_rng"] == 1
            assert len(store.threads) == 1
            assert all(not r.found for r in riders)
            # The spent deadline did no engine work and is counted once.
            assert not spent.complete and not spent.files
            telemetry = service.telemetry.as_dict()
            assert telemetry["deadline_expired"] == 1
            assert telemetry["total_requests"] == 6
            assert service.admission.in_flight == 0


# ---------------------------------------------------------------------------- one record
#: ``stats()["telemetry"]["network"]`` key -> the series it reads.
NETWORK_SERIES = {
    "connections_accepted": ("repro_net_connections_total", {"outcome": "accepted"}),
    "connections_rejected": ("repro_net_connections_total", {"outcome": "rejected"}),
    "connections_active": ("repro_net_connections_active", {}),
    "requests_served": ("repro_net_requests_total", {"outcome": "served"}),
    "requests_rejected": ("repro_net_requests_total", {"outcome": "rejected"}),
    "protocol_errors": ("repro_net_protocol_errors_total", {}),
    "bytes_in": ("repro_net_bytes_total", {"direction": "in"}),
    "bytes_out": ("repro_net_bytes_total", {"direction": "out"}),
}
EVENT_SERIES = {
    "rejected": "repro_requests_rejected_total",
    "deadline_expired": "repro_deadline_expired_total",
    "failovers": "repro_replication_failovers_total",
    "degraded_reads": "repro_replication_degraded_reads_total",
    "replica_retries": "repro_replication_read_retries_total",
}
SOURCE_KEYS = {
    "engine": "engine_executions",
    "cache": "cache_hits",
    "negative": "negative_hits",
}


class TestOneRecordPerRequest:
    def test_stats_are_the_registry_series(self, population):
        """Every number in the telemetry stats equals the registry series it
        names, over reads, mutations, a rejection and a spent deadline."""
        spec = DeploymentSpec(
            topology="plain",
            store=STORE_CONFIG,
            service=ServiceConfig(max_in_flight=4, block_on_overload=False),
        )
        reads = distinct_queries(population, 3) + [
            PointQuery("no-such-file.dat"),
            MARKER_WINDOW,
        ]
        with connect(spec, population) as client:
            for query in reads + reads:  # misses, then hits and a negative hit
                client.execute(query)
            client.execute_many(reads[:2] * 2)  # four more hits
            client.insert(marker(0))
            client.modify(marker(0).with_updates(mtime=9999.0))
            client.delete(marker(0))
            client.execute(reads[0], RequestOptions(deadline_s=0.0))
            service = client.service
            for _ in range(4):
                assert service.admission.admit()
            try:
                with pytest.raises(ServiceOverloadedError):
                    client.execute(reads[0])
            finally:
                service.admission.release(4)
            telemetry = client.stats()["service"]["telemetry"]

        series = {(name, labels): i for name, labels, i in get_registry().series()}

        def read(name, **labels):
            return series[name, tuple(sorted(labels.items()))]

        classes = telemetry["classes"]
        assert telemetry["rejected"] == telemetry["deadline_expired"] == 1
        # Three misses and a spent deadline; three hits, then four more.
        assert (classes["topk"]["engine_executions"], classes["topk"]["cache_hits"]) == (4, 7)
        assert classes["point"]["negative_hits"] == 1
        for kind in QUERY_KINDS:
            latency = read("repro_request_modeled_seconds", kind=kind)
            for source, key in SOURCE_KEYS.items():
                counter = read("repro_requests_total", kind=kind, source=source)
                assert classes[kind][key] == counter.value
            assert classes[kind]["count"] == latency.count
            assert classes[kind]["total_latency_s"] == latency.sum
            assert classes[kind]["mean_latency_s"] == latency.sum / latency.count
        for kind in MUTATION_KINDS:
            latency = read("repro_mutation_modeled_seconds", kind=kind)
            applied = read("repro_mutations_total", kind=kind).value
            assert classes[kind]["count"] == applied == latency.count == 1
            assert classes[kind]["mean_latency_s"] == latency.sum
        assert telemetry["total_requests"] == sum(
            i.value
            for (name, _labels), i in series.items()
            if name in ("repro_requests_total", "repro_mutations_total")
        )
        for key, name in EVENT_SERIES.items():
            assert telemetry[key] == read(name).value
        for key, (name, labels) in NETWORK_SERIES.items():
            assert telemetry["network"][key] == read(name, **labels).value

    def test_telemetry_memory_stays_flat(self, population):
        """What ``repro/service`` holds after 50k cached reads does not grow
        with the request count."""
        query = distinct_queries(population, 1)[0]
        service_code = [tracemalloc.Filter(True, "*/repro/service/*")]

        def held():
            snapshot = tracemalloc.take_snapshot().filter_traces(service_code)
            return sum(stat.size for stat in snapshot.statistics("filename"))

        with connect(PLAIN, population) as client:
            client.execute(query)  # the miss: every read below is a hit
            tracemalloc.start()
            try:
                for _ in range(1_000):
                    client.execute(query)
                before = held()
                for _ in range(50_000):
                    client.execute(query)
                after = held()
            finally:
                tracemalloc.stop()
            assert client.service.cache.stats.hits == 51_000
        assert after - before < 16 * 1024, (before, after)


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
        with QueryService(store) as service:
            with held_slot(service):
                with pytest.raises(RuntimeError, match="boom"):
                    service.execute(query)
                assert service.admission.in_flight == 1
                with pytest.raises(RuntimeError, match="boom"):
                    service.execute_many([query])
                assert service.admission.in_flight == 1
            assert service.admission.in_flight == 0
            assert len(service.cache) == 0 and service.cache.stats.insertions == 0
            assert service.telemetry.as_dict()["total_requests"] == 0
            store.raises = None
            assert service.execute(query).files
            assert service.telemetry.as_dict()["total_requests"] == 1

    def test_a_rejection_takes_no_slot(self, population):
        config = ServiceConfig(max_in_flight=1, block_on_overload=False)
        query = distinct_queries(population, 1)[0]
        with QueryService(build_store(population), config) as service:
            with held_slot(service):
                with pytest.raises(ServiceOverloadedError):
                    service.execute(query)
                assert service.admission.in_flight == 1
                assert service.telemetry.as_dict()["rejected"] == 1
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


def threaded(service, kind, file):
    """``mutate`` on a thread of its own; acked once that thread is done."""
    receipts = []
    writer = threading.Thread(
        target=lambda: receipts.append(service.mutate(kind, file))
    )
    writer.start()
    writer.join(timeout=30)
    return receipts[0]


def inline(service, kind, file):
    return service.mutate(kind, file)


class TestSemanticsUnchanged:
    def test_reads_are_atomic_around_concurrent_mutations(self, population):
        self.check_atomic_reads(population, threaded)

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

        with QueryService(store) as service:
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
            assert service.telemetry.as_dict()["classes"]["range"]["count"] > 0
            assert not service.execute(MARKER_WINDOW).files
            assert service.admission.in_flight == 0

    def test_a_result_computed_before_a_flush_is_not_stored_after_it(self, population):
        # The clock moves while the engine step is running, as it does when a
        # mutation lands between a read's epoch snapshot and its store().
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
