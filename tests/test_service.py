"""Tests for the query service: execution, batching, admission, telemetry,
determinism and load generation."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cluster.metrics import Metrics
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.service import (
    AdmissionController,
    LoadGenerator,
    QueryService,
    RequestBatcher,
    ServiceConfig,
    ServiceOverloadedError,
    ServiceRequest,
    kind_of,
    repeated_stream,
    replay_point_stream,
    result_fingerprint,
)
from repro.service.telemetry import QueryClassStats, ServiceTelemetry
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.replay import TraceReplayer
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import make_files


@pytest.fixture(scope="module")
def population():
    return make_files(120, clusters=4)


@pytest.fixture(scope="module")
def mixed_stream(population):
    generator = QueryWorkloadGenerator(population, seed=5)
    return (
        generator.point_queries(10, existing_fraction=0.7)
        + generator.range_queries(6, distribution="zipf")
        + generator.topk_queries(6, k=5)
    )


def build_store(population, **overrides):
    config = SmartStoreConfig(num_units=8, seed=3, **overrides)
    return SmartStore.build(population, config)


# ---------------------------------------------------------------------------- config
class TestServiceConfig:
    def test_defaults_valid(self):
        config = ServiceConfig()
        assert config.max_in_flight >= config.batch_window

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": 0},
            {"batch_window": 0},
            {"max_in_flight": 4, "batch_window": 8},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


# ---------------------------------------------------------------------------- basic serving
class TestQueryServiceBasics:
    def test_execute_matches_direct_store(self, population, mixed_stream):
        direct = build_store(population)
        expected = [result_fingerprint(direct.execute(q)) for q in mixed_stream]
        with QueryService(build_store(population)) as service:
            got = [result_fingerprint(service.execute(q)) for q in mixed_stream]
        assert got == expected

    def test_execute_many_preserves_order(self, population, mixed_stream):
        direct = build_store(population)
        expected = [result_fingerprint(direct.execute(q)) for q in mixed_stream]
        with QueryService(build_store(population)) as service:
            results = service.execute_many(mixed_stream)
        assert [result_fingerprint(r) for r in results] == expected

    @pytest.mark.parametrize("cache_on,batching_on", [(True, True), (True, False), (False, True), (False, False)])
    def test_all_ablations_identical(self, population, mixed_stream, cache_on, batching_on):
        direct = build_store(population)
        expected = [result_fingerprint(direct.execute(q)) for q in mixed_stream]
        stream = repeated_stream(mixed_stream, 2, seed=1)
        expected_rep = [result_fingerprint(direct.execute(q)) for q in stream]
        config = ServiceConfig(
            max_workers=2, batch_window=8,
            cache_enabled=cache_on, batching_enabled=batching_on,
        )
        with QueryService(build_store(population), config) as service:
            results = service.execute_many(stream)
        assert [result_fingerprint(r) for r in results] == expected_rep
        # the original one-pass expectation is a prefix sanity check
        assert len(expected) == len(mixed_stream)

    def test_submit_returns_future(self, population, mixed_stream):
        with QueryService(build_store(population)) as service:
            future = service.submit(mixed_stream[0])
            service.drain()
            result = future.result()
        assert result is not None

    def test_submit_does_not_block_on_full_window(self, population, mixed_stream):
        """Filling the batching window hands the batch to the dispatcher;
        the submitter must get its futures back before any drain."""
        config = ServiceConfig(max_workers=2, batch_window=4, max_in_flight=64)
        with QueryService(build_store(population), config) as service:
            futures = [service.submit(q) for q in mixed_stream]
            assert len(futures) == len(mixed_stream)
            service.drain()
            assert all(f.done() for f in futures)

    def test_closed_service_rejects_work(self, population, mixed_stream):
        service = QueryService(build_store(population))
        service.close()
        with pytest.raises(RuntimeError):
            service.execute(mixed_stream[0])
        with pytest.raises(RuntimeError):
            service.submit(mixed_stream[0])

    def test_unsupported_query_type(self, population):
        with QueryService(build_store(population)) as service:
            with pytest.raises(TypeError):
                service.execute("not-a-query")

    def test_cluster_metrics_accumulate(self, population, mixed_stream):
        store = build_store(population)
        with QueryService(store, ServiceConfig(cache_enabled=False)) as service:
            service.execute_many(mixed_stream)
        assert store.cluster.metrics.memory_index_accesses > 0


# ---------------------------------------------------------------------------- determinism
class TestDeterminism:
    def test_per_request_accounting_is_reproducible(self, population, mixed_stream):
        """Thread scheduling must not change any request's cost accounting."""
        stream = repeated_stream(mixed_stream, 2, seed=2)

        def run(workers):
            with QueryService(
                build_store(population),
                ServiceConfig(max_workers=workers, batch_window=8),
            ) as service:
                results = service.execute_many(stream)
            return [(r.metrics.messages, r.latency, result_fingerprint(r)) for r in results]

        assert run(1) == run(4)

    def test_home_units_derived_from_request_id(self, population):
        service_a = QueryService(build_store(population))
        service_b = QueryService(build_store(population))
        try:
            req_a = service_a._new_request(PointQuery("x"))
            req_b = service_b._new_request(PointQuery("x"))
            assert (req_a.request_id, req_a.seed, req_a.home_unit) == (
                req_b.request_id, req_b.seed, req_b.home_unit,
            )
        finally:
            service_a.close()
            service_b.close()


# ---------------------------------------------------------------------------- batching / admission
class TestRequestBatcher:
    def _request(self, i, query):
        return ServiceRequest(request_id=i, query=query, seed=i, home_unit=0)

    def test_window_fills(self):
        batcher = RequestBatcher(window=3)
        assert batcher.add(self._request(0, PointQuery("a"))) is None
        assert batcher.add(self._request(1, PointQuery("b"))) is None
        batch = batcher.add(self._request(2, PointQuery("c")))
        assert batch is not None and len(batch) == 3
        assert batcher.pending == 0

    def test_flush_partial(self):
        batcher = RequestBatcher(window=10)
        batcher.add(self._request(0, PointQuery("a")))
        assert len(batcher.flush()) == 1
        assert batcher.flush() == []

    def test_coalesce_groups_identical_queries(self):
        batcher = RequestBatcher(window=8)
        q1, q2 = PointQuery("same"), PointQuery("other")
        requests = [
            self._request(0, q1), self._request(1, q2),
            self._request(2, q1), self._request(3, PointQuery("same")),
        ]
        groups = batcher.coalesce(requests)
        assert [len(members) for _, members in groups] == [3, 1]
        assert groups[0][0] == q1
        assert batcher.coalesced_requests == 2

    def test_coalesce_same_window_range_queries(self):
        batcher = RequestBatcher(window=4)
        r1 = RangeQuery(("size",), (0.0,), (10.0,))
        r2 = RangeQuery(("size",), (0.0,), (10.0,))
        r3 = RangeQuery(("size",), (0.0,), (11.0,))
        groups = batcher.coalesce(
            [self._request(0, r1), self._request(1, r2), self._request(2, r3)]
        )
        assert [len(m) for _, m in groups] == [2, 1]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RequestBatcher(window=0)


class TestAdmissionController:
    def test_blocking_admit_and_release(self):
        controller = AdmissionController(2)
        assert controller.admit() and controller.admit()
        assert controller.in_flight == 2
        controller.release(2)
        assert controller.in_flight == 0
        assert controller.admitted == 2

    def test_non_blocking_rejects_at_limit(self):
        controller = AdmissionController(1, block=False)
        assert controller.admit()
        assert not controller.admit()
        assert controller.rejected == 1
        controller.release()
        assert controller.admit()

    def test_drain_returns_when_empty(self):
        controller = AdmissionController(4)
        controller.admit()
        controller.release()
        controller.drain()  # must not hang

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            AdmissionController(0)

    def test_service_overload_rejection(self, population, mixed_stream):
        config = ServiceConfig(
            max_in_flight=2, batch_window=2, block_on_overload=False
        )
        with QueryService(build_store(population), config) as service:
            # Occupy both admission slots out-of-band: the next submission
            # must be rejected rather than block.
            service.admission.admit()
            service.admission.admit()
            with pytest.raises(ServiceOverloadedError):
                service.execute(mixed_stream[0])
            assert service.telemetry.rejected == 1
            service.admission.release(2)


# ---------------------------------------------------------------------------- telemetry
class TestTelemetry:
    def test_kind_of(self):
        assert kind_of(PointQuery("f")) == "point"
        assert kind_of(RangeQuery(("size",), (0.0,), (1.0,))) == "range"
        assert kind_of(TopKQuery(("size",), (1.0,), 3)) == "topk"
        with pytest.raises(TypeError):
            kind_of(object())

    def test_percentiles_and_counts(self):
        stats = QueryClassStats("point")
        for latency in (0.001, 0.002, 0.003, 0.004):
            stats.observe(latency, Metrics())
        p = stats.percentiles()
        assert p["p50"] == pytest.approx(0.0025)
        assert p["p95"] >= p["p50"]
        assert p["p99"] >= p["p95"]
        assert stats.count == stats.engine_executions == 4

    def test_sources_tracked(self):
        stats = QueryClassStats("range")
        stats.observe(0.1, source="engine")
        stats.observe(0.0, source="cache")
        stats.observe(0.0, source="negative")
        stats.observe(0.1, source="coalesced")
        assert stats.cache_hits == 1 and stats.negative_hits == 1
        assert stats.coalesced == 1
        assert stats.cache_hit_rate == pytest.approx(0.5)
        with pytest.raises(ValueError):
            stats.observe(0.0, source="nonsense")

    def test_empty_percentiles_are_zero(self):
        stats = QueryClassStats("topk")
        assert stats.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert stats.mean_latency == 0.0

    def test_service_level_rollup(self, population, mixed_stream):
        with QueryService(build_store(population)) as service:
            service.execute_many(repeated_stream(mixed_stream, 2, seed=0))
            telemetry = service.telemetry
            assert telemetry.total_requests == 2 * len(mixed_stream)
            assert telemetry.wall_seconds > 0
            assert telemetry.throughput_qps > 0
            rows = telemetry.report_rows()
            assert {row[0] for row in rows} <= {"point", "range", "topk"}
            d = telemetry.as_dict()
            assert d["total_requests"] == 2 * len(mixed_stream)

    def test_as_dict_wall_seconds_covers_the_open_window(self, population, mixed_stream):
        # Regression: as_dict() read only the closed windows, so a serving
        # (undrained) service reported wall_seconds == 0.0 in Client.stats().
        with QueryService(build_store(population)) as service:
            service.execute(mixed_stream[0])  # opens the window, no drain
            assert service.telemetry.as_dict()["wall_seconds"] > 0.0
            assert service.stats()["telemetry"]["wall_seconds"] > 0.0


# ---------------------------------------------------------------------------- load generation
class TestLoadGenerator:
    def test_closed_loop_matches_serial(self, population, mixed_stream):
        direct = build_store(population)
        expected = [result_fingerprint(direct.execute(q)) for q in mixed_stream]
        with QueryService(build_store(population)) as service:
            report = LoadGenerator(service, seed=1).closed_loop(
                mixed_stream, clients=3
            )
        assert report.mode == "closed"
        assert report.completed == len(mixed_stream)
        assert [result_fingerprint(r) for r in report.results] == expected

    def test_open_loop_matches_serial(self, population, mixed_stream):
        direct = build_store(population)
        expected = [result_fingerprint(direct.execute(q)) for q in mixed_stream]
        with QueryService(build_store(population)) as service:
            report = LoadGenerator(service, seed=1).open_loop(mixed_stream)
        assert report.mode == "open"
        assert report.rejected == 0
        assert [result_fingerprint(r) for r in report.results] == expected
        assert report.achieved_qps > 0
        assert report.total_simulated_latency > 0
        assert report.as_dict()["completed"] == len(mixed_stream)

    def test_open_loop_with_rate(self, population, mixed_stream):
        with QueryService(build_store(population)) as service:
            report = LoadGenerator(service, seed=1).open_loop(
                mixed_stream[:5], rate_qps=10_000.0
            )
        assert report.completed == 5

    def test_invalid_parameters(self, population):
        with QueryService(build_store(population)) as service:
            loadgen = LoadGenerator(service)
            with pytest.raises(ValueError):
                loadgen.closed_loop([], clients=0)
            with pytest.raises(ValueError):
                loadgen.open_loop([], rate_qps=0.0)

    def test_repeated_stream(self, mixed_stream):
        stream = repeated_stream(mixed_stream, 3, seed=4)
        assert len(stream) == 3 * len(mixed_stream)
        for query in mixed_stream:
            assert stream.count(query) >= 3  # identical queries may also repeat in base
        assert repeated_stream(mixed_stream, 3, seed=4) == stream
        with pytest.raises(ValueError):
            repeated_stream(mixed_stream, 0)

    def test_replay_point_stream(self):
        trace = generate_trace(
            SyntheticTraceConfig(name="t", n_files=50, n_requests=200, n_projects=4, seed=9)
        )
        replayer = TraceReplayer(trace)
        queries = replay_point_stream(replayer, limit=25)
        assert len(queries) <= 25
        assert all(isinstance(q, PointQuery) for q in queries)
        known = {f.filename for f in replayer.files}
        assert all(q.filename in known for q in queries)

    def test_replay_stream_through_service(self, population):
        trace = generate_trace(
            SyntheticTraceConfig(name="t", n_files=60, n_requests=150, n_projects=4, seed=2)
        )
        replayer = TraceReplayer(trace)
        store = SmartStore.build(replayer.files, SmartStoreConfig(num_units=6, seed=1))
        queries = replay_point_stream(replayer, limit=40)
        with QueryService(store) as service:
            results = service.execute_many(queries)
        assert all(r.found for r in results)


# ---------------------------------------------------------------------------- packaging sync
def test_pyproject_version_matches_package():
    """Satellite check: pyproject.toml version stays synced to repro.__init__."""
    import repro

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    assert match is not None, "pyproject.toml has no version field"
    assert match.group(1) == repro.__version__
