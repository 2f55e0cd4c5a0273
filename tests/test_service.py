"""Tests for the query service: execution, admission, telemetry,
determinism and request streams."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.service import (
    AdmissionController,
    QueryService,
    ServiceConfig,
    ServiceOverloadedError,
    ServiceTelemetry,
    kind_of,
    latency_summary,
    repeated_stream,
    result_fingerprint,
)
from repro.workloads.generator import QueryWorkloadGenerator
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
        assert config.max_in_flight >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_in_flight": 0},
            {"max_in_flight": -1},
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

    @pytest.mark.parametrize("cache_on,through_many", [(True, True), (True, False), (False, True), (False, False)])
    def test_all_ablations_identical(self, population, mixed_stream, cache_on, through_many):
        direct = build_store(population)
        expected = [result_fingerprint(direct.execute(q)) for q in mixed_stream]
        stream = repeated_stream(mixed_stream, 2, seed=1)
        expected_rep = [result_fingerprint(direct.execute(q)) for q in stream]
        config = ServiceConfig(cache_enabled=cache_on)
        with QueryService(build_store(population), config) as service:
            if through_many:
                results = service.execute_many(stream)
            else:
                results = [service.execute(q) for q in stream]
        assert [result_fingerprint(r) for r in results] == expected_rep
        # the original one-pass expectation is a prefix sanity check
        assert len(expected) == len(mixed_stream)

    def test_closed_service_rejects_work(self, population, mixed_stream):
        service = QueryService(build_store(population))
        service.close()
        with pytest.raises(RuntimeError):
            service.execute(mixed_stream[0])
        with pytest.raises(RuntimeError):
            service.execute_many(mixed_stream[:1])

    def test_unsupported_query_type(self, population):
        with QueryService(build_store(population)) as service:
            with pytest.raises(TypeError):
                service.execute("not-a-query")


# ---------------------------------------------------------------------------- determinism
class TestDeterminism:
    def test_per_request_accounting_is_reproducible(self, population, mixed_stream):
        """Thread scheduling must not change any request's cost accounting."""
        stream = repeated_stream(mixed_stream, 2, seed=2)

        def run():
            with QueryService(build_store(population)) as service:
                results = service.execute_many(stream)
            return [(r.metrics.messages, r.latency, result_fingerprint(r)) for r in results]

        assert run() == run()

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


# ---------------------------------------------------------------------------- admission
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
        config = ServiceConfig(max_in_flight=2, block_on_overload=False)
        with QueryService(build_store(population), config) as service:
            # Occupy both admission slots out-of-band: the next submission
            # must be rejected rather than block.
            service.admission.admit()
            service.admission.admit()
            with pytest.raises(ServiceOverloadedError):
                service.execute(mixed_stream[0])
            assert service.telemetry.as_dict()["rejected"] == 1
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
        latencies = (0.001, 0.002, 0.003, 0.004)
        summary = latency_summary(latencies)
        assert summary["p50"] == summary["mean"] == pytest.approx(0.0025)
        assert summary["p99"] >= summary["p95"] >= summary["p50"]
        telemetry = ServiceTelemetry()
        for latency in latencies:
            telemetry.observe(PointQuery("f"), latency)
        point = telemetry.as_dict()["classes"]["point"]
        assert point["count"] == point["engine_executions"] == 4
        assert point["mean_latency_s"] == pytest.approx(0.0025)

    def test_sources_tracked(self):
        telemetry = ServiceTelemetry()
        query = RangeQuery(("size",), (0.0,), (1.0,))
        for latency, source in ((0.1, "engine"), (0.0, "cache"), (0.0, "negative")):
            telemetry.observe(query, latency, source=source)
        stats = telemetry.as_dict()["classes"]["range"]
        assert stats["cache_hits"] == 1 and stats["negative_hits"] == 1
        assert stats["engine_executions"] == 1
        assert stats["cache_hit_rate"] == pytest.approx(2 / 3)
        with pytest.raises(KeyError):
            telemetry.observe(query, 0.0, source="nonsense")

    def test_empty_percentiles_are_zero(self):
        assert latency_summary([]) == {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        topk = ServiceTelemetry().as_dict()["classes"]["topk"]
        assert topk["count"] == 0 and topk["mean_latency_s"] == 0.0

    def test_service_level_rollup(self, population, mixed_stream):
        with QueryService(build_store(population)) as service:
            service.execute_many(repeated_stream(mixed_stream, 2, seed=0))
            d = service.telemetry.as_dict()
            assert d["total_requests"] == 2 * len(mixed_stream)
            assert sum(c["count"] for c in d["classes"].values()) == d["total_requests"]


# ---------------------------------------------------------------------------- request streams
class TestLoadGenerator:
    def test_repeated_stream(self, mixed_stream):
        stream = repeated_stream(mixed_stream, 3, seed=4)
        assert len(stream) == 3 * len(mixed_stream)
        for query in mixed_stream:
            assert stream.count(query) >= 3  # identical queries may also repeat in base
        assert repeated_stream(mixed_stream, 3, seed=4) == stream
        with pytest.raises(ValueError):
            repeated_stream(mixed_stream, 0)


# ---------------------------------------------------------------------------- packaging sync
def test_pyproject_version_matches_package():
    """Satellite check: pyproject.toml version stays synced to repro.__init__."""
    import repro

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    assert match is not None, "pyproject.toml has no version field"
    assert match.group(1) == repro.__version__
