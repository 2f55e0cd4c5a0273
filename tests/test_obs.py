"""Observability: distributed tracing, metrics registry, slow-query log.

The tentpole contracts:

* **One trace across every layer.**  A traced query against any topology
  yields a single span tree — client edge, admission, cache lookup,
  engine, per-shard scatter, replica read/catch-up — and over the wire
  the tree additionally spans the remote client and the server edge.
* **Degrade, never fail.**  Malformed trace headers from the wire yield
  a fresh trace (hypothesis-fuzzed).
* **Disabled tracing is free.**  Untraced requests allocate no spans and
  share one no-op handle.
* **Metrics render as Prometheus text exposition**; the slow-query log
  emits one structured record with the full span breakdown.
"""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DeploymentSpec, RequestOptions, connect
from repro.core.smartstore import SmartStoreConfig
from repro.eval.tracking import write_bench_json
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.obs import (
    MetricsRegistry,
    SlowQueryLog,
    Span,
    SpanCollector,
    TraceContext,
    Tracer,
    context_from_wire,
    context_to_wire,
    get_registry,
    get_tracer,
    set_registry,
    set_slowlog,
    set_tracer,
)
from repro.obs.trace import _NOOP_SPAN
from repro.server import serve_spec
from repro.server.protocol import options_from_wire, options_to_wire
from repro.server.remote import connect_remote
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery

from helpers import make_files

CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)


@pytest.fixture()
def traced():
    """Fresh enabled tracer + registry, restored afterwards."""
    prev_tracer = set_tracer(Tracer(enabled=True))
    prev_registry = set_registry(MetricsRegistry())
    prev_slowlog = set_slowlog(SlowQueryLog(None))
    yield get_tracer()
    set_tracer(prev_tracer)
    set_registry(prev_registry)
    set_slowlog(prev_slowlog)


@pytest.fixture(scope="module")
def population():
    return make_files(80, clusters=4)


def topk_queries(population, n=4, seed=17):
    return QueryWorkloadGenerator(population, DEFAULT_SCHEMA, seed=seed).topk_queries(
        n, k=5
    )


def span_tree(spans):
    """{span_id: span} plus a parent->children map, asserting one root."""
    by_id = {s.span_id: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    return by_id, children


# ---------------------------------------------------------------------------- local (in-process) tracing
class TestLocalTracing:
    def test_span_tree_covers_every_stage(self, traced, population):
        spec = DeploymentSpec(
            topology="sharded_replicated", store=CONFIG, shards=2, replicas=1
        )
        with connect(spec, population) as client:
            response = client.execute(topk_queries(population)[0])
        assert response.trace_id is not None
        spans = traced.collector.spans_for(response.trace_id)
        names = sorted(s.name for s in spans)
        for expected in (
            "client.execute",
            "service.admission",
            "service.cache_lookup",
            "service.engine",
            "shard.scan",
            "replica.read",
            "replica.catchup",
        ):
            assert expected in names, f"missing span {expected}: {names}"
        assert names.count("shard.scan") >= 1  # scatter legs (router may prune)
        # Parentage: every span belongs to the one trace and chains back
        # to the client-edge root.
        by_id, _ = span_tree(spans)
        assert all(s.trace_id == response.trace_id for s in spans)
        root = next(s for s in spans if s.name == "client.execute")
        assert root.parent_id == ""
        for s in spans:
            if s.span_id == root.span_id:
                continue
            assert s.parent_id in by_id, f"{s.name} has dangling parent"
        scans = [s for s in spans if s.name == "shard.scan"]
        engine = next(s for s in spans if s.name == "service.engine")
        assert all(s.parent_id == engine.span_id for s in scans)
        assert {s.tags["shard"] for s in scans} <= {0, 1}

    def test_cache_hit_is_tagged(self, traced, population):
        spec = DeploymentSpec(topology="plain", store=CONFIG)
        query = topk_queries(population)[0]
        with connect(spec, population) as client:
            first = client.execute(query)
            second = client.execute(query)
        lookup = [
            s
            for s in traced.collector.spans_for(second.trace_id)
            if s.name == "service.cache_lookup"
        ]
        assert lookup and lookup[0].tags["hit"] is True
        first_lookup = [
            s
            for s in traced.collector.spans_for(first.trace_id)
            if s.name == "service.cache_lookup"
        ]
        assert first_lookup and first_lookup[0].tags["hit"] is False

    def test_deadline_expiry_is_tagged_in_span(self, traced, population):
        spec = DeploymentSpec(topology="sharded", store=CONFIG, shards=2)
        with connect(spec, population) as client:
            response = client.execute(
                topk_queries(population)[0],
                RequestOptions(deadline_s=0.0),  # expires before admission
            )
        assert response.deadline_expired
        assert not response.complete
        engine = [
            s
            for s in traced.collector.spans_for(response.trace_id)
            if s.name == "service.engine"
        ]
        assert engine and engine[0].tags.get("deadline_expired") is True

    def test_mutation_gets_its_own_trace(self, traced, population, tmp_path):
        spec = DeploymentSpec(
            topology="durable", store=CONFIG, wal_dir=str(tmp_path / "wal")
        )
        with connect(spec, population) as client:
            response = client.delete(population[0])
        assert response.trace_id is not None
        names = {s.name for s in traced.collector.spans_for(response.trace_id)}
        assert "client.mutate" in names

    def test_disabled_tracing_allocates_nothing(self, population):
        prev = set_tracer(Tracer(enabled=False))
        try:
            tracer = get_tracer()
            assert tracer.span("anything") is _NOOP_SPAN
            assert tracer.root("anything") is _NOOP_SPAN
            spec = DeploymentSpec(topology="sharded", store=CONFIG, shards=2)
            with connect(spec, population) as client:
                response = client.execute(topk_queries(population)[0])
            assert response.trace_id is None
            assert len(tracer.collector) == 0
        finally:
            set_tracer(prev)

    def test_span_never_invents_a_trace_mid_stack(self, traced):
        # No ambient context, no explicit context: lower layers no-op.
        assert traced.span("wal.append") is _NOOP_SPAN


# ---------------------------------------------------------------------------- over the wire
PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$"
)


def assert_prometheus(text):
    """Minimal exposition-format validation: HELP/TYPE pairs + sample lines."""
    lines = [l for l in text.splitlines() if l]
    assert lines, "empty exposition"
    typed = set()
    for line in lines:
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram")
            typed.add(name)
        elif not line.startswith("#"):
            assert PROM_LINE.match(line), f"bad sample line: {line!r}"
    assert typed, "no TYPE headers"
    return typed


class TestWireTracing:
    @pytest.fixture()
    def server(self, traced, population):
        spec = DeploymentSpec(topology="sharded", store=CONFIG, shards=2)
        server = serve_spec(spec, population)
        yield server
        server.close()

    def test_trace_spans_the_wire_and_the_scatter(self, traced, server, population):
        with connect_remote(server.address) as remote:
            response = remote.execute(topk_queries(population)[0])
        assert response.trace_id is not None
        spans = traced.collector.spans_for(response.trace_id)
        names = [s.name for s in spans]
        for expected in (
            "remote.execute",
            "server.execute",
            "client.execute",
            "service.engine",
            "shard.scan",
        ):
            assert expected in names, f"missing {expected}: {names}"
        # Every scatter leg parents under the engine step that asked.
        engine = next(s for s in spans if s.name == "service.engine")
        scans = [s for s in spans if s.name == "shard.scan"]
        assert all(s.parent_id == engine.span_id for s in scans)
        assert {s.tags["shard"] for s in scans} <= {0, 1}

    def test_explicit_trace_id_round_trips(self, traced, server, population):
        options = RequestOptions(trace_id="cafe0123cafe0123")
        with connect_remote(server.address) as remote:
            response = remote.execute(topk_queries(population)[2], options)
        assert response.trace_id == "cafe0123cafe0123"

    def test_metrics_op_renders_the_process_registry(
        self, traced, server, population
    ):
        generator = QueryWorkloadGenerator(population, DEFAULT_SCHEMA, seed=11)
        with connect_remote(server.address) as remote:
            for q in generator.point_queries(8) + generator.topk_queries(2, k=5):
                remote.execute(q)
            text = remote.metrics_text()
        typed = assert_prometheus(text)
        assert {"repro_requests_total", "repro_net_requests_total"} <= typed

    def test_trace_export_op(self, traced, server, population):
        with connect_remote(server.address) as remote:
            response = remote.execute(topk_queries(population)[0])
            exported = remote.export_spans()
        mine = [s for s in exported if s["trace_id"] == response.trace_id]
        assert mine
        rebuilt = SpanCollector()
        assert rebuilt.ingest(mine) == len(mine)


# ---------------------------------------------------------------------------- malformed headers degrade, never fail
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=300),
)
garbage = st.one_of(
    json_scalars,
    st.lists(json_scalars, max_size=4),
    st.dictionaries(st.text(max_size=20), json_scalars, max_size=4),
)


class TestMalformedTraceHeaders:
    @given(payload=garbage)
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    def test_context_from_wire_never_raises(self, payload):
        ctx = context_from_wire(payload)
        assert ctx is None or isinstance(ctx, TraceContext)
        if ctx is not None:
            assert 0 < len(ctx.trace_id) <= 128

    @given(
        trace_id=garbage,
        trace_parent=garbage,
    )
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    def test_options_from_wire_degrades_trace_fields(self, trace_id, trace_parent):
        payload = dict(options_to_wire(RequestOptions()) or {})
        payload["trace_id"] = trace_id
        payload["trace_parent"] = trace_parent
        options = options_from_wire(payload)
        assert options is None or options.trace_id is None or (
            isinstance(options.trace_id, str) and len(options.trace_id) <= 128
        )

    def test_round_trip_is_lossless_for_valid_context(self):
        ctx = TraceContext.new()
        assert context_from_wire(context_to_wire(ctx)) == ctx

    def test_oversized_and_unprintable_ids_rejected(self):
        assert context_from_wire({"trace_id": "x" * 129}) is None
        assert context_from_wire({"trace_id": "bad\x00id"}) is None
        assert context_from_wire({"trace_id": ""}) is None


# ---------------------------------------------------------------------------- metrics registry
class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        reg.counter("c_total", kind="a").inc()
        reg.counter("c_total", kind="a").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h_seconds", buckets=(0.1, 1.0)).observe(0.5)
        assert reg.counter("c_total", kind="a").value == 3
        with pytest.raises(ValueError):
            reg.counter("c_total", kind="a").inc(-1)
        with pytest.raises(TypeError):
            reg.gauge("c_total", kind="a")

    def test_prometheus_render_parses(self):
        reg = MetricsRegistry()
        reg.counter("repro_ops_total", 'with "quotes" and \\slashes', kind="a\nb").inc()
        reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0)).observe(0.2)
        typed = assert_prometheus(reg.render_prometheus())
        assert typed == {"repro_ops_total", "repro_lat_seconds"}
        text = reg.render_prometheus()
        assert 'le="+Inf"' in text
        assert "repro_lat_seconds_sum" in text
        assert "repro_lat_seconds_count" in text


# ---------------------------------------------------------------------------- span collector
class TestSpanCollector:
    @staticmethod
    def _span(i, trace="t1"):
        return Span(trace, f"s{i}", "", "stage", float(i), float(i) + 0.5)

    def test_bounded_with_drop_count(self):
        collector = SpanCollector(capacity=3)
        for i in range(5):
            collector.record(self._span(i))
        assert len(collector) == 3
        assert collector.dropped == 2

    def test_take_removes_one_trace(self):
        collector = SpanCollector()
        collector.record(self._span(1, "a"))
        collector.record(self._span(2, "b"))
        taken = collector.take("a")
        assert [s.span_id for s in taken] == ["s1"]
        assert [s.trace_id for s in collector.snapshot()] == ["b"]

    def test_jsonl_round_trip(self, tmp_path):
        collector = SpanCollector()
        collector.record(Span("t", "s1", "", "stage", 1.0, 2.0, {"k": "v"}))
        path = collector.export_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        span = Span.from_dict(json.loads(lines[0]))
        assert span.duration_s == 1.0 and span.tags == {"k": "v"}

    def test_chrome_export_is_perfetto_shaped(self, tmp_path):
        collector = SpanCollector()
        collector.record(Span("t1", "s1", "", "a", 1.0, 2.0))
        collector.record(Span("t2", "s2", "", "b", 1.5, 2.5))
        document = json.loads(
            collector.export_chrome(tmp_path / "trace.json").read_text()
        )
        events = document["traceEvents"]
        assert [e["ph"] for e in events] == ["X", "X"]
        assert {e["pid"] for e in events} == {1, 2}  # one row per trace
        assert events[0]["dur"] == pytest.approx(1e6)


# ---------------------------------------------------------------------------- slow-query log
class TestSlowQueryLog:
    def test_threshold_gates_emission(self):
        log = SlowQueryLog(0.5)
        log.maybe_record(wall_s=0.1, kind="topk")
        assert log.records() == []
        log.maybe_record(wall_s=0.9, kind="topk")
        assert len(log.records()) == 1

    def test_disabled_log_never_records(self):
        log = SlowQueryLog(None)
        assert not log.enabled
        log.maybe_record(wall_s=100.0, kind="topk")
        assert log.records() == []

    def test_record_schema(self, tmp_path):
        log = SlowQueryLog(0.0, path=tmp_path / "slow.jsonl")
        span = Span("t", "s", "", "shard.scan", 1.0, 2.0, {"shard": 1})
        log.maybe_record(
            wall_s=0.2,
            kind="topk",
            trace_id="t",
            latency_s=0.1,
            complete=False,
            deadline_expired=True,
            attribution={"shards_down": [1]},
            epoch="e1",
            spans=[span],
        )
        (record,) = log.records()
        assert record["trace_id"] == "t"
        assert record["deadline_expired"] is True
        assert record["complete"] is False
        assert record["attribution"] == {"shards_down": [1]}
        assert record["spans"][0]["name"] == "shard.scan"
        assert record["spans"][0]["duration_s"] == 1.0
        # The JSONL sidecar holds the same record.
        line = json.loads((tmp_path / "slow.jsonl").read_text().splitlines()[0])
        assert line["trace_id"] == "t"

    def test_client_emits_slow_record_with_spans(self, traced, population):
        set_slowlog(SlowQueryLog(0.0))  # everything is slow
        spec = DeploymentSpec(topology="sharded", store=CONFIG, shards=2)
        with connect(spec, population) as client:
            response = client.execute(topk_queries(population)[0])
        from repro.obs import get_slowlog

        (record,) = [
            r for r in get_slowlog().records() if r["trace_id"] == response.trace_id
        ]
        assert record["kind"] == "query"
        assert {s["name"] for s in record["spans"]} >= {
            "client.execute",
            "service.engine",
            "shard.scan",
        }


# ---------------------------------------------------------------------------- bench artefact
class TestBenchTracking:
    def test_one_document_three_separate_blocks(self, _bench_artefacts_in_tmp):
        # The autouse conftest fixture points REPRO_BENCH_DIR at a tmp dir,
        # so every `repro bench` run under pytest lands there, never in the
        # checkout's benchmarks/results/ where it would clobber the
        # committed artefacts.
        path = write_bench_json(
            "obs_test",
            {"cfg": True},
            gates={"identical": True},
            modeled={"busy_makespan_s": 0.25},
        )
        assert path == _bench_artefacts_in_tmp / "BENCH_obs_test.json"
        # One place: no second copy beside it.
        assert list(_bench_artefacts_in_tmp.rglob("BENCH_obs_test.json")) == [path]
        doc = json.loads(path.read_text())
        assert doc["config"] == {"cfg": True}
        assert doc["gates"] == {"identical": True}
        assert doc["modeled"] == {"busy_makespan_s": 0.25}
        assert not {"metrics", "wall", "skipped"} & set(doc)  # nothing measured
        assert "timestamp" in doc
        assert "git_rev" in doc  # None outside a checkout, hash inside

    def test_default_location_is_the_results_directory(self, monkeypatch, tmp_path):
        from repro.eval.tracking import BENCH_DIR_ENV, bench_json_path

        monkeypatch.delenv(BENCH_DIR_ENV)
        monkeypatch.chdir(tmp_path)
        path = write_bench_json("obs_cwd_test", {}, gates={})
        assert path == bench_json_path("obs_cwd_test")
        assert path.resolve() == tmp_path / "benchmarks" / "results" / "BENCH_obs_cwd_test.json"
        assert not (tmp_path / "BENCH_obs_cwd_test.json").exists()
