"""End-to-end integration tests: trace → deployment → workload → evaluation.

These tests exercise the same pipeline the benchmarks use, at a reduced
scale, and assert the *relationships* the paper's evaluation is built on
(SmartStore faster than the baselines, bounded search scope, versioning
recovering recall, distributed space footprint).
"""

import numpy as np
import pytest

from repro.baselines import DBMSBaseline, RTreeBaseline
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.eval.harness import run_query_workload
from repro.eval.recall import ground_truth_range, ground_truth_topk, recall
from repro.traces.msn import msn_trace
from repro.traces.scaleup import scale_up
from repro.workloads.generator import QueryWorkloadGenerator


@pytest.fixture(scope="module")
def trace():
    return msn_trace(scale=0.3, seed=11)


@pytest.fixture(scope="module")
def files(trace):
    return trace.file_metadata()


@pytest.fixture(scope="module")
def store(files):
    return SmartStore.build(files, SmartStoreConfig(num_units=20, seed=4))


@pytest.fixture(scope="module")
def baselines(files):
    return RTreeBaseline(files), DBMSBaseline(files)


@pytest.fixture(scope="module")
def generator(files):
    return QueryWorkloadGenerator(files, seed=9)


class TestTraceToDeployment:
    def test_trace_population_is_indexed(self, store, files):
        assert store.cluster.total_files() == len(files)

    def test_scaled_trace_builds_larger_deployment(self, trace):
        scaled = scale_up(trace, 2)
        store = SmartStore.build(scaled.file_metadata(), SmartStoreConfig(num_units=12, seed=0))
        assert store.cluster.total_files() == 2 * len(trace.file_metadata())

    def test_point_queries_resolve_against_trace_population(self, store, generator):
        queries = generator.point_queries(50, existing_fraction=1.0)
        hits = sum(1 for q in queries if store.execute(q).found)
        assert hits / len(queries) > 0.95


class TestLatencyShape:
    """Table 4's qualitative result: SmartStore ≪ R-tree ≪ DBMS."""

    def test_range_latency_ordering(self, store, baselines, generator):
        rtree, dbms = baselines
        queries = generator.range_queries(10, distribution="zipf")
        smart = run_query_workload(store, queries).total_latency
        rt = run_query_workload(rtree, queries).total_latency
        db = run_query_workload(dbms, queries).total_latency
        assert smart < rt < db
        assert db / smart > 50  # orders of magnitude, not a few percent

    def test_topk_latency_ordering(self, store, baselines, generator):
        rtree, dbms = baselines
        queries = generator.topk_queries(10, k=8, distribution="zipf")
        smart = run_query_workload(store, queries).total_latency
        rt = run_query_workload(rtree, queries).total_latency
        db = run_query_workload(dbms, queries).total_latency
        assert smart < rt < db

    def test_point_latency_ordering(self, store, baselines, generator):
        rtree, dbms = baselines
        queries = generator.point_queries(20, existing_fraction=1.0)
        smart = run_query_workload(store, queries).total_latency
        rt = run_query_workload(rtree, queries).total_latency
        db = run_query_workload(dbms, queries).total_latency
        assert smart < rt
        assert smart < db


class TestSearchScope:
    def test_complex_queries_touch_few_groups(self, store, generator):
        queries = generator.mixed_complex_queries(20, 20, distribution="zipf")
        result = run_query_workload(store, queries)
        total_groups = len(store.tree.first_level_groups())
        assert max(result.hops) < total_groups - 1
        assert np.mean(result.hops) < 0.5 * total_groups

    def test_offline_mode_uses_fewer_messages_than_online(self, files, generator):
        queries = generator.range_queries(15, distribution="zipf")
        offline = SmartStore.build(files, SmartStoreConfig(num_units=20, seed=4, mode="offline"))
        online = SmartStore.build(files, SmartStoreConfig(num_units=20, seed=4, mode="online"))
        off = run_query_workload(offline, queries).total_messages
        on = run_query_workload(online, queries).total_messages
        assert off < on


class TestAccuracy:
    def test_static_range_recall_high(self, store, files, generator):
        queries = generator.range_queries(25, distribution="zipf", ensure_nonempty=True)
        recalls = []
        for q in queries:
            result = store.execute(q)
            recalls.append(recall(result.files, ground_truth_range(files, q)))
        assert np.mean(recalls) > 0.9

    def test_static_topk_recall_high(self, store, files, generator):
        queries = generator.topk_queries(25, k=8, distribution="zipf")
        recalls = []
        for q in queries:
            result = store.execute(q)
            ideal = ground_truth_topk(
                files, q, raw_lower=store.index_lower, raw_upper=store.index_upper
            )
            recalls.append(recall(result.files, ideal))
        assert np.mean(recalls) > 0.9


class TestSpaceShape:
    """Figure 7's qualitative result: per-node index overhead ordering."""

    def test_space_ordering(self, store, baselines):
        rtree, dbms = baselines
        per_unit = store.index_space_bytes_per_unit()
        smart_mean = np.mean(list(per_unit.values()))
        assert smart_mean < rtree.index_space_bytes_per_node() < dbms.index_space_bytes_per_node()
        assert dbms.index_space_bytes_per_node() / smart_mean > 10
