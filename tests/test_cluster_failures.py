"""Tests for failure injection, availability accounting and root failover."""

import pytest

from repro.cluster.failures import FailureInjector
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import RangeQuery, TopKQuery

from helpers import make_files


@pytest.fixture(scope="module")
def files():
    return make_files(240, clusters=6)


@pytest.fixture()
def store(files):
    return SmartStore.build(files, SmartStoreConfig(num_units=12, seed=5))


@pytest.fixture()
def injector(store):
    return FailureInjector(store, seed=3)


class TestCrashRecover:
    def test_initially_everything_alive(self, injector, store):
        assert injector.failed_units == set()
        report = injector.availability_report()
        assert report.failed_units == 0
        assert report.alive_units == store.cluster.num_units
        assert report.file_availability == 1.0
        assert report.root_reachable

    def test_crash_and_recover_single_unit(self, injector):
        injector.crash_unit(0)
        assert not injector.is_alive(0)
        assert injector.failed_units == {0}
        injector.recover_unit(0)
        assert injector.is_alive(0)
        assert injector.failed_units == set()

    def test_crash_unknown_unit_rejected(self, injector):
        with pytest.raises(KeyError):
            injector.crash_unit(9999)

    def test_crash_random_units(self, injector, store):
        chosen = injector.crash_random_units(3)
        assert len(chosen) == len(set(chosen)) == 3
        assert all(0 <= u < store.cluster.num_units for u in chosen)

    def test_crash_more_than_alive_rejected(self, injector, store):
        with pytest.raises(ValueError):
            injector.crash_random_units(store.cluster.num_units + 1)

    def test_recover_all(self, injector):
        injector.crash_random_units(4)
        injector.recover_all()
        assert injector.failed_units == set()


class TestAvailabilityReport:
    def test_file_availability_decreases_with_crashes(self, injector):
        baseline = injector.availability_report().file_availability
        injector.crash_random_units(4)
        degraded = injector.availability_report().file_availability
        assert degraded < baseline == 1.0
        assert degraded > 0.0

    def test_report_counts_index_units(self, injector, store):
        # Crash every unit hosting an index unit: all of them lose their host.
        hosts = {n.hosted_on for n in store.tree.index_units() if n.hosted_on is not None}
        injector.crash_units(hosts)
        report = injector.availability_report()
        assert report.index_units_lost_host == len(store.tree.index_units())
        assert report.index_units_rehostable <= report.index_units_lost_host

    def test_orphaned_group_detection(self, injector, store):
        group = store.tree.first_level_groups()[0]
        injector.crash_units(group.descendant_unit_ids())
        report = injector.availability_report()
        assert report.orphaned_groups >= 1

    def test_as_dict_keys(self, injector):
        d = injector.availability_report().as_dict()
        assert {"failed_units", "file_availability", "root_reachable"} <= set(d)


class TestRootFailover:
    def test_root_survives_primary_crash_via_replicas(self, injector, store):
        primary = store.tree.root.hosted_on
        if store.tree.root.replica_hosts:
            injector.crash_unit(primary)
            assert injector.root_reachable()

    def test_failover_noop_when_primary_alive(self, injector, store):
        report = injector.root_failover()
        assert not report.failed_over
        assert report.new_host == store.tree.root.hosted_on
        assert report.messages == 0

    def test_failover_promotes_surviving_host(self, injector, store):
        primary = store.tree.root.hosted_on
        injector.crash_unit(primary)
        report = injector.root_failover()
        assert report.failed_over
        assert report.old_host == primary
        assert report.new_host is not None and report.new_host != primary
        assert injector.is_alive(report.new_host)
        assert report.messages >= len(store.tree.first_level_groups())
        assert store.tree.root.hosted_on == report.new_host

    def test_failover_with_no_survivors(self, injector, store):
        injector.crash_units(store.cluster.unit_ids())
        report = injector.root_failover()
        assert not report.failed_over
        assert report.new_host is None
        assert not injector.root_reachable()


class TestDegradedQueries:
    def test_no_failures_means_no_loss(self, injector, files):
        q = RangeQuery(("size",), (0.0,), (1e18,))
        degraded = injector.run_degraded_query(q)
        assert degraded.lost_files == []
        assert degraded.availability == 1.0
        assert len(degraded.available_files) == len(degraded.result.files)

    def test_crash_loses_that_units_results(self, injector, store):
        q = RangeQuery(("size",), (0.0,), (1e18,))
        full = store.execute(q)
        # Crash the unit holding the first returned file.
        victim = injector.unit_of_file(full.files[0])
        assert victim is not None
        injector.crash_unit(victim)
        degraded = injector.run_degraded_query(q)
        assert degraded.lost_files
        assert all(injector.unit_of_file(f) == victim for f in degraded.lost_files)
        assert degraded.availability < 1.0

    def test_empty_result_availability_is_one(self, injector):
        q = RangeQuery(("size",), (1e17,), (1e18,))
        assert injector.run_degraded_query(q).availability == 1.0

    def test_degraded_recall_monotone_in_failures(self, injector, files):
        generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=11)
        queries = generator.mixed_complex_queries(10, 10, distribution="zipf", k=8)
        healthy = injector.degraded_recall(queries)
        injector.crash_random_units(6)
        degraded = injector.degraded_recall(queries)
        assert 0.0 <= degraded <= healthy <= 1.0

    def test_point_queries_ignored_by_degraded_recall(self, injector):
        from repro.workloads.types import PointQuery

        assert injector.degraded_recall([PointQuery("nothing.dat")]) == 1.0

    def test_repr(self, injector):
        injector.crash_unit(1)
        assert "failed=[1]" in repr(injector)
