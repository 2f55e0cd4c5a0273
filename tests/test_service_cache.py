"""Tests for the result cache: LRU behaviour, the Bloom-backed negative
cache, fingerprinting, and — the critical property — versioning-aware
invalidation keeping service answers exactly equal to a cold SmartStore."""

from __future__ import annotations

import pytest

from repro.cluster.metrics import Metrics
from repro.core.queries import QueryResult
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.core.versioning import VersionedChange, VersioningManager
from repro.metadata.file_metadata import FileMetadata
from repro.service import QueryService, ResultCache, ServiceConfig, result_fingerprint
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery

from helpers import make_files


def _result(files=(), found=None, distances=()):
    files = list(files)
    return QueryResult(
        files=files,
        metrics=Metrics(),
        latency=0.001,
        groups_visited=1,
        hops=0,
        found=bool(files) if found is None else found,
        distances=list(distances),
    )


def _file(path="/p/a.dat", **attrs):
    return FileMetadata(path=path, attributes={"size": 1.0, **attrs})


# ---------------------------------------------------------------------------- fingerprint
class TestResultFingerprint:
    def test_same_payload_same_digest(self):
        a = _result([_file()], distances=[0.5])
        b = _result([_file()], distances=[0.5])
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_ignores_cost_fields(self):
        a = _result([_file()])
        b = _result([_file()])
        b.latency = 99.0
        b.metrics.record_message(5)
        b.hops = 7
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_sensitive_to_files_found_and_distances(self):
        base = _result([_file()])
        assert result_fingerprint(base) != result_fingerprint(_result([]))
        assert result_fingerprint(base) != result_fingerprint(
            _result([_file("/p/b.dat")])
        )
        assert result_fingerprint(_result([], found=False)) != result_fingerprint(
            _result([], found=True)
        )
        assert result_fingerprint(
            _result([_file()], distances=[0.1])
        ) != result_fingerprint(_result([_file()], distances=[0.2]))


# ---------------------------------------------------------------------------- unit behaviour
class TestResultCacheUnit:
    def test_positive_roundtrip(self):
        cache = ResultCache(capacity=4)
        query = PointQuery("a.dat")
        assert cache.lookup(query) is None
        stored = _result([_file("/p/a.dat")])
        cache.store(query, stored)
        hit = cache.lookup(query)
        assert hit is not None and hit.source == "cache"
        assert result_fingerprint(hit.result) == result_fingerprint(stored)
        # serving copy carries cache-hit cost, not the original's
        assert hit.result.metrics.memory_index_accesses == 1
        assert hit.result.groups_visited == 0

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        q1, q2, q3 = (PointQuery(f"f{i}") for i in range(3))
        cache.store(q1, _result([_file("/p/1")]))
        cache.store(q2, _result([_file("/p/2")]))
        cache.lookup(q1)  # refresh q1: q2 becomes LRU
        cache.store(q3, _result([_file("/p/3")]))
        assert cache.lookup(q2) is None
        assert cache.lookup(q1) is not None
        assert cache.stats.evictions == 1

    def test_range_results_cached(self):
        cache = ResultCache(capacity=4)
        query = RangeQuery(("size",), (0.0,), (10.0,))
        cache.store(query, _result([_file()]))
        equal_window = RangeQuery(("size",), (0.0,), (10.0,))
        assert cache.lookup(equal_window) is not None

    def test_negative_cache_roundtrip(self):
        cache = ResultCache(capacity=4)
        miss = PointQuery("nonexistent.dat")
        cache.store(miss, _result([], found=False))
        hit = cache.lookup(miss)
        assert hit is not None and hit.source == "negative"
        assert hit.result.found is False and hit.result.files == []
        assert hit.result.metrics.bloom_probes == 1
        assert cache.negative_size == 1
        assert len(cache) == 0  # misses never occupy LRU slots

    def test_negative_cache_no_false_negatives(self):
        """Every recorded miss must be found again (Bloom has no false negatives)."""
        cache = ResultCache(capacity=4, negative_bits=64, negative_hashes=3)
        names = [f"missing-{i}.dat" for i in range(40)]
        for name in names:
            cache.store(PointQuery(name), _result([], found=False))
        for name in names:
            hit = cache.lookup(PointQuery(name))
            assert hit is not None and hit.source == "negative"

    def test_negative_cache_exactness_under_bloom_false_positives(self):
        """A tiny, saturated filter must never claim an unseen name missed."""
        cache = ResultCache(capacity=4, negative_bits=8, negative_hashes=1)
        for i in range(50):
            cache.store(PointQuery(f"seen-{i}"), _result([], found=False))
        # The 8-bit filter is saturated: it answers "maybe" for everything.
        # The exact set must still reject names never recorded as misses.
        assert cache.lookup(PointQuery("never-queried")) is None

    def test_negative_capacity_reset(self):
        cache = ResultCache(capacity=4, negative_capacity=3)
        for i in range(4):
            cache.store(PointQuery(f"m{i}"), _result([], found=False))
        assert cache.negative_size <= 3

    def test_invalidate_flushes_everything(self):
        cache = ResultCache(capacity=4)
        cache.store(PointQuery("hit"), _result([_file()]))
        cache.store(PointQuery("miss"), _result([], found=False))
        cache.invalidate()
        assert cache.lookup(PointQuery("hit")) is None
        assert cache.lookup(PointQuery("miss")) is None
        assert cache.stats.invalidations == 1

    def test_invalidate_on_empty_cache_is_not_counted(self):
        # Regression: the flush counter used to increment even when both
        # the LRU and the negative cache were already empty, inflating the
        # no-op flush count in telemetry.
        cache = ResultCache(capacity=4)
        cache.invalidate()
        assert cache.stats.invalidations == 0
        cache.store(PointQuery("hit"), _result([_file()]))
        cache.invalidate()
        cache.invalidate()  # already empty again: must not count
        assert cache.stats.invalidations == 1
        cache.store(PointQuery("miss"), _result([], found=False))
        cache.invalidate()  # negative side alone also counts as a real flush
        assert cache.stats.invalidations == 2

    def test_stats_accounting(self):
        cache = ResultCache(capacity=4)
        query = PointQuery("a")
        cache.lookup(query)
        cache.store(query, _result([_file()]))
        cache.lookup(query)
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)
        assert "hit_rate" in stats.as_dict()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(negative_capacity=0)


# ---------------------------------------------------------------------------- versioning hooks
class TestVersioningSubscription:
    def test_change_clock_advances(self):
        manager = VersioningManager()
        before = manager.change_clock
        manager.record(0, VersionedChange(kind="insert", file=_file(), unit_id=0))
        assert manager.change_clock == before + 1
        manager.clear_all()
        assert manager.change_clock == before + 2
        manager.touch()
        assert manager.change_clock == before + 3

    def test_subscriber_invoked_per_mutation(self):
        manager = VersioningManager()
        calls = []
        manager.subscribe(lambda: calls.append(1))
        manager.record(0, VersionedChange(kind="insert", file=_file(), unit_id=0))
        manager.record(1, VersionedChange(kind="delete", file=_file("/p/b"), unit_id=1))
        manager.clear_all()
        assert len(calls) == 3

    def test_cache_subscribes_to_versioning(self):
        manager = VersioningManager()
        cache = ResultCache(capacity=4, versioning=manager)
        cache.store(PointQuery("a"), _result([_file()]))
        manager.record(0, VersionedChange(kind="insert", file=_file("/p/new"), unit_id=0))
        assert cache.lookup(PointQuery("a")) is None
        assert cache.stats.invalidations >= 1

    def test_detach_unsubscribes(self):
        manager = VersioningManager()
        cache = ResultCache(capacity=4, versioning=manager)
        cache.detach()
        before = cache.stats.invalidations
        manager.touch()
        assert cache.stats.invalidations == before
        cache.detach()  # idempotent
        manager.unsubscribe(cache.invalidate)  # absent listener is a no-op

    def test_stale_epoch_store_is_dropped(self):
        """A result computed before a mutation must not repopulate the
        cache after the mutation's invalidation flush."""
        manager = VersioningManager()
        cache = ResultCache(capacity=4, versioning=manager)
        epoch = manager.change_clock
        # Mutation lands between execution and store (the race window).
        manager.record(0, VersionedChange(kind="insert", file=_file("/p/new"), unit_id=0))
        cache.store(PointQuery("a"), _result([_file()]), epoch=epoch)
        assert cache.lookup(PointQuery("a")) is None
        assert cache.stats.stale_drops == 1
        # A store observed at the current clock goes through.
        cache.store(PointQuery("a"), _result([_file()]), epoch=manager.change_clock)
        assert cache.lookup(PointQuery("a")) is not None

    def test_service_close_detaches_cache(self):
        files = make_files(60, clusters=4)
        store = SmartStore.build(files, SmartStoreConfig(num_units=4, seed=1))
        listeners_before = len(store.versioning._listeners)
        service = QueryService(store)
        assert len(store.versioning._listeners) == listeners_before + 1
        service.close()
        assert len(store.versioning._listeners) == listeners_before


# ---------------------------------------------------------------------------- end-to-end stress
class TestVersionedInvalidationStress:
    """The satellite stress test: interleave updates with cached serving and
    assert the service answers exactly like a cold, uncached SmartStore."""

    @pytest.fixture()
    def setup(self):
        files = make_files(160, clusters=4)
        initial, late = files[:120], files[120:]
        generator = QueryWorkloadGenerator(initial, seed=11)
        queries = (
            generator.point_queries(8, existing_fraction=0.75)
            + generator.range_queries(5, distribution="zipf")
            + generator.topk_queries(5, k=5)
            # point queries for files that do not exist yet: these populate
            # the negative cache and MUST flip to found after insertion
            + [PointQuery(f.filename) for f in late[:5]]
        )
        return initial, late, queries

    @staticmethod
    def _cold_answers(initial, inserts, queries, *, reconfigure=False):
        """A fresh uncached deployment replaying the same update history."""
        store = SmartStore.build(initial, SmartStoreConfig(num_units=8, seed=3))
        for file in inserts:
            store.insert_file(file)
        if reconfigure:
            store.reconfigure()
        return [result_fingerprint(store.execute(q)) for q in queries]

    def test_insertions_invalidate_and_answers_match_cold_store(self, setup):
        initial, late, queries = setup
        store = SmartStore.build(initial, SmartStoreConfig(num_units=8, seed=3))
        with QueryService(store, ServiceConfig()) as service:
            # Warm the cache (including negative entries for the late files).
            service.execute_many(queries)
            service.execute_many(queries)
            assert service.cache.stats.hits > 0

            inserted = []
            for i, file in enumerate(late):
                store.insert_file(file)
                inserted.append(file)
                if i % 3 != 0:
                    continue
                # After each burst the cache must have been flushed and the
                # service must answer exactly like a cold uncached store.
                hot = [result_fingerprint(r) for r in service.execute_many(queries)]
                cold = self._cold_answers(initial, inserted, queries)
                assert hot == cold

            # Every inserted file is now visible through the service even
            # though its filename was once negatively cached.
            for file in late:
                result = service.execute(PointQuery(file.filename))
                assert result.found, f"{file.filename} still served as a miss"

    def test_reconfigure_invalidates(self, setup):
        initial, late, queries = setup
        store = SmartStore.build(initial, SmartStoreConfig(num_units=8, seed=3))
        with QueryService(store, ServiceConfig()) as service:
            service.execute_many(queries)
            for file in late:
                store.insert_file(file)
            store.reconfigure()
            hot = [result_fingerprint(r) for r in service.execute_many(queries)]
            cold = self._cold_answers(initial, late, queries, reconfigure=True)
            assert hot == cold

    def test_deletions_invalidate(self, setup):
        initial, late, queries = setup
        store = SmartStore.build(initial, SmartStoreConfig(num_units=8, seed=3))
        victim = initial[0]
        with QueryService(store, ServiceConfig()) as service:
            before = service.execute(PointQuery(victim.filename))
            assert before.found
            store.delete_file(victim)
            store.reconfigure()
            after = service.execute(PointQuery(victim.filename))
            assert not after.found
