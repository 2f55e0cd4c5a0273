"""Concurrency stress: no stale cached read may cross an epoch bump.

The service's correctness story under mixed read/write load is built on
cache epochs: a mutation bumps the versioning change clock, which flushes
the result cache, and any in-flight read that snapshotted an older epoch
has its ``store()`` dropped as stale.  These tests hammer that contract
from many threads: once a mutation returns, *every* subsequent read —
cached or not — must observe at least that mutation's state.

The victim record's ``size`` attribute increases monotonically across the
mutation stream, so staleness is detectable from any thread without
coordination: a reader samples the acked-mutation level *before* issuing
its read and asserts the size it got back is at least the level's size.
"""

import threading

import pytest

from repro.analysis.lockorder import witness_locks
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.service import QueryService, ServiceConfig
from repro.workloads.types import PointQuery, RangeQuery

from helpers import make_files


@pytest.fixture(autouse=True)
def _lock_order_witness():
    """Every stress run doubles as a deadlock/blocking hunt: all locks the
    service stack creates during the test are witnessed, and any
    acquisition-order cycle or blocking-I/O-under-a-fine-grained-lock
    fails the test."""
    with witness_locks() as witness:
        yield witness
    witness.assert_clean()

CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)

N_MUTATIONS = 30
N_READERS = 4


@pytest.fixture()
def files():
    return make_files(60, clusters=3)


def _run_stress(service, victim, base_size, step):
    """Writer bumps the victim's size; readers assert monotonic visibility."""
    sizes = [base_size]  # sizes[level] = size acked by mutation `level`
    acked_level = [0]
    stop = threading.Event()
    errors = []

    def reader():
        while not stop.is_set():
            level = acked_level[0]  # sampled BEFORE the read is issued
            try:
                result = service.execute(PointQuery(victim.filename))
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(("raised", repr(exc)))
                return
            if not result.files:
                errors.append(("missing", level))
                continue
            got = result.files[0].attributes["size"]
            expected = sizes[level]
            if got + 1e-9 < expected:
                errors.append(("stale", level, expected, got))

    threads = [threading.Thread(target=reader) for _ in range(N_READERS)]
    for t in threads:
        t.start()
    try:
        for i in range(1, N_MUTATIONS + 1):
            new_size = base_size + i * step
            updated = victim.with_updates(size=new_size)
            service.mutate("modify", updated)
            # Only after the ack: later reads must see >= new_size.  The
            # size is recorded before the level advances so no reader can
            # index past the list.
            sizes.append(new_size)
            acked_level[0] = i
    finally:
        stop.set()
        for t in threads:
            t.join()
    return errors


class TestCacheEpochConcurrency:
    def test_no_stale_read_crosses_epoch_bump(self, files):
        store = SmartStore.build(files, CONFIG)
        victim = files[7]
        config = ServiceConfig(cache_capacity=256, seed=11)
        with QueryService(store, config) as service:
            errors = _run_stress(
                service, victim, victim.attributes["size"], step=16.0
            )
            assert not errors, errors[:5]
            # The contract was exercised, not vacuous: reads were served
            # from cache between mutations, and mutations both cleared
            # populated cache entries and dropped stale store-backs
            # (invalidations only count flushes that found entries).
            assert service.cache.stats.hits > 0
            assert service.cache.stats.invalidations > 0

    def test_no_stale_read_through_execute_many(self, files):
        # A batch served before a mutation sees the state before it, and a
        # batch served after the ack sees the new state, cached or not.
        store = SmartStore.build(files, CONFIG)
        victim = files[11]
        config = ServiceConfig(cache_capacity=256, seed=13)
        with QueryService(store, config) as service:
            base = victim.attributes["size"]
            for i in range(1, 9):
                updated = victim.with_updates(size=base + i * 8.0)
                before = service.execute_many([PointQuery(victim.filename)] * 3)
                service.mutate("modify", updated)
                after = service.execute_many([PointQuery(victim.filename)] * 3)
                for r in before:
                    assert r.files[0].attributes["size"] == base + (i - 1) * 8.0
                for r in after:
                    assert r.files[0].attributes["size"] == base + i * 8.0

    def test_concurrent_mixed_queries_stay_internally_consistent(self, files):
        # Readers running range scans while the victim mutates must never
        # observe a half-applied record (a size that was never acked).
        store = SmartStore.build(files, CONFIG)
        victim = files[3]
        base = victim.attributes["size"]
        valid_sizes = {base} | {base + i * 4.0 for i in range(1, 13)}
        errors = []
        stop = threading.Event()
        window = RangeQuery(("size",), (base - 1.0,), (base + 100.0,))

        config = ServiceConfig(seed=17)
        with QueryService(store, config) as service:

            def reader():
                while not stop.is_set():
                    result = service.execute(window)
                    for f in result.files:
                        if f.file_id == victim.file_id:
                            if f.attributes["size"] not in valid_sizes:
                                errors.append(f.attributes["size"])

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for t in threads:
                t.start()
            try:
                for i in range(1, 13):
                    service.mutate("modify", victim.with_updates(size=base + i * 4.0))
            finally:
                stop.set()
                for t in threads:
                    t.join()
            assert not errors, errors[:5]
