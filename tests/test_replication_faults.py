"""Fault-injection tests: ship-point crashes, catch-up crashes, breakers.

Covers the failure scenarios the replication layer exists for:

* primary crash **before** the WAL segment ships (the write is not acked;
  the retry lands on the promoted replica and nothing acked is lost);
* primary crash **after** the segment ships (the retry double-applies,
  which the applied-seq watermark and record-level idempotence absorb);
* replica crash **during catch-up** (promotion falls back to the
  next-freshest live replica);
* circuit breaker open → half-open → closed transitions, deterministic in
  selection counts;
* pause / resume and slow-replica faults.
"""

import pytest

from repro.analysis.lockorder import witness_locks
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.metadata.file_metadata import FileMetadata
from repro.replication import (
    BreakerPolicy,
    FaultInjector,
    GroupUnavailableError,
    ReplicationConfig,
)
from repro.shard.build import build_group
from repro.replication.health import CLOSED, HALF_OPEN, OPEN, HealthTracker
from repro.service.cache import result_fingerprint
from repro.shard.build import build_router
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery

from helpers import make_files

CONFIG = SmartStoreConfig(num_units=6, seed=2, search_breadth=64)


@pytest.fixture(scope="module")
def files():
    return make_files(90, clusters=3)


@pytest.fixture(autouse=True)
def _lock_order_witness():
    """Every kill-the-primary drill doubles as a deadlock hunt: all locks
    the replication stack creates during the test are witnessed, and any
    acquisition-order cycle or blocking-I/O-under-a-fine-grained-lock
    fails the test."""
    with witness_locks() as witness:
        yield witness
    witness.assert_clean()


@pytest.fixture()
def group(files):
    group = build_group(
        files, CONFIG, replication=ReplicationConfig(replicas=2, max_lag=8)
    )
    yield group
    group.close()


def fresh_file(files, name, template=0):
    return FileMetadata(
        path=f"/ingest/{name}", attributes=dict(files[template].attributes)
    )


class TestPrimaryCrashAroundShipping:
    def test_crash_before_ship_loses_nothing_acked(self, group, files):
        injector = FaultInjector(group)
        injector.fail_primary_at(0, "before_ship")
        new = fresh_file(files, "before-ship.dat")
        receipt = group.insert(new)  # retried transparently on the new primary
        assert receipt is not None
        assert group.failovers == 1
        assert group.members[0].crashed
        # The acked write is visible and consistent on every live member
        # once the shipped log is pumped (anti-entropy repairs nothing —
        # the un-acked phantom died with the old primary).
        assert group.execute(PointQuery("before-ship.dat")).found
        assert group.anti_entropy() == {"checked": 1, "repaired": 0}
        live = [p for p in group.fingerprints() if p is not None]
        assert len(live) == 2 and len(set(live)) == 1

    def test_crash_after_ship_is_idempotent(self, group, files):
        injector = FaultInjector(group)
        injector.fail_primary_at(0, "after_ship")
        new = fresh_file(files, "after-ship.dat")
        group.insert(new)
        assert group.failovers == 1
        # The record shipped once and was retried once; the duplicate
        # nets out to a single visible copy everywhere.
        result = group.execute(PointQuery("after-ship.dat"))
        assert result.found and len(result.files) == 1
        assert group.anti_entropy()["repaired"] == 0
        live = [p for p in group.fingerprints() if p is not None]
        assert len(set(live)) == 1

    def test_before_ship_retry_rejoins_without_rebuild(self, group, files):
        injector = FaultInjector(group)
        injector.fail_primary_at(0, "before_ship")
        group.insert(fresh_file(files, "diverge.dat"))
        # The ex-primary staged a phantom seq, but the retried twin is
        # content-identical, so reintegration converges without a rebuild.
        injector.recover(0, 0)
        assert not group.members[0].crashed
        assert group.resyncs == 0
        assert group.anti_entropy()["repaired"] == 0
        assert len(set(group.fingerprints())) == 1

    def test_truly_diverged_ex_primary_is_rebuilt_on_rejoin(self, group, files):
        from repro.ingest.wal import WALRecord

        injector = FaultInjector(group)
        injector.crash_primary(0)
        # The group promotes and hands seq 1 to a different record...
        group.insert(fresh_file(files, "promoted.dat"))
        assert group.failovers == 1
        # ...while the dead ex-primary holds a phantom under the same seq
        # (what a crash after logging but before shipping leaves behind).
        group.members[0].pipeline.apply_replicated(
            WALRecord(seq=1, kind="insert", file=fresh_file(files, "phantom.dat"))
        )
        injector.recover(0, 0)
        # Catch-up alone cannot fix it (the seq watermark skips the twin),
        # so reintegration rebuilds the diverged copy outright.
        assert group.resyncs == 1
        assert group.anti_entropy()["repaired"] == 0
        assert len(set(group.fingerprints())) == 1


class TestReplicaCrashDuringCatchUp:
    def test_promotion_falls_back_to_next_freshest(self, files):
        group = build_group(
            files, CONFIG, replication=ReplicationConfig(replicas=2, max_lag=64)
        )
        try:
            generator = QueryWorkloadGenerator(files, seed=29)
            stream = generator.mutation_stream(6, 2, 2)
            for kind, file in stream:
                getattr(group, kind)(file)
            injector = FaultInjector(group)
            # Replica 1 is freshest on paper but dies after applying two
            # more records of its shipped log; replica 2 must take over.
            injector.crash_after_applies(0, 1, 2)
            injector.crash_primary(0)
            receipt = group.insert(fresh_file(files, "fallback.dat"))
            assert receipt is not None
            assert group.primary_id == 2
            assert group.members[1].crashed
            assert group.failovers == 1
            assert group.execute(PointQuery("fallback.dat")).found
        finally:
            group.close()

    def test_replica_crash_mid_pump_then_recovery(self, files):
        # Tight lag window: the write path itself pumps the replica, so
        # the armed crash fires mid catch-up, not at promotion time.
        group = build_group(
            files, CONFIG, replication=ReplicationConfig(replicas=1, max_lag=2)
        )
        try:
            generator = QueryWorkloadGenerator(files, seed=31)
            stream = generator.mutation_stream(5, 2, 1)
            injector = FaultInjector(group)
            injector.crash_after_applies(0, 1, 3)
            for kind, file in stream:
                getattr(group, kind)(file)
            # The replica died three records into its catch-up...
            assert group.members[1].crashed
            assert group.members[1].applied_seq == 3
            # ...and recovery replays the rest of its queued log.
            injector.recover(0, 1)
            assert group.members[1].applied_seq == group.primary.applied_seq
            assert len(set(group.fingerprints())) == 1
        finally:
            group.close()


class TestCircuitBreaker:
    def test_open_half_open_close_transitions(self):
        tracker = HealthTracker(BreakerPolicy(failure_threshold=2, probe_after=3))
        assert tracker.state == CLOSED
        tracker.record_failure()
        assert tracker.state == CLOSED  # one failure is not enough
        tracker.record_failure()
        assert tracker.state == OPEN
        # Open: refuse probe_after - 1 selections, then admit one probe.
        assert not tracker.available()
        assert not tracker.available()
        assert tracker.available()
        assert tracker.state == HALF_OPEN
        tracker.record_success()
        assert tracker.state == CLOSED
        assert tracker.opens == 1 and tracker.probes == 1

    def test_failed_probe_reopens(self):
        tracker = HealthTracker(BreakerPolicy(failure_threshold=1, probe_after=2))
        tracker.record_failure()
        assert tracker.state == OPEN
        assert not tracker.available()
        assert tracker.available()  # the half-open probe
        tracker.record_failure()
        assert tracker.state == OPEN  # probe failed: back to open
        assert not tracker.available()
        assert tracker.available()
        tracker.record_success()
        assert tracker.state == CLOSED

    def test_breaker_shields_crashed_replica_from_reads(self, files):
        group = build_group(
            files,
            CONFIG,
            replication=ReplicationConfig(
                replicas=2, breaker=BreakerPolicy(failure_threshold=2, probe_after=4)
            ),
        )
        try:
            injector = FaultInjector(group)
            injector.crash(0, 1)
            query = PointQuery(files[0].filename)
            for _ in range(12):
                assert group.execute(query).found
            crashed = group.members[1]
            assert crashed.tracker.state in (OPEN, HALF_OPEN)
            # Once open, the breaker absorbs selections without the read
            # path paying a failed probe each time: failures stop at the
            # threshold plus the occasional half-open probe.
            assert crashed.tracker.failures < 12
            assert group.degraded_reads > 0
            # Recovery closes the breaker and the member serves again.
            injector.recover(0, 1)
            assert crashed.tracker.state == CLOSED
            for _ in range(3):
                assert group.execute(query).found
        finally:
            group.close()


class TestPauseAndSlow:
    def test_paused_replica_queues_and_catches_up(self, group, files):
        injector = FaultInjector(group)
        injector.pause(0, 2)
        generator = QueryWorkloadGenerator(files, seed=37)
        for kind, file in generator.mutation_stream(4, 1, 1):
            getattr(group, kind)(file)
        paused = group.members[2]
        assert paused.applied_seq == 0 and paused.lag() == 6
        injector.resume(0, 2)
        assert paused.applied_seq == 6 and paused.lag() == 0
        assert group.anti_entropy()["repaired"] == 0
        assert len(set(group.fingerprints())) == 1

    def test_paused_replica_does_not_fail_reads(self, group, files):
        FaultInjector(group).pause(0, 1)
        query = PointQuery(files[2].filename)
        for _ in range(6):
            assert group.execute(query).found
        assert group.degraded_reads > 0

    def test_slow_replica_is_correct_just_slow(self, group, baseline_query=None):
        FaultInjector(group).slow(0, 1, 0.001)
        query = PointQuery("/data/proj0/file0000.dat".rsplit("/", 1)[-1])
        results = {result_fingerprint(group.execute(query)) for _ in range(4)}
        assert len(results) == 1  # slowness never changes an answer

    def test_slow_replicas_under_a_scatter_change_no_answer_or_counter(self, files):
        """Every group of a router has a slow member and a scatter calls the
        groups one after another on its caller: the sleeps add up instead
        of overlapping, which shows on a clock and nowhere else."""
        router = build_router(
            files, 3, CONFIG, replication=ReplicationConfig(replicas=1)
        )
        try:
            generator = QueryWorkloadGenerator(files, seed=47)
            queries = generator.range_queries(3) + generator.topk_queries(3, k=5)
            queries.append(RangeQuery(("size",), (0.0,), (1e12,)))

            def sweep():
                before = router.shards_contacted
                prints = [result_fingerprint(router.execute(q)) for q in queries]
                return prints, router.shards_contacted - before

            healthy = sweep()
            injector = FaultInjector(router)
            for gid in range(3):
                injector.slow(gid, 1, 0.002)
            for _ in range(2):  # the rotation lands on both members of a group
                assert sweep() == healthy
            events = router.drain_replication_events()
            assert events == {"failovers": 0, "degraded_reads": 0, "replica_retries": 0}
            assert sum(g.reads_served for g in router.replica_groups()) == 3 * healthy[1]
        finally:
            router.close()

    def test_active_faults_listing(self, group):
        injector = FaultInjector(group)
        injector.crash(0, 1)
        injector.slow(0, 2, 0.01)
        faults = injector.active_faults()
        assert faults["crashed"] == ["g0/r1"]
        assert faults["slow"] == ["g0/r2"]
        injector.clear_all()
        faults = injector.active_faults()
        assert not faults["crashed"] and not faults["slow"]

