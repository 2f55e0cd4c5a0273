"""Tests for replica groups: shipping, lag, reads, failover, anti-entropy."""

import time

import pytest

from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.wal import WALRecord
from repro.metadata.file_metadata import FileMetadata
from repro.replication import (
    FaultInjector,
    ReplicaGroup,
    ReplicationConfig,
    population_fingerprint,
)
from repro.shard.build import build_group
from repro.service import QueryService, ServiceConfig
from repro.service.cache import result_fingerprint
from repro.shard.build import build_router
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery

from helpers import make_files

CONFIG = SmartStoreConfig(num_units=6, seed=2, search_breadth=64)


@pytest.fixture(scope="module")
def files():
    return make_files(100, clusters=4)


@pytest.fixture(scope="module")
def workload(files):
    generator = QueryWorkloadGenerator(files, seed=17)
    return (
        generator.point_queries(6, existing_fraction=0.75)
        + generator.range_queries(6, distribution="zipf")
        + generator.topk_queries(6, k=6, distribution="zipf")
    )


@pytest.fixture()
def group(files):
    group = build_group(
        files, CONFIG, replication=ReplicationConfig(replicas=2, max_lag=8)
    )
    yield group
    group.close()


class TestReplicaGroupBasics:
    def test_members_are_identical_builds(self, group):
        prints = group.fingerprints()
        assert len(prints) == 3
        assert len(set(prints)) == 1

    def test_reads_rotate_across_members(self, group, workload):
        for query in workload:
            group.execute(query)
        # Round-robin rotation: every member served some reads, none
        # counted as degraded (everyone healthy).
        assert group.reads_served == len(workload)
        assert group.degraded_reads == 0
        assert all(m.tracker.successes > 0 for m in group.members)

    def test_rejects_single_member(self, files):
        store = SmartStore.build(files, CONFIG)
        from repro.replication.group import Replica

        with pytest.raises(ValueError):
            ReplicaGroup([Replica(0, store, IngestPipeline(store))])

    def test_replication_config_validation(self):
        with pytest.raises(ValueError):
            ReplicationConfig(replicas=0)
        with pytest.raises(ValueError):
            ReplicationConfig(mode="quorum")
        with pytest.raises(ValueError):
            ReplicationConfig(max_lag=0)


class TestShippingAndLag:
    def test_async_writes_ship_within_bounded_window(self, files):
        group = build_group(
            files, CONFIG, replication=ReplicationConfig(replicas=1, max_lag=3)
        )
        try:
            generator = QueryWorkloadGenerator(files, seed=23)
            for kind, file in generator.mutation_stream(8, 3, 3):
                getattr(group, kind)(file)
            # The write path pumps the replica back inside the window.
            assert group.members[1].lag() <= 3
            assert group.max_observed_lag <= 3
        finally:
            group.close()

    def test_sync_mode_leaves_no_lag(self, files):
        group = build_group(
            files, CONFIG, replication=ReplicationConfig(replicas=2, mode="sync")
        )
        try:
            generator = QueryWorkloadGenerator(files, seed=23)
            for kind, file in generator.mutation_stream(6, 2, 2):
                getattr(group, kind)(file)
            assert all(m.lag() == 0 for m in group.members)
            watermark = group.primary.applied_seq
            assert all(m.applied_seq == watermark for m in group.members)
        finally:
            group.close()

    def test_read_your_writes_from_any_replica(self, group, files):
        new = FileMetadata(
            path="/ingest/ryw.dat", attributes=dict(files[3].attributes)
        )
        group.insert(new)
        # Ask more times than there are members: every replica must serve
        # the staged insert (catch-up-on-read) even in async mode.
        for _ in range(len(group.members) + 1):
            assert group.execute(PointQuery("ryw.dat")).found

    def test_wal_first_primary_ships_logged_records(self, files, tmp_path):
        group = build_group(
            files,
            CONFIG,
            replication=ReplicationConfig(replicas=1, mode="sync"),
            wal_path=tmp_path / "primary.wal",
        )
        try:
            new = FileMetadata(
                path="/ingest/durable.dat", attributes=dict(files[5].attributes)
            )
            receipt = group.insert(new)
            assert group.wal is not None and group.wal.appended == 1
            # The replica archived the shipped segment in its OWN log
            # (same sequence numbering), so a promotion stays durable.
            replica_wal = group.members[1].pipeline.wal
            assert replica_wal is not None
            assert replica_wal.path.name == "primary.wal.r1"
            assert replica_wal.appended == 1
            assert replica_wal.last_seq == receipt.seq
            assert group.members[1].applied_seq == receipt.seq
        finally:
            group.close()


class TestFailover:
    def test_write_failover_promotes_freshest_replica(self, group, files):
        generator = QueryWorkloadGenerator(files, seed=29)
        stream = generator.mutation_stream(6, 2, 2)
        for kind, file in stream[:5]:
            getattr(group, kind)(file)
        injector = FaultInjector(group)
        injector.crash_primary()
        for kind, file in stream[5:]:
            receipt = getattr(group, kind)(file)
            assert receipt is not None
        assert group.failovers == 1
        assert group.primary_id != 0
        # The promoted replica carries every acked write.
        assert group.primary.applied_seq == len(stream)

    def test_failover_is_invisible_to_readers(self, group, workload, files):
        reference = SmartStore.build(files, CONFIG)
        pipeline = IngestPipeline(reference)
        generator = QueryWorkloadGenerator(files, seed=31)
        stream = generator.mutation_stream(5, 2, 2)
        for kind, file in stream:
            getattr(group, kind)(file)
            getattr(pipeline, kind)(file)
        FaultInjector(group).crash_primary()
        for query in workload:
            assert result_fingerprint(group.execute(query)) == result_fingerprint(
                reference.execute(query)
            )
        assert group.degraded_reads > 0

    def test_promotion_stays_durable(self, files, tmp_path):
        group = build_group(
            files,
            CONFIG,
            replication=ReplicationConfig(replicas=1, mode="sync"),
            wal_path=tmp_path / "group.wal",
        )
        try:
            first = FileMetadata(
                path="/ingest/pre.dat", attributes=dict(files[2].attributes)
            )
            group.insert(first)
            FaultInjector(group).crash_primary()
            second = FileMetadata(
                path="/ingest/post.dat", attributes=dict(files[4].attributes)
            )
            receipt = group.insert(second)
            # The promoted replica keeps writing WAL-first on its own log:
            # the pre-failover shipped segment AND the post-failover write
            # are both on its disk.
            promoted = group.primary
            assert promoted.replica_id == 1
            assert promoted.pipeline.wal is not None
            assert [r.seq for r in promoted.pipeline.wal.replay()] == [1, receipt.seq]
        finally:
            group.close()

    def test_group_unavailable_when_everyone_is_down(self, group):
        from repro.replication import GroupUnavailableError

        injector = FaultInjector(group)
        for replica_id in range(3):
            injector.crash(0, replica_id)
        with pytest.raises(GroupUnavailableError):
            group.execute(PointQuery("anything.dat"))
        with pytest.raises(GroupUnavailableError):
            group.insert(
                FileMetadata(path="/x/y.dat", attributes={"size": 1.0})
            )


class TestAntiEntropy:
    def test_clean_group_needs_no_repair(self, group, files):
        generator = QueryWorkloadGenerator(files, seed=37)
        for kind, file in generator.mutation_stream(4, 2, 1):
            getattr(group, kind)(file)
        outcome = group.anti_entropy()
        assert outcome == {"checked": 2, "repaired": 0}

    def test_diverged_replica_is_rebuilt(self, group, files):
        # Poison one replica behind the group's back (what a lost ship or
        # a rejoining ex-primary looks like).
        rogue = FileMetadata(
            path="/rogue/phantom.dat", attributes=dict(files[9].attributes)
        )
        group.members[2].pipeline.apply_replicated(
            WALRecord(seq=1, kind="insert", file=rogue)
        )
        prints = group.fingerprints()
        assert prints[2] != prints[0]
        outcome = group.anti_entropy()
        assert outcome["repaired"] == 1
        assert group.resyncs == 1
        prints = group.fingerprints()
        assert prints[2] == prints[0]

    def test_resync_preserves_policy_and_recreates_the_log(self, files, tmp_path):
        from repro.ingest.compactor import CompactionPolicy

        policy = CompactionPolicy(max_staged_per_group=3, hot_group_factor=0.0)
        group = build_group(
            files,
            CONFIG,
            replication=ReplicationConfig(replicas=1),
            wal_path=tmp_path / "group.wal",
            policy=policy,
        )
        try:
            group.insert(
                FileMetadata(path="/ingest/real.dat", attributes=dict(files[6].attributes))
            )
            member = group.members[1]
            member.pipeline.apply_replicated(
                WALRecord(
                    seq=9,
                    kind="insert",
                    file=FileMetadata(
                        path="/rogue/junk.dat", attributes=dict(files[8].attributes)
                    ),
                )
            )
            assert group.anti_entropy()["repaired"] == 1
            # The rebuilt member keeps the caller's compaction policy and
            # gets a fresh log at its old path (divergent records gone).
            assert member.pipeline.compactor.policy is policy
            assert member.pipeline.wal is not None
            assert member.pipeline.wal.path == tmp_path / "group.wal.r1"
            assert member.pipeline.wal.replay().records == []
            assert member.applied_seq == group.primary.applied_seq
        finally:
            group.close()

    def test_population_fingerprint_is_order_independent(self, files):
        assert population_fingerprint(files) == population_fingerprint(
            list(reversed(files))
        )
        assert population_fingerprint(files) != population_fingerprint(files[:-1])


class TestReplicatedRouter:
    def test_kill_every_primary_mid_workload(self, files, workload):
        reference = None
        router = build_router(
            files, 2, CONFIG, replication=ReplicationConfig(replicas=2)
        )
        baseline = SmartStore.build(files, CONFIG)
        pipeline = IngestPipeline(baseline)
        try:
            assert router.replicated and len(router.replica_groups()) == 2
            generator = QueryWorkloadGenerator(files, seed=41)
            stream = generator.mutation_stream(8, 3, 3)
            for kind, file in stream[:7]:
                getattr(router, kind)(file)
                getattr(pipeline, kind)(file)
            FaultInjector(router).crash_primary()
            for kind, file in stream[7:]:
                getattr(router, kind)(file)
                getattr(pipeline, kind)(file)
            reference = [result_fingerprint(baseline.execute(q)) for q in workload]
            got = [result_fingerprint(router.execute(q)) for q in workload]
            assert got == reference
            router.compactor.drain()
            pipeline.compactor.drain()
            got = [result_fingerprint(router.execute(q)) for q in workload]
            reference = [result_fingerprint(baseline.execute(q)) for q in workload]
            assert got == reference
            stats = router.stats()["replication"]
            assert stats["failovers"] == 2
            assert router.anti_entropy()["repaired"] == 0
        finally:
            router.close()

    def test_service_telemetry_accounts_replication_events(self, files, workload):
        router = build_router(
            files, 2, CONFIG, replication=ReplicationConfig(replicas=1)
        )
        try:
            with QueryService(
                router,
                # No result cache: every request must reach the replica
                # groups, or the post-kill round would be served from
                # cache and observe no replication events at all.
                ServiceConfig(cache_enabled=False, seed=9),
            ) as service:
                for query in workload:
                    service.execute(query)
                assert service.telemetry.as_dict()["degraded_reads"] == 0
                FaultInjector(router).crash_primary()
                for query in workload:
                    service.execute(query)
                assert service.telemetry.as_dict()["degraded_reads"] > 0
                stats = service.stats()
                assert stats["replication"]["degraded_reads"] > 0
                assert stats["telemetry"]["degraded_reads"] > 0
        finally:
            router.close()
