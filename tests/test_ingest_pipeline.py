"""Tests for staging, the compactor and the ingest pipeline.

Covers the write path's behavioural contract: read-your-writes before
compaction (including deletion masking), byte-identical answers after
draining, mutation edge cases (insert-then-delete, duplicate inserts,
unknown deletes) and the compaction policy triggers.
"""

import pytest

from repro.core.smartstore import SmartStore, SmartStoreConfig, UNKNOWN_GROUP
from repro.core.versioning import VersionedChange, VersioningManager
from repro.ingest import (
    CompactionPolicy,
    IngestPipeline,
    WriteAheadLog,
    recover_from_storage,
)
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.service.cache import result_fingerprint
from repro.storage import SegmentStore
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import make_files

#: Exhaustive search breadth so equivalence checks compare exact answers.
CONFIG = SmartStoreConfig(num_units=6, seed=1, search_breadth=64)


def probe_queries(files, seed=5, per_type=6):
    generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=seed)
    return (
        generator.point_queries(per_type, existing_fraction=0.8)
        + generator.range_queries(per_type)
        + generator.topk_queries(per_type, k=8)
    )


@pytest.fixture()
def store():
    return SmartStore.build(make_files(80), CONFIG)


@pytest.fixture()
def pipeline(store, tmp_path):
    with IngestPipeline(
        store, WriteAheadLog(tmp_path / "wal.jsonl", fsync_every=0)
    ) as p:
        yield p


def new_file(i=0, base_time=2000.0):
    return FileMetadata(
        path=f"/ingest/test-new-{i}.dat",
        attributes={
            "size": 5000.0 + i, "ctime": base_time, "mtime": base_time + 100.0,
            "atime": base_time + 200.0, "read_bytes": 3000.0, "write_bytes": 800.0,
            "access_count": 2.0, "owner": 1.0,
        },
    )


class TestOverlay:
    """``pipeline.overlay`` is the store's one pending-change store."""

    def test_latest_mutation_wins(self, pipeline):
        overlay = pipeline.overlay
        assert overlay is pipeline.store.versioning
        f = new_file()
        pipeline.insert(f)
        assert overlay.latest(f.file_id).kind == "insert"
        pipeline.delete(f)
        assert len(overlay) == 1
        assert overlay.latest(f.file_id).kind == "delete"
        view = overlay.snapshot()
        assert f.file_id not in view.live and f.file_id in view.pending
        assert view.entries == 2   # the chain keeps both changes

    def test_group_indexing_and_discard(self, pipeline):
        overlay = pipeline.overlay
        a, b = new_file(1), pipeline.store.files[0]
        ga = pipeline.insert(a).group_id
        gb = pipeline.modify(b.with_updates(size=1.0)).group_id
        assert ga != gb
        assert {gid: n for gid, (n, _) in overlay.group_backlog().items()} == {ga: 1, gb: 1}
        taken = pipeline.store.versioning.clear_group(ga)
        assert [c.file.file_id for c in taken] == [a.file_id]
        assert overlay.latest(a.file_id) is None
        assert overlay.latest(b.file_id) is not None

    def test_group_age_counts_mutations_since(self):
        overlay = VersioningManager()
        overlay.record(1, VersionedChange("insert", new_file(1), 0))
        for i in range(2, 6):
            overlay.record(2, VersionedChange("insert", new_file(i), 0))
        # group 1's oldest entry is 5 mutations ago; no entry, no age
        assert overlay.group_backlog() == {1: (1, 5), 2: (4, 4)}
        # Re-staging a file makes its entry the group's newest.
        overlay.record(1, VersionedChange("modify", new_file(1), 0))
        assert overlay.group_backlog()[1] == (1, 1)

    def test_unknown_kind_rejected(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.store.stage_mutation("upsert", new_file())
        with pytest.raises(ValueError):
            pipeline._apply("rename", new_file())
        assert len(pipeline.overlay) == 0


class TestChangesStagedBeforeAttach:
    """A pipeline attached to a store with pending changes owns them: its
    compactor drains them and its checkpoint publishes them."""

    def test_drain_applies_them(self, store):
        f = new_file()
        store.insert_file(f)
        pipeline = IngestPipeline(store)
        assert pipeline.compactor.drain() == 1
        assert store.versioning.stats()["entries"] == 0
        assert store.file_by_id(f.file_id) is not None
        assert store.execute(PointQuery(f.filename)).found

    def test_checkpoint_and_recovery_keep_them(self, store, tmp_path):
        f = new_file()
        store.insert_file(f)
        pipeline = IngestPipeline(store)
        pipeline.attach_storage(SegmentStore(tmp_path / "snap"))
        pipeline.checkpoint()
        pipeline.close()
        recovered, _ = recover_from_storage(tmp_path / "snap")
        try:
            found = recovered.store.execute(PointQuery(f.filename)).files
            assert [m.file_id for m in found] == [f.file_id]
        finally:
            recovered.close()
            recovered.storage.close()


class TestReadYourWrites:
    def test_insert_visible_immediately(self, pipeline):
        f = new_file()
        receipt = pipeline.insert(f)
        assert receipt.known and receipt.seq == 1
        store = pipeline.store
        assert store.execute(PointQuery(f.filename)).found
        r = store.execute(RangeQuery(("mtime",), (2050.0,), (2150.0,)))
        assert any(m.file_id == f.file_id for m in r.files)
        t = store.execute(TopKQuery(("size", "mtime"), (5000.0, 2100.0), 3))
        assert any(m.file_id == f.file_id for m in t.files)

    def test_delete_masked_immediately(self, pipeline):
        store = pipeline.store
        victim = store.files[0]
        pipeline.delete(victim)
        assert not store.execute(PointQuery(victim.filename)).found
        r = store.execute(RangeQuery(("size",), (0.0,), (1e12,)))
        assert all(m.file_id != victim.file_id for m in r.files)
        t = store.execute(
            TopKQuery(
                ("size", "mtime"),
                (victim.get("size"), victim.get("mtime")),
                len(store.files),
            )
        )
        assert all(m.file_id != victim.file_id for m in t.files)

    def test_modify_serves_new_values(self, pipeline):
        store = pipeline.store
        target = store.files[0]
        updated = target.with_updates(mtime=9999.0)
        pipeline.modify(updated)
        r = store.execute(RangeQuery(("mtime",), (9000.0,), (10000.0,)))
        assert any(m.file_id == target.file_id for m in r.files)
        served = next(m for m in r.files if m.file_id == target.file_id)
        assert served.get("mtime") == 9999.0

    def test_modify_masks_stale_copy_out_of_window(self, pipeline):
        # A staged modify that moves the file OUT of a window must hide the
        # stale indexed copy from range queries immediately.
        store = pipeline.store
        target = store.files[0]
        old_mtime = target.get("mtime")
        window = ((old_mtime - 1.0,), (old_mtime + 1.0,))
        before = store.execute(RangeQuery(("mtime",), *window))
        assert any(m.file_id == target.file_id for m in before.files)
        pipeline.modify(target.with_updates(mtime=old_mtime + 50_000.0))
        after = store.execute(RangeQuery(("mtime",), *window))
        assert all(m.file_id != target.file_id for m in after.files)
        # And compaction serves the same answer.
        pipeline.compactor.drain()
        drained = store.execute(RangeQuery(("mtime",), *window))
        assert all(m.file_id != target.file_id for m in drained.files)

    def test_read_your_writes_without_versioning(self, tmp_path):
        config = SmartStoreConfig(
            num_units=6, seed=1, search_breadth=64, versioning_enabled=False
        )
        store = SmartStore.build(make_files(60), config)
        with IngestPipeline(store) as pipeline:
            f = new_file()
            pipeline.insert(f)
            # The overlay serves staged records even with the paper's
            # versioning mechanism ablated away.
            assert store.execute(PointQuery(f.filename)).found


class TestStagedTopKExactness:
    def test_many_staged_deletes_do_not_break_maxd_pruning(self, tmp_path):
        """Regression: staged deletes' indexed copies must not tighten MaxD.

        With many uncompacted deletes, the deleted records still sit on the
        storage units; if they enter the candidate pool they make the k-th
        distance look smaller than it really is, the group scan stops early
        and true survivors are missed.  The staged store must answer every
        top-k exactly like a fresh build over the surviving population.
        """
        store = SmartStore.build(make_files(120), CONFIG)
        with IngestPipeline(store) as pipeline:
            generator = QueryWorkloadGenerator(store.files, DEFAULT_SCHEMA, seed=41)
            for kind, f in generator.mutation_stream(10, 40, 10):
                getattr(pipeline, kind)(f)
            assert len(pipeline.overlay) == 60  # nothing compacted
            survivors = pipeline.materialized_files()
            probe_gen = QueryWorkloadGenerator(survivors, DEFAULT_SCHEMA, seed=43)
            queries = probe_gen.topk_queries(12, k=8)
            fresh = SmartStore.build(survivors, CONFIG)
            staged_fp = [result_fingerprint(store.execute(q)) for q in queries]
            fresh_fp = [result_fingerprint(fresh.execute(q)) for q in queries]
            assert staged_fp == fresh_fp


class TestMutationEdgeCases:
    def test_insert_then_delete_before_compaction(self, pipeline):
        store = pipeline.store
        f = new_file()
        before = store.cluster.total_files()
        pipeline.insert(f)
        pipeline.delete(f)
        assert not store.execute(PointQuery(f.filename)).found
        applied = pipeline.compactor.drain()
        assert applied == 2  # both changes applied, netting out
        assert store.cluster.total_files() == before
        assert store.file_by_id(f.file_id) is None
        assert not store.execute(PointQuery(f.filename)).found

    def test_reinsert_after_pending_delete_stays_deletable(self, pipeline):
        # insert -> delete -> re-insert -> delete, all before compaction:
        # the re-insert must follow the pending history's placement (one
        # chain, record order), so the final delete is known and the file
        # ends up absent.
        store = pipeline.store
        f = new_file()
        pipeline.insert(f)
        pipeline.delete(f)
        again = f.with_updates(size=9999.0)
        pipeline.insert(again)
        assert store.execute(PointQuery(f.filename)).found
        final = pipeline.delete(again)
        assert final.known
        pipeline.compactor.drain()
        assert store.file_by_id(f.file_id) is None
        assert not store.execute(PointQuery(f.filename)).found

    def test_reinsert_after_pending_delete_survives_drain(self, pipeline):
        store = pipeline.store
        f = new_file()
        pipeline.insert(f)
        pipeline.delete(f)
        again = f.with_updates(size=8888.0)
        pipeline.insert(again)
        pipeline.compactor.drain()
        assert store.file_by_id(f.file_id).get("size") == 8888.0
        assert store.execute(PointQuery(f.filename)).found

    def test_duplicate_insert_replaces_not_duplicates(self, pipeline):
        store = pipeline.store
        f = new_file()
        pipeline.insert(f)
        pipeline.compactor.drain()
        before = store.cluster.total_files()
        again = f.with_updates(size=7777.0)
        pipeline.insert(again)
        pipeline.compactor.drain()
        assert store.cluster.total_files() == before  # replaced, not copied
        assert store.file_by_id(f.file_id).get("size") == 7777.0
        result = store.execute(PointQuery(f.filename))
        assert len(result.files) == 1

    def test_delete_unknown_file_is_observable_noop(self, pipeline):
        store = pipeline.store
        ghost = new_file(999)
        before_total = store.cluster.total_files()
        before_pop = len(store.files)
        receipt = pipeline.delete(ghost)
        assert not receipt.known
        assert receipt.group_id == UNKNOWN_GROUP
        assert pipeline.rejected == 1
        assert len(pipeline.overlay) == 0
        applied = pipeline.compactor.drain()
        assert applied == 0
        assert store.cluster.total_files() == before_total
        assert len(store.files) == before_pop
        # Leaf file counts stay consistent with the servers.
        for unit_id, leaf in store.tree.leaves.items():
            assert leaf.file_count == len(store.cluster.server(unit_id))

    def test_facade_delete_unknown_returns_sentinel(self, store):
        assert store.delete_file(new_file(998)) == UNKNOWN_GROUP
        assert store._pending_deletions == 0
        assert store.reconfigure() == 0

    def test_modify_unknown_returns_sentinel(self, store):
        assert store.modify_file(new_file(997)) == UNKNOWN_GROUP


class TestCompaction:
    def test_drain_equivalence_with_fresh_build(self, pipeline):
        store = pipeline.store
        generator = QueryWorkloadGenerator(store.files, DEFAULT_SCHEMA, seed=11)
        for kind, f in generator.mutation_stream(12, 8, 4):
            getattr(pipeline, kind)(f)
        queries = probe_queries(pipeline.materialized_files())
        pre = [result_fingerprint(store.execute(q)) for q in queries]
        pipeline.compactor.drain()
        assert len(pipeline.overlay) == 0
        assert store.versioning.stats()["entries"] == 0
        post = [result_fingerprint(store.execute(q)) for q in queries]
        assert pre == post  # compaction changes no answer
        fresh = SmartStore.build(pipeline.materialized_files(), CONFIG)
        fresh_fp = [result_fingerprint(fresh.execute(q)) for q in queries]
        assert post == fresh_fp  # byte-identical to a fresh build

    def test_policy_count_threshold(self, store, tmp_path):
        policy = CompactionPolicy(max_staged_per_group=3, max_staged_total=1000)
        with IngestPipeline(store, policy=policy) as pipeline:
            generator = QueryWorkloadGenerator(store.files, DEFAULT_SCHEMA, seed=3)
            for kind, f in generator.mutation_stream(30, 0, 0, shuffle=False):
                pipeline.insert(f)
                pipeline.compactor.run_once()
            # The policy keeps every group below its threshold.
            assert all(
                n < 3 + 1 for n, _ in pipeline.overlay.group_backlog().values()
            )
            assert pipeline.compactor.stats.group_compactions > 0

    def test_policy_total_threshold_drains_everything(self, store):
        policy = CompactionPolicy(max_staged_per_group=10_000, max_staged_total=5)
        with IngestPipeline(store, policy=policy) as pipeline:
            generator = QueryWorkloadGenerator(store.files, DEFAULT_SCHEMA, seed=4)
            for kind, f in generator.mutation_stream(5, 0, 0):
                pipeline.insert(f)
            assert pipeline.compactor.due_groups()  # total budget exceeded
            pipeline.compactor.run_once()
            assert len(pipeline.overlay) == 0

    def test_background_compactor_thread(self, store):
        import time

        policy = CompactionPolicy(max_staged_per_group=1, max_staged_total=2)
        with IngestPipeline(store, policy=policy) as pipeline:
            pipeline.compactor.interval = 0.01
            pipeline.compactor.start()
            assert pipeline.compactor.running
            generator = QueryWorkloadGenerator(store.files, DEFAULT_SCHEMA, seed=6)
            for kind, f in generator.mutation_stream(10, 0, 0):
                pipeline.insert(f)
            deadline = time.time() + 5.0
            while len(pipeline.overlay) and time.time() < deadline:
                time.sleep(0.01)
            assert len(pipeline.overlay) == 0
        assert not pipeline.compactor.running  # close() stopped it

    def test_hot_group_split(self):
        # A tiny deployment with an aggressive hot factor: pouring every
        # insert into one group must eventually split it.
        files = make_files(40)
        store = SmartStore.build(
            files, SmartStoreConfig(num_units=4, seed=1, search_breadth=64)
        )
        policy = CompactionPolicy(
            max_staged_per_group=5, max_staged_total=50, hot_group_factor=1.5
        )
        with IngestPipeline(store, policy=policy) as pipeline:
            generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=9)
            groups_before = len(store.tree.first_level_groups())
            for kind, f in generator.mutation_stream(120, 0, 0):
                pipeline.insert(f)
                pipeline.compactor.run_once()
            pipeline.compactor.drain()
            stats = pipeline.compactor.stats
            if stats.group_splits:
                assert len(store.tree.first_level_groups()) > groups_before
                # Every new group is hosted and reachable by the router.
                for g in store.tree.first_level_groups():
                    assert g.hosted_on is not None
                    assert g.node_id in store.offline_router.replicas
            # Whether or not a split happened, queries must stay exact.
            queries = probe_queries(pipeline.materialized_files(), per_type=4)
            fresh = SmartStore.build(
                pipeline.materialized_files(),
                SmartStoreConfig(num_units=4, seed=1, search_breadth=64),
            )
            assert [result_fingerprint(store.execute(q)) for q in queries] == [
                result_fingerprint(fresh.execute(q)) for q in queries
            ]


class TestPipelinePlumbing:
    def test_wal_logged_before_staging(self, pipeline):
        f = new_file()
        pipeline.insert(f)
        replay = pipeline.wal.replay()
        assert [r.kind for r in replay] == ["insert"]
        assert replay.records[0].file.file_id == f.file_id

    def test_unknown_delete_still_logged(self, pipeline):
        # The intent was accepted and made durable even though it staged
        # nothing; recovery replays it into the same observable no-op.
        pipeline.delete(new_file(996))
        assert [r.kind for r in pipeline.wal.replay()] == ["delete"]

    def test_materialized_files_nets_staged_state(self, pipeline):
        store = pipeline.store
        base = len(store.files)
        f = new_file()
        pipeline.insert(f)
        pipeline.delete(store.files[0])
        files = pipeline.materialized_files()
        assert len(files) == base  # +1 insert, -1 delete
        ids = {m.file_id for m in files}
        assert f.file_id in ids

    def test_closed_pipeline_rejects_mutations(self, store, tmp_path):
        pipeline = IngestPipeline(
            store, WriteAheadLog(tmp_path / "wal.jsonl")
        )
        pipeline.close()
        with pytest.raises(RuntimeError):
            pipeline.insert(new_file())

    def test_stats_shape(self, pipeline):
        pipeline.insert(new_file())
        stats = pipeline.stats()
        assert stats["mutations"] == 1
        assert stats["overlay"]["staged"] == 1
        assert stats["wal"]["last_seq"] == 1
        assert "compaction" in stats
