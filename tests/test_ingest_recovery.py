"""Crash-recovery tests: a segment snapshot + WAL-tail replay restores an
equivalent store."""

import json

import pytest

from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest import IngestPipeline, WriteAheadLog, recover_from_storage
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.service.cache import result_fingerprint
from repro.storage import MANIFEST_NAME, SegmentStore, open_storage
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery

from helpers import make_files

CONFIG = SmartStoreConfig(num_units=6, seed=1, search_breadth=64)


def probe_queries(files, seed=5, per_type=6):
    generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=seed)
    return (
        generator.point_queries(per_type, existing_fraction=0.8)
        + generator.range_queries(per_type)
        + generator.topk_queries(per_type, k=8)
    )


def fingerprints(store, queries):
    return [result_fingerprint(store.execute(q)) for q in queries]


@pytest.fixture()
def deployment(tmp_path):
    files = make_files(80)
    store = SmartStore.build(files, CONFIG)
    wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync_every=0)
    pipeline = IngestPipeline(store, wal)
    pipeline.attach_storage(SegmentStore(tmp_path / "snap"))
    return files, store, pipeline, tmp_path


class TestCheckpointRecovery:
    def test_snapshot_plus_wal_equivalence(self, deployment):
        files, store, pipeline, tmp = deployment
        pipeline.checkpoint()
        generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=7)
        for kind, f in generator.mutation_stream(10, 6, 4):
            getattr(pipeline, kind)(f)
        queries = probe_queries(pipeline.materialized_files())
        live = fingerprints(store, queries)
        pipeline.close()

        recovered, _ = recover_from_storage(tmp / "snap", wal_path=tmp / "wal.jsonl")
        assert fingerprints(recovered.store, queries) == live
        assert len(recovered.materialized_files()) == len(
            pipeline.materialized_files()
        )
        recovered.close()

    def test_mid_stream_checkpoint_truncates_log(self, deployment):
        files, store, pipeline, tmp = deployment
        generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=7)
        stream = generator.mutation_stream(12, 6, 0, shuffle=False)
        for kind, f in stream[:9]:
            getattr(pipeline, kind)(f)
        manifest = pipeline.checkpoint()
        assert manifest["wal_seq"] == 9
        assert pipeline.wal.replay().records == []  # log truncated
        for kind, f in stream[9:]:
            getattr(pipeline, kind)(f)
        queries = probe_queries(pipeline.materialized_files())
        live = fingerprints(store, queries)
        pipeline.close()

        recovered, _ = recover_from_storage(tmp / "snap", wal_path=tmp / "wal.jsonl")
        # Only the 9 post-checkpoint records were replayed.
        assert recovered.mutations == len(stream) - 9
        assert fingerprints(recovered.store, queries) == live
        recovered.close()

    def test_recovery_after_compaction_and_checkpoint(self, deployment):
        files, store, pipeline, tmp = deployment
        generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=13)
        for kind, f in generator.mutation_stream(8, 4, 2):
            getattr(pipeline, kind)(f)
        pipeline.compactor.drain()
        pipeline.checkpoint()
        for kind, f in generator.mutation_stream(4, 2, 0):
            getattr(pipeline, kind)(f)
        queries = probe_queries(pipeline.materialized_files())
        live = fingerprints(store, queries)
        pipeline.close()
        recovered, _ = recover_from_storage(tmp / "snap", wal_path=tmp / "wal.jsonl")
        assert fingerprints(recovered.store, queries) == live
        recovered.close()

    def test_recover_without_wal(self, deployment):
        files, store, pipeline, tmp = deployment
        pipeline.insert(
            QueryWorkloadGenerator(files, seed=3).mutation_stream(1, 0, 0)[0][1]
        )
        pipeline.checkpoint()
        pipeline.close()
        recovered, _ = recover_from_storage(tmp / "snap")
        assert recovered.wal is None
        assert len(recovered.store.files) == len(files) + 1
        recovered.close()

    def test_checkpoint_artefacts_written_atomically(self, deployment):
        """A second checkpoint never leaves temp files or a torn population."""
        files, store, pipeline, tmp = deployment
        pipeline.checkpoint()
        generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=31)
        for kind, f in generator.mutation_stream(6, 3, 0):
            getattr(pipeline, kind)(f)
        pipeline.checkpoint()  # supersedes the first snapshot
        leftovers = list((tmp / "snap").rglob("*.tmp"))
        assert leftovers == []
        queries = probe_queries(pipeline.materialized_files())
        live = fingerprints(store, queries)
        pipeline.close()
        recovered, _ = recover_from_storage(tmp / "snap", wal_path=tmp / "wal.jsonl")
        assert fingerprints(recovered.store, queries) == live
        recovered.close()

    def test_replay_onto_newer_population_is_idempotent(self, deployment):
        """Crash between the manifest swap and the log truncation: the new
        snapshot already holds every logged mutation and the untruncated
        log replays all of them; re-staging them must change no answer."""
        files, store, pipeline, tmp = deployment
        generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=37)
        for kind, f in generator.mutation_stream(6, 3, 0):
            getattr(pipeline, kind)(f)
        # Handcraft the mid-crash state: publish the mutations' net effect
        # under wal_seq=0 and leave the log untruncated.
        pipeline.compactor.drain()
        pipeline.storage.publish_snapshot(store, wal_seq=0)
        queries = probe_queries(pipeline.materialized_files())
        live = fingerprints(store, queries)
        pipeline.close()
        recovered, report = recover_from_storage(tmp / "snap", wal_path=tmp / "wal.jsonl")
        assert report.wal_records_replayed == 9  # every logged record
        assert fingerprints(recovered.store, queries) == live
        recovered.close()

    def test_not_a_checkpoint_rejected(self, deployment):
        files, store, pipeline, tmp = deployment
        pipeline.checkpoint()
        pipeline.close()
        manifest_path = tmp / "snap" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "nope"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="not a segment manifest"):
            open_storage(tmp / "snap")

    def test_checkpoint_needs_a_segment_store(self):
        with IngestPipeline(SmartStore.build(make_files(20), CONFIG)) as pipeline:
            with pytest.raises(ValueError, match="attach_storage"):
                pipeline.checkpoint()


class TestCrashAtArbitraryOffset:
    def test_torn_wal_tail_recovers_prefix(self, deployment):
        """Kill the log mid-record: recovery equals the surviving prefix."""
        files, store, pipeline, tmp = deployment
        pipeline.checkpoint()
        generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=19)
        stream = generator.mutation_stream(8, 4, 0, shuffle=False)
        for kind, f in stream:
            getattr(pipeline, kind)(f)
        pipeline.close()

        # Simulate the crash: chop the log at an arbitrary byte offset that
        # tears the final record.
        wal_path = tmp / "wal.jsonl"
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[: len(data) - 40])
        surviving = WriteAheadLog.scan(wal_path)
        assert surviving.truncated
        n_survived = len(surviving.records)
        assert 0 < n_survived < len(stream)

        # The uncrashed reference: a pipeline that applied only the prefix.
        ref_store = SmartStore.build(files, CONFIG)
        with IngestPipeline(ref_store) as reference:
            for kind, f in stream[:n_survived]:
                getattr(reference, kind)(f)
            queries = probe_queries(reference.materialized_files())
            expected = fingerprints(ref_store, queries)

        recovered, _ = recover_from_storage(tmp / "snap", wal_path=wal_path)
        assert recovered.mutations == n_survived
        assert fingerprints(recovered.store, queries) == expected
        recovered.close()

    @pytest.mark.parametrize("cut", [1, 17, 123])
    def test_recovery_is_prefix_consistent_at_any_cut(self, deployment, cut):
        """Whatever byte the crash lands on, recovery equals *some* prefix."""
        files, store, pipeline, tmp = deployment
        pipeline.checkpoint()
        generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=23)
        stream = generator.mutation_stream(6, 3, 0, shuffle=False)
        for kind, f in stream:
            getattr(pipeline, kind)(f)
        pipeline.close()
        wal_path = tmp / "wal.jsonl"
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[: max(len(data) - cut, 0)])
        n_survived = len(WriteAheadLog.scan(wal_path).records)

        recovered, _ = recover_from_storage(tmp / "snap", wal_path=wal_path)
        ref_store = SmartStore.build(files, CONFIG)
        with IngestPipeline(ref_store) as reference:
            for kind, f in stream[:n_survived]:
                getattr(reference, kind)(f)
            queries = probe_queries(reference.materialized_files(), per_type=4)
            assert fingerprints(recovered.store, queries) == fingerprints(
                ref_store, queries
            )
        recovered.close()

    def test_recovered_pipeline_keeps_ingesting(self, deployment):
        files, store, pipeline, tmp = deployment
        pipeline.checkpoint()
        generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=29)
        stream = generator.mutation_stream(4, 0, 0, shuffle=False)
        for kind, f in stream[:2]:
            pipeline.insert(f)
        last_seq = pipeline.wal.last_seq
        pipeline.close()

        recovered, _ = recover_from_storage(tmp / "snap", wal_path=tmp / "wal.jsonl")
        receipt = recovered.insert(stream[2][1])
        assert receipt.seq == last_seq + 1  # sequence numbering resumes
        assert recovered.store.execute(PointQuery(stream[2][1].filename)).found
        recovered.close()
