"""Tests for the query service's write path: ``mutate``.

The contract under test (ISSUE 2 acceptance): a query issued through the
service immediately after a mutation reflects it, the result cache is
flushed epoch-correctly, and mutations share the admission window.
"""

import pytest

from repro.core.smartstore import SmartStore, SmartStoreConfig, UNKNOWN_GROUP
from repro.ingest import CompactionPolicy, IngestPipeline, WriteAheadLog
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.service import QueryService, ServiceConfig
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery

from helpers import make_files

CONFIG = SmartStoreConfig(num_units=6, seed=1, search_breadth=64)


@pytest.fixture()
def store():
    return SmartStore.build(make_files(80), CONFIG)


@pytest.fixture()
def service(store):
    with QueryService(store) as s:
        yield s


def new_file(i=0):
    return FileMetadata(
        path=f"/service/new-{i}.dat",
        attributes={
            "size": 4000.0 + i, "ctime": 2000.0, "mtime": 2100.0, "atime": 2200.0,
            "read_bytes": 2500.0, "write_bytes": 700.0, "access_count": 3.0,
            "owner": 2.0,
        },
    )


class TestReadYourWritesThroughService:
    def test_insert_then_query(self, service):
        f = new_file(1)
        receipt = service.mutate("insert", f)
        assert receipt.known
        result = service.execute(PointQuery(f.filename))
        assert result.found

    def test_delete_then_query(self, service, store):
        victim = store.files[0]
        service.mutate("delete", victim)
        assert not service.execute(PointQuery(victim.filename)).found

    def test_modify_then_query(self, service, store):
        target = store.files[0]
        service.mutate("modify", target.with_updates(mtime=8888.0))
        result = service.execute(RangeQuery(("mtime",), (8800.0,), (8900.0,)))
        assert any(m.file_id == target.file_id for m in result.files)

    def test_unknown_delete_reports_unknown(self, service):
        receipt = service.mutate("delete", new_file(999))
        assert not receipt.known
        assert receipt.group_id == UNKNOWN_GROUP


class TestCacheEpochCorrectness:
    def test_mutation_flushes_cached_answer(self, service, store):
        f = new_file(2)
        query = PointQuery(f.filename)
        miss = service.execute(query)
        assert not miss.found
        # The miss is now in the negative cache; a hit would wrongly say
        # "not found" after the insert if the flush were skipped.
        assert service.execute(query).found is False
        service.mutate("insert", f)
        assert service.execute(query).found

    def test_cached_range_updated_after_delete(self, service, store):
        victim = store.files[0]
        window = RangeQuery(("size",), (0.0,), (1e12,))
        before = service.execute(window)
        assert any(m.file_id == victim.file_id for m in before.files)
        service.execute(window)  # warms / confirms the cached entry
        assert service.cache.stats.hits >= 1
        service.mutate("delete", victim)
        after = service.execute(window)
        assert all(m.file_id != victim.file_id for m in after.files)

    def test_invalidation_counted(self, service, store):
        service.execute(RangeQuery(("size",), (0.0,), (1e12,)))
        invalidations_before = service.cache.stats.invalidations
        service.mutate("insert", new_file(3))
        assert service.cache.stats.invalidations > invalidations_before


class TestServicePlumbing:
    def test_mutations_share_admission_window(self, store):
        config = ServiceConfig(max_in_flight=1, block_on_overload=True)
        with QueryService(store, config) as service:
            for i in range(5):
                service.mutate("insert", new_file(10 + i))
            assert service.admission.admitted == 5
            assert service.admission.in_flight == 0

    def test_mutation_telemetry_recorded(self, service):
        service.mutate("insert", new_file(20))
        service.mutate("delete", new_file(21))  # unknown: still served
        classes = service.telemetry.as_dict()["classes"]
        assert classes["insert"]["count"] == 1
        assert classes["delete"]["count"] == 1
        assert classes["insert"]["mean_latency_s"] > 0
        assert classes["modify"]["count"] == 0

    def test_stats_include_ingest(self, service):
        service.mutate("insert", new_file(30))
        stats = service.stats()
        assert stats["ingest"]["mutations"] == 1

    def test_closed_service_rejects_mutations(self, store):
        service = QueryService(store, ServiceConfig())
        service.close()
        with pytest.raises(RuntimeError):
            service.mutate("insert", new_file(40))

    def test_caller_supplied_durable_pipeline(self, store, tmp_path):
        pipeline = IngestPipeline(
            store, WriteAheadLog(tmp_path / "wal.jsonl", fsync_every=0)
        )
        with QueryService(store, ServiceConfig(), pipeline=pipeline) as service:
            f = new_file(50)
            service.mutate("insert", f)
            assert [r.kind for r in pipeline.wal.replay()] == ["insert"]
            assert service.execute(PointQuery(f.filename)).found
        pipeline.close()

    def test_auto_compaction_through_service(self, store):
        pipeline = IngestPipeline(
            store, policy=CompactionPolicy(max_staged_per_group=2, max_staged_total=4)
        )
        config = ServiceConfig(auto_compact=True)
        with QueryService(store, config, pipeline=pipeline) as service:
            generator = QueryWorkloadGenerator(store.files, DEFAULT_SCHEMA, seed=5)
            for kind, f in generator.mutation_stream(12, 0, 0):
                service.mutate("insert", f)
            assert pipeline.compactor.stats.group_compactions > 0
            # Every insert remains served after compaction.
            assert service.execute(PointQuery(f.filename)).found

    def test_mutations_ordered_with_batched_queries(self, store):
        """A batch served before a mutation sees the pre-mutation state."""
        with QueryService(store, ServiceConfig()) as service:
            victim = store.files[0]
            query = PointQuery(victim.filename)
            assert all(r.found for r in service.execute_many([query] * 2))
            assert service.mutate("delete", victim).known
            assert not any(r.found for r in service.execute_many([query] * 2))
