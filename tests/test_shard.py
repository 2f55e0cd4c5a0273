"""Tests for the horizontal sharding layer (partitioner + scatter-gather router)."""

import numpy as np
import pytest

from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest import CompactionPolicy
from repro.metadata.file_metadata import FileMetadata
from repro.replication import ReplicationConfig
from repro.replication.group import population_fingerprint
from repro.service import QueryService, ServiceConfig
from repro.service.cache import result_fingerprint
from repro.shard import (
    HashShardPartitioner,
    SemanticShardPartitioner,
    ShardRouter,
    corpus_index_bounds,
    make_partitioner,
)
from repro.shard.build import build_router
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import make_files

CONFIG = SmartStoreConfig(num_units=8, seed=2, search_breadth=64)


@pytest.fixture(scope="module")
def files():
    return make_files(120, clusters=4)


@pytest.fixture(scope="module")
def baseline(files):
    return SmartStore.build(files, CONFIG)


@pytest.fixture(scope="module")
def workload(files):
    generator = QueryWorkloadGenerator(files, seed=17)
    return (
        generator.point_queries(8, existing_fraction=0.75)
        + generator.range_queries(8, distribution="zipf")
        + generator.topk_queries(8, k=6, distribution="zipf")
    )


# ---------------------------------------------------------------------------- partitioners
class TestPartitioners:
    def test_semantic_labels_are_deterministic_and_cover_all_shards(self, files):
        a = SemanticShardPartitioner(files, 4)
        b = SemanticShardPartitioner(files, 4)
        assert np.array_equal(a.labels, b.labels)
        counts = np.bincount(a.labels, minlength=4)
        assert counts.min() > 0  # every slice carries load

    def test_refit_reproduces_the_labels(self, files):
        part = SemanticShardPartitioner(files, 4)
        assert np.array_equal(part.refit(files).labels, part.labels)

    def test_slice_labels_follow_component_order(self, files):
        # Slices are contiguous intervals of the principal LSI component:
        # sorting files by that component must sort their shard labels.
        part = SemanticShardPartitioner(files, 4)
        component = part._lsi.item_vectors()[:, 0]
        labels = part.labels[np.argsort(component, kind="stable")]
        assert np.all(np.diff(labels) >= 0)

    def test_semantic_shard_for_is_deterministic_and_in_range(self, files):
        part = SemanticShardPartitioner(files, 4)
        new = FileMetadata(path="/new/record.dat", attributes=dict(files[0].attributes))
        assert part.shard_for(new) == part.shard_for(new)
        assert 0 <= part.shard_for(new) < 4

    def test_one_shard_routes_every_file_to_shard_0(self, files):
        part = SemanticShardPartitioner(files, 1)
        assert not part.supports_split
        assert not part.labels.any()
        assert {part.shard_for(f) for f in files} == {0}

    def test_semantic_routes_build_files_to_their_own_region(self, files):
        # A record identical to a build-time file must land on a shard whose
        # members include that file's cluster (slice routing).
        part = SemanticShardPartitioner(files, 3)
        hits = sum(
            1
            for i, f in enumerate(files)
            if part.shard_for(f) == int(part.labels[i])
        )
        assert hits / len(files) > 0.8

    def test_hash_partitioner_stable(self, files):
        part = HashShardPartitioner(5)
        labels = part.assign(files)
        assert np.array_equal(labels, part.assign(files))
        assert all(part.shard_for(f) == int(l) for f, l in zip(files, labels))

    def test_assign_rejects_foreign_corpus(self, files):
        part = SemanticShardPartitioner(files, 3)
        with pytest.raises(ValueError):
            part.assign(files[:10])

    def test_factory(self, files):
        assert make_partitioner(files, 2, kind="semantic").kind == "semantic"
        assert make_partitioner(files, 2, kind="hash").kind == "hash"
        with pytest.raises(ValueError):
            make_partitioner(files, 2, kind="nope")

    def test_corpus_bounds_match_unsharded_build(self, files, baseline):
        lower, upper = corpus_index_bounds(files)
        assert np.allclose(lower, baseline.index_lower)
        assert np.allclose(upper, baseline.index_upper)


# ---------------------------------------------------------------------------- router
class TestShardRouter:
    @pytest.fixture(scope="class")
    def router(self, files):
        router = build_router(files, 4, CONFIG)
        yield router
        router.close()

    def test_missing_filename_contacts_no_shard(self, router):
        before = router.stats()["shards_contacted"]
        result = router.execute(PointQuery("definitely-not-there.bin"))
        assert not result.found and result.files == []
        assert router.stats()["shards_contacted"] == before

    def test_router_hashes_a_filename_once_for_every_shard_summary(
        self, router, files, monkeypatch
    ):
        import hashlib

        calls = []
        real_md5 = hashlib.md5
        monkeypatch.setattr(
            hashlib, "md5", lambda *a, **kw: calls.append(a) or real_md5(*a, **kw)
        )
        # No shard admits it: the router's own hash is the only one.
        router.execute(PointQuery("definitely-not-there.bin"))
        assert len(calls) == 1
        # A hit: one hash at the router, one inside each contacted shard.
        calls.clear()
        before = router.stats()["shards_contacted"]
        assert router.execute(PointQuery(files[5].filename)).found
        assert len(calls) == 1 + router.stats()["shards_contacted"] - before

    def test_summaries_are_rebuilt_in_the_routers_own_geometry(self, files):
        with build_router(files[:40], 2, CONFIG) as small:
            custom = ShardRouter(
                small.shards,
                small.partitioner,
                summary_bloom_bits=4096,
                summary_bloom_hashes=3,
            )
            try:
                rebuilt = custom.summarise(0, small.shards[0].files)
                assert (rebuilt.bloom.num_bits, rebuilt.bloom.num_hashes) == (4096, 3)
                assert (rebuilt.bloom.bits == custom._summaries[0].bloom.bits).all()
                assert (rebuilt.lower == custom._summaries[0].lower).all()
                assert (rebuilt.upper == custom._summaries[0].upper).all()
            finally:
                custom.close()

    def test_summary_pruning_happens(self, router, workload):
        for query in workload:
            router.execute(query)
        stats = router.stats()
        assert stats["shards_pruned"] > 0
        assert stats["queries_routed"]["topk"] > 0

    def test_out_of_bounds_topk_matches_baseline(self, router, baseline, files):
        # Regression: MINDIST used to normalise the query point *without*
        # the [0, 1] clip that actual distances apply, so a query far
        # outside the corpus bounds inflated every non-primary shard's
        # MINDIST above the shipped MaxD bound and pruned shards holding
        # the true neighbours.
        for values in ((1e15, 0.0), (0.0, 1e12), (1e18, 1e18)):
            q = TopKQuery(("size", "mtime"), values, k=8)
            assert result_fingerprint(router.execute(q)) == result_fingerprint(
                baseline.execute(q)
            )

    def test_shards_use_corpus_bounds(self, router, files):
        lower, upper = corpus_index_bounds(files)
        for shard in router.shards:
            assert np.allclose(shard.index_lower, lower)
            assert np.allclose(shard.index_upper, upper)

    def test_hash_partitioner_router_matches_baseline(self, files, baseline, workload):
        with build_router(files, 3, CONFIG, partitioner="hash") as router:
            for query in workload:
                assert result_fingerprint(
                    router.execute(query)
                ) == result_fingerprint(baseline.execute(query))

    def test_mismatched_bounds_rejected(self, files):
        # Shards built independently derive different per-shard bounds; the
        # router must refuse to merge their (incomparable) distances.
        half = len(files) // 2
        a = SmartStore.build(files[:half], CONFIG)
        b = SmartStore.build(files[half:], CONFIG)
        with pytest.raises(ValueError):
            ShardRouter([a, b], HashShardPartitioner(2))

    def test_units_are_split_across_shards(self, router):
        assert all(s.cluster.num_units == CONFIG.num_units // 4 for s in router.shards)


class TestShardedMutations:
    @pytest.fixture()
    def router(self, files):
        router = build_router(files, 3, CONFIG)
        yield router
        router.close()

    def test_insert_routes_by_partitioner_and_is_queryable(self, router, files):
        new = FileMetadata(path="/ingest/fresh.dat", attributes=dict(files[7].attributes))
        receipt = router.insert(new)
        assert receipt.known
        assert router.owner_of(new.file_id) == router.partitioner.shard_for(new)
        assert router.execute(PointQuery("fresh.dat")).found

    def test_known_file_mutations_route_to_owner(self, router, files):
        victim = files[30]
        owner = router.owner_of(victim.file_id)
        updated = victim.with_updates(size=victim.attributes["size"] * 1.5)
        receipt = router.modify(updated)
        assert receipt.known
        assert router.owner_of(victim.file_id) == owner

    def test_delete_then_reinsert_nets_on_same_shard(self, router, files):
        victim = files[31]
        owner = router.owner_of(victim.file_id)
        assert router.delete(victim).known
        assert not router.execute(PointQuery(victim.filename)).found
        assert router.insert(victim).known
        assert router.owner_of(victim.file_id) == owner
        assert router.execute(PointQuery(victim.filename)).found

    def test_unknown_delete_is_observable_noop(self, router):
        ghost = FileMetadata(path="/nowhere/ghost.dat", attributes={
            "size": 1.0, "ctime": 1.0, "mtime": 1.0, "atime": 1.0,
            "read_bytes": 1.0, "write_bytes": 1.0, "access_count": 1.0, "owner": 0.0,
        })
        receipt = router.delete(ghost)
        assert not receipt.known
        assert router.owner_of(ghost.file_id) is None

    def test_wal_per_shard(self, files, tmp_path):
        with build_router(files, 3, CONFIG, wal_dir=tmp_path) as router:
            new = FileMetadata(
                path="/ingest/durable.dat", attributes=dict(files[3].attributes)
            )
            router.insert(new)
            wals = sorted(p.name for p in tmp_path.glob("shard-*.wal"))
            assert wals == ["shard-0.wal", "shard-1.wal", "shard-2.wal"]
            owner = router.owner_of(new.file_id)
            assert router.pipelines[owner].wal.appended == 1

    def test_drain_applies_everything(self, router, files):
        generator = QueryWorkloadGenerator(files, seed=41)
        for kind, file in generator.mutation_stream(6, 4, 3):
            getattr(router, kind)(file)
        assert sum(router.stats()["staged_per_shard"]) > 0
        router.compactor.drain()
        assert sum(router.stats()["staged_per_shard"]) == 0


class TestCompactionSweep:
    """``router.compactor.run_once()`` looks only at shards something was
    routed to (or compacted on) since its last call; the sweep it replaced
    ran every shard's policy every time.  Same compactions, same stores."""

    #: Small enough that a 100-mutation stream trips every rule: per-group
    #: count, total, age (in mutations staged in that overlay) and skew.
    POLICY = CompactionPolicy(
        max_staged_per_group=3, max_staged_total=10, max_age=7, skew_factor=1.5
    )

    @staticmethod
    def everyone(router):
        return sum(p.compactor.run_once() for p in router.pipelines)

    @staticmethod
    def touched(router):
        return router.compactor.run_once()

    def drive(self, files, workload, replication, sweep):
        stream = QueryWorkloadGenerator(files, seed=41).mutation_stream(60, 20, 20)
        with build_router(
            files, 4, CONFIG, policy=self.POLICY, replication=replication
        ) as router:
            applied = []
            for kind, file in stream:
                getattr(router, kind)(file)
                applied.append(sweep(router))
            stats = [p.compactor.stats for p in router.pipelines]
            outcome = {
                "applied": applied,
                "compactions": [s.group_compactions for s in stats],
                "changes": [s.changes_applied for s in stats],
                "splits": [s.group_splits for s in stats],
                "staged": router.stats()["staged_per_shard"],
                "answers": [result_fingerprint(router.execute(q)) for q in workload],
                "populations": [
                    population_fingerprint(p.materialized_files())
                    for p in router.pipelines
                ],
            }
            return outcome, sum(s.runs for s in stats), len(stream)

    @pytest.mark.parametrize(
        "replication", [None, ReplicationConfig(replicas=1)], ids=["stores", "groups"]
    )
    def test_touched_shards_only_matches_visiting_everyone(
        self, files, workload, replication
    ):
        full, full_runs, n = self.drive(files, workload, replication, self.everyone)
        lean, lean_runs, _ = self.drive(files, workload, replication, self.touched)
        assert lean == full
        assert sum(full["compactions"]) > 10 and sum(full["changes"]) > 30
        # One policy evaluation per shard per mutation, against one per
        # mutation plus a second look after each visit that compacted.
        assert full_runs == 4 * n
        assert n <= lean_runs <= n + sum(1 for count in lean["applied"] if count)

    def test_a_shard_that_compacted_is_looked_at_again(self, files):
        """Folding one group changes the sizes the skew rule weighs the
        others against, so the next pass re-evaluates that shard even if
        nothing new was routed to it — until a visit finds nothing due."""
        with build_router(files, 4, CONFIG) as router:
            visits = []
            script = iter([3, 1, 0])
            for sid, pipeline in enumerate(router.pipelines):

                def run_once(sid=sid):
                    visits.append(sid)
                    return next(script) if sid == 2 else 0

                pipeline.compactor.run_once = run_once
            mine = next(f for f in files if router.owner_of(f.file_id) == 2)
            other = next(f for f in files if router.owner_of(f.file_id) == 0)
            router.modify(mine)
            assert [router.compactor.run_once() for _ in range(4)] == [3, 1, 0, 0]
            assert visits == [2, 2, 2]
            router.modify(other)
            router.compactor.run_once()
            assert visits == [2, 2, 2, 0]

    def test_drain_still_visits_everyone(self, files):
        with build_router(files, 4, CONFIG) as router:
            for kind, file in QueryWorkloadGenerator(files, seed=41).mutation_stream(
                12, 4, 4
            ):
                getattr(router, kind)(file)
            router.compactor.run_once()  # default policy: nothing due, list emptied
            assert sum(router.stats()["staged_per_shard"]) > 0
            router.compactor.drain()
            assert sum(router.stats()["staged_per_shard"]) == 0


class TestServiceOverRouter:
    def test_service_results_and_cache_epochs(self, files, baseline, workload):
        reference = [result_fingerprint(baseline.execute(q)) for q in workload]
        with build_router(files, 3, CONFIG) as router:
            with QueryService(router, ServiceConfig(seed=9)) as service:
                results = service.execute_many(list(workload) * 2)
                got = [result_fingerprint(r) for r in results]
                assert got == reference * 2
                assert service.cache.stats.hits > 0

                # A mutation on one shard must flush the service cache (the
                # epoch is the tuple of per-shard change clocks).
                new = FileMetadata(
                    path="/ingest/epoch.dat", attributes=dict(files[11].attributes)
                )
                epoch_before = router.versioning.change_clock
                service.mutate("insert", new)
                assert router.versioning.change_clock != epoch_before
                assert service.cache.stats.invalidations >= 1
                assert service.execute(PointQuery("epoch.dat")).found


class TestScalingRowSkew:
    """Degenerate-partition detection on PartitionLoad (pure arithmetic,
    no store builds): the verdict `repro bench shard` / `reshard` report
    and the reshard controller acts on."""

    @staticmethod
    def _row(shards, populations, busy):
        from repro.shard.load import PartitionLoad

        return PartitionLoad(shards=shards, populations=populations, busy_seconds=busy)

    def test_balanced_partition_is_not_degenerate(self):
        row = self._row(4, [250, 250, 250, 250], [0.1, 0.1, 0.1, 0.1])
        assert row.busy_share == pytest.approx(0.25)
        assert row.busy_utilization == pytest.approx(1.0)
        assert not row.degenerate

    def test_single_shard_is_never_degenerate(self):
        row = self._row(1, [1000], [0.4])
        assert not row.degenerate

    def test_cli_default_shape_is_degenerate(self):
        # The seed-42 / 16-unit / 4-shard CLI default: half the busy time
        # on the 70-file shard, half the corpus cold on one shard -> the
        # 0.99x "speedup" measures one machine.
        row = self._row(4, [644, 339, 70, 197], [0.0076, 0.0259, 0.0553, 0.0249])
        assert row.degenerate
        assert row.busy_utilization < 0.55

    def test_empty_shard_is_degenerate(self):
        row = self._row(4, [500, 500, 0, 250], [0.1, 0.1, 0.0, 0.1])
        assert row.degenerate

    def test_population_concentration_is_degenerate(self):
        # Busy time level-ish but half the corpus piled on one shard.
        row = self._row(4, [700, 200, 200, 150], [0.1, 0.09, 0.08, 0.1])
        assert row.degenerate

    def test_mild_imbalance_is_not_degenerate(self):
        row = self._row(4, [350, 300, 300, 300], [0.12, 0.1, 0.09, 0.11])
        assert not row.degenerate
