"""Tests for the SmartStore facade (build, updates, accounting)."""

import numpy as np
import pytest

from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.metadata.file_metadata import FileMetadata
from repro.workloads.types import PointQuery, RangeQuery

from helpers import make_files


class TestConfig:
    def test_defaults_match_prototype(self):
        cfg = SmartStoreConfig()
        assert cfg.num_units == 60
        assert cfg.bloom_bits == 1024
        assert cfg.bloom_hashes == 7
        assert cfg.lazy_update_threshold == 0.05
        assert cfg.autoconfig_threshold == 0.10
        assert cfg.mode == "offline"
        assert cfg.versioning_enabled is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_units": 0},
            {"lsi_rank": 0},
            {"max_fanout": 1},
            {"mode": "sideways"},
            {"version_ratio": 0},
            {"lazy_update_threshold": 0.0},
            {"search_breadth": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SmartStoreConfig(**kwargs)


class TestBuild:
    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            SmartStore.build([], SmartStoreConfig(num_units=4))

    def test_all_files_placed(self, built_store, msn_small_files):
        assert built_store.cluster.total_files() == len(msn_small_files)

    def test_unit_count_respected(self, built_store):
        assert built_store.cluster.num_units <= 16

    def test_units_approximately_balanced(self, built_store):
        sizes = [len(s) for s in built_store.cluster]
        assert max(sizes) <= 2.0 * (sum(sizes) / len(sizes)) + 1

    def test_tree_covers_all_units(self, built_store):
        assert sorted(built_store.tree.root.descendant_unit_ids()) == built_store.cluster.unit_ids()

    def test_index_units_mapped_to_servers(self, built_store):
        valid = set(built_store.cluster.unit_ids())
        for node in built_store.tree.index_units():
            assert node.hosted_on in valid

    def test_root_multi_mapped(self, built_store):
        root = built_store.tree.root
        assert len(root.replica_hosts) >= 1

    def test_stats_keys(self, built_store):
        stats = built_store.stats()
        for key in ("num_units", "num_files", "tree_height", "num_index_units",
                    "first_level_groups", "index_space_bytes", "mode", "versioning"):
            assert key in stats

    def test_more_units_than_files_clamped(self):
        files = make_files(5)
        store = SmartStore.build(files, SmartStoreConfig(num_units=50, seed=0))
        assert store.cluster.num_units <= 5

    def test_explicit_thresholds_used(self):
        files = make_files(40)
        store = SmartStore.build(
            files, SmartStoreConfig(num_units=6, thresholds=(0.9, 0.6, 0.3), seed=0)
        )
        assert store.tree.thresholds[:3] == [0.9, 0.6, 0.3]

    def test_repr(self, built_store):
        assert "SmartStore(" in repr(built_store)

    def test_build_vectorises_the_corpus_once(self, monkeypatch):
        """The partitioner's attribute matrix is handed to the units row by
        row: no per-record ``vector()`` pass, same bits as if there were."""
        files = make_files(90, seed=4)
        vector, calls = FileMetadata.vector, []
        monkeypatch.setattr(
            FileMetadata, "vector", lambda f, schema: calls.append(f) or vector(f, schema)
        )
        store = SmartStore.build(files, SmartStoreConfig(num_units=7, seed=0))
        assert calls == []
        monkeypatch.undo()
        assert [f.file_id for f in store.files] == [f.file_id for f in files]  # input order
        for server in store.cluster:
            assert len(server) > 0
            stacked = np.vstack([f.vector(store.schema) for f in server.files])
            assert server.matrix().tobytes() == stacked.tobytes()


class TestUpdates:
    def make_new_file(self, i=0):
        return FileMetadata(
            path=f"/new/late-file-{i}.dat",
            attributes={
                "size": 5000.0, "ctime": 5000.0, "mtime": 5100.0, "atime": 5200.0,
                "read_bytes": 3000.0, "write_bytes": 800.0, "access_count": 2.0, "owner": 1.0,
            },
        )

    def test_insert_visible_with_versioning(self, tiny_store):
        new = self.make_new_file()
        tiny_store.insert_file(new)
        result = tiny_store.execute(PointQuery(new.filename))
        assert result.found

    def test_insert_not_in_servers_until_reconfigure(self, tiny_store):
        new = self.make_new_file(1)
        before = tiny_store.cluster.total_files()
        tiny_store.insert_file(new)
        assert tiny_store.cluster.total_files() == before
        assert tiny_store._pending_insertions == 1

    def test_insert_invisible_without_versioning(self, small_files):
        store = SmartStore.build(
            small_files, SmartStoreConfig(num_units=6, seed=1, versioning_enabled=False)
        )
        new = self.make_new_file(2)
        store.insert_file(new)
        assert not store.execute(PointQuery(new.filename)).found

    def test_reconfigure_applies_pending(self, tiny_store):
        new = self.make_new_file(3)
        before = tiny_store.cluster.total_files()
        tiny_store.insert_file(new)
        applied = tiny_store.reconfigure()
        assert applied == 1
        assert tiny_store.cluster.total_files() == before + 1
        assert tiny_store._pending_insertions == 0
        # After reconfiguration the file is served by the primary index path.
        assert tiny_store.execute(PointQuery(new.filename)).found

    def test_range_query_sees_pending_with_versioning(self, tiny_store):
        new = self.make_new_file(4)
        tiny_store.insert_file(new)
        q = RangeQuery(("mtime",), (5050.0,), (5150.0,))
        result = tiny_store.execute(q)
        assert any(f.file_id == new.file_id for f in result.files)

    def test_modify_serves_fresh_values_with_versioning(self, tiny_store):
        target = tiny_store.files[0]
        old = target.get("mtime")
        tiny_store.modify_file(target.with_updates(mtime=old + 0.25))
        q = RangeQuery(("mtime",), (old - 1.0,), (old + 1.0,))
        served = next(
            f for f in tiny_store.execute(q).files if f.file_id == target.file_id
        )
        # The version-chain copy is fresher than the indexed copy and wins.
        assert served.get("mtime") == old + 0.25

    def test_modify_after_pending_delete_rejected(self, tiny_store):
        # The pending delete is the file's logical truth even though the
        # record is still physically applied: the modify must be rejected
        # exactly as it would be after the delete compacts.
        victim = tiny_store.files[0]
        tiny_store.delete_file(victim)
        from repro.core.smartstore import UNKNOWN_GROUP

        assert tiny_store.modify_file(victim.with_updates(mtime=1.0)) == UNKNOWN_GROUP
        tiny_store.reconfigure()
        assert tiny_store.file_by_id(victim.file_id) is None

    def test_delete_file_recorded(self, tiny_store):
        victim = tiny_store.files[0]
        tiny_store.delete_file(victim)
        assert tiny_store._pending_deletions == 1
        applied = tiny_store.reconfigure()
        assert applied >= 1
        assert all(f.file_id != victim.file_id for server in tiny_store.cluster for f in server.files)

    def test_file_semantic_vector_shape(self, tiny_store):
        vec = tiny_store.file_semantic_vector(tiny_store.files[0])
        assert vec.shape == (tiny_store.lsi.rank,)


class TestSpaceAccounting:
    def test_per_unit_space_positive(self, built_store):
        per_unit = built_store.index_space_bytes_per_unit()
        assert set(per_unit.keys()) == set(built_store.cluster.unit_ids())
        assert all(v > 0 for v in per_unit.values())

    def test_total_is_sum(self, built_store):
        per_unit = built_store.index_space_bytes_per_unit()
        assert built_store.total_index_space_bytes() == sum(per_unit.values())

    def test_versions_add_space(self, tiny_store):
        before = tiny_store.total_index_space_bytes()
        for i in range(20):
            tiny_store.insert_file(
                FileMetadata(
                    path=f"/bulk/file{i}.dat",
                    attributes={n: float(i + 1) for n in tiny_store.schema.names},
                )
            )
        assert tiny_store.total_index_space_bytes() > before
