"""Tests for the semantic R-tree."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.metrics import Metrics
from repro.core.reconfig import (
    delete_storage_unit,
    insert_storage_unit,
    merge_into_sibling,
    split_group,
)
from repro.core.semantic_rtree import SemanticRTree, StorageUnitDescriptor
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest.compactor import CompactionPolicy
from repro.ingest.pipeline import IngestPipeline, recover_from_storage
from repro.metadata.file_metadata import FileMetadata
from repro.rtree.mbr import MBR
from repro.storage import SegmentStore

from helpers import assert_summaries_match_nodes, make_files


def make_descriptors(n_units=12, seed=0, dim=4):
    """Descriptors forming 3 obvious clusters in both MBR and semantic space."""
    rng = np.random.default_rng(seed)
    descriptors = []
    for i in range(n_units):
        cluster = i % 3
        center = np.full(dim, 10.0 * cluster)
        lower = center + rng.random(dim)
        upper = lower + 1.0
        sem = np.zeros(3)
        sem[cluster] = 1.0
        sem += rng.normal(0, 0.05, size=3)
        descriptors.append(
            StorageUnitDescriptor(
                unit_id=i,
                mbr=MBR(lower, upper),
                centroid=(lower + upper) / 2,
                semantic_vector=sem,
                filenames=[f"u{i}-f{j}.dat" for j in range(5)],
                file_count=5,
            )
        )
    return descriptors


@pytest.fixture(scope="module")
def tree():
    return SemanticRTree.build(make_descriptors(), thresholds=[0.8, 0.5, 0.2], max_fanout=4)


class TestBuild:
    def test_empty_build_rejected(self):
        with pytest.raises(ValueError):
            SemanticRTree.build([], thresholds=[0.5])

    def test_single_unit_tree(self):
        tree = SemanticRTree.build(make_descriptors(1), thresholds=[0.5])
        assert tree.num_storage_units == 1
        assert tree.root.is_leaf
        assert tree.height == 1

    def test_leaves_registered(self, tree):
        assert tree.num_storage_units == 12
        assert set(tree.leaves.keys()) == set(range(12))

    def test_root_reaches_every_unit(self, tree):
        assert sorted(tree.root.descendant_unit_ids()) == list(range(12))

    def test_first_level_groups_partition_leaves(self, tree):
        groups = tree.first_level_groups()
        covered = [u for g in groups for u in g.descendant_unit_ids()]
        assert sorted(covered) == list(range(12))
        assert len(covered) == len(set(covered))

    def test_group_of_unit_consistent(self, tree):
        for unit_id in range(12):
            group = tree.group_of_unit(unit_id)
            assert unit_id in group.descendant_unit_ids()

    def test_semantic_grouping_respects_clusters(self, tree):
        # Units of the same synthetic cluster (i % 3) should share groups.
        for group in tree.first_level_groups():
            clusters = {u % 3 for u in group.descendant_unit_ids()}
            assert len(clusters) == 1

    def test_index_units_counted(self, tree):
        assert tree.num_index_units == len(tree.index_units())
        assert tree.num_index_units >= 3

    def test_fanout_bound(self, tree):
        for node in tree.nodes:
            if not node.is_leaf:
                assert len(node.children) <= tree.max_fanout

    def test_parent_mbr_covers_children(self, tree):
        for node in tree.nodes:
            if node.is_leaf or node.mbr is None:
                continue
            for child in node.children:
                if child.mbr is not None:
                    assert node.mbr.contains(child.mbr)

    def test_parent_bloom_covers_children_filenames(self, tree):
        for leaf in tree.leaves.values():
            node = leaf.parent
            while node is not None:
                for j in range(5):
                    assert node.bloom.contains(f"u{leaf.unit_id}-f{j}.dat")
                node = node.parent

    def test_file_counts_aggregate(self, tree):
        assert tree.root.file_count == 12 * 5

    def test_height_consistent(self, tree):
        assert tree.height >= 2


class TestTraversal:
    def test_groups_for_range(self, tree):
        groups = tree.groups_for_range([0], [0.0], [3.0])
        assert groups
        for g in groups:
            assert any(u % 3 == 0 for u in g.descendant_unit_ids())

    def test_route_filename_finds_owner(self, tree):
        metrics = Metrics()
        hits = tree.route_filename("u7-f3.dat", metrics)
        assert any(leaf.unit_id == 7 for leaf in hits)
        assert metrics.bloom_probes > 0

    def test_route_missing_filename_mostly_empty(self, tree):
        empty = sum(1 for i in range(50) if not tree.route_filename(f"missing-{i}.bin"))
        assert empty > 40


class TestMaintenance:
    def test_refresh_leaf_propagates_mbr(self):
        tree = SemanticRTree.build(make_descriptors(6), thresholds=[0.8, 0.3], max_fanout=4)
        new_mbr = MBR(np.full(4, -50.0), np.full(4, -49.0))
        tree.refresh_leaf(0, mbr=new_mbr, file_count=9, new_filenames=["brand-new.dat"])
        assert tree.leaves[0].file_count == 9
        assert tree.root.mbr.contains(new_mbr)
        assert tree.leaves[0].bloom.contains("brand-new.dat")

    def test_allocate_and_forget_node(self):
        tree = SemanticRTree.build(make_descriptors(4), thresholds=[0.5], max_fanout=4)
        before = len(tree.nodes)
        node = tree.allocate_node(1)
        assert len(tree.nodes) == before + 1
        tree.forget_node(node)
        assert len(tree.nodes) == before


class TestSummaryTables:
    """The columnar summary tables are derived state: after *any* sequence
    of writes they equal a per-node recompute, and every routing answer
    read off them equals the retained single-node methods."""

    NAMES = [f"u{i}-f{j}.dat" for i in (0, 3, 7, 11) for j in (0, 4)]

    def test_each_write_alone_reaches_the_seam(self):
        tree = SemanticRTree.build(make_descriptors(6), thresholds=[0.8, 0.3], max_fanout=4)
        leaf = tree.leaves[0]
        group = leaf.parent

        def rebuilt_after(write) -> bool:
            before = tree.summaries()
            write()
            return tree.summaries() is not before

        assert rebuilt_after(lambda: setattr(leaf, "mbr", MBR(np.zeros(4), np.ones(4))))
        assert rebuilt_after(lambda: setattr(leaf, "bloom", leaf.bloom.copy()))
        assert rebuilt_after(lambda: setattr(group, "children", group.children))
        assert rebuilt_after(lambda: group.remove_child(leaf))
        assert rebuilt_after(lambda: group.add_child(leaf))
        assert rebuilt_after(lambda: setattr(tree, "root", tree.root))
        spare = []
        assert rebuilt_after(lambda: spare.append(tree.allocate_node(1)))
        assert rebuilt_after(lambda: tree.forget_node(spare[0]))
        # The one in-place write: refresh_leaf adds names to the leaf's own filter.
        lonely = SemanticRTree.build(make_descriptors(1), thresholds=[0.5])
        before = lonely.summaries()
        lonely.refresh_leaf(0, mbr=lonely.root.mbr, file_count=6, new_filenames=["x.dat"])
        assert lonely.summaries() is not before
        assert lonely.route_filename("x.dat") == [lonely.root]

        # Reads leave the tables alone, and children cannot be edited in place.
        before = tree.summaries()
        tree.route_filename("u0-f0.dat")
        tree.first_level_groups()
        tree.groups_for_range([0], [0.0], [1.0])
        assert tree.summaries() is before
        with pytest.raises(AttributeError):
            group.children.append(leaf)
        assert_summaries_match_nodes(tree, names=self.NAMES)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_tables_follow_every_tree_write(self, data):
        tree = SemanticRTree.build(
            make_descriptors(12), thresholds=[0.8, 0.5, 0.2], max_fanout=4
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        next_unit = 100
        assert_summaries_match_nodes(tree, names=self.NAMES)
        for _ in range(data.draw(st.integers(1, 8), label="writes")):
            # The tables are warm here: a write that misses the seam leaves
            # them stale and the comparison below catches it.
            op = data.draw(
                st.sampled_from(["insert", "delete", "split", "merge", "refresh", "empty"]),
                label="op",
            )
            groups = tree.first_level_groups()
            if op == "insert":
                cluster = int(rng.integers(3))
                sem = np.zeros(3)
                sem[cluster] = 1.0
                lower = np.full(4, 10.0 * cluster) + rng.random(4)
                insert_storage_unit(
                    tree,
                    StorageUnitDescriptor(
                        unit_id=next_unit,
                        mbr=MBR(lower, lower + 1.0),
                        centroid=lower + 0.5,
                        semantic_vector=sem,
                        filenames=[f"u{next_unit}-f{j}.dat" for j in range(3)],
                        file_count=3,
                    ),
                    rng=rng,
                )
                next_unit += 1
            elif op == "delete" and len(tree.leaves) > 2:
                delete_storage_unit(tree, int(rng.choice(sorted(tree.leaves))))
            elif op == "split":
                wide = [g for g in groups if len(g.children) >= 2]
                if wide:
                    split_group(tree, wide[int(rng.integers(len(wide)))])
            elif op == "merge":
                merge_into_sibling(tree, groups[int(rng.integers(len(groups)))])
            elif op == "refresh":
                unit = int(rng.choice(sorted(tree.leaves)))
                lower = rng.random(4) * 30.0
                tree.refresh_leaf(
                    unit,
                    mbr=MBR(lower, lower + rng.random(4)),
                    file_count=7,
                    new_filenames=[f"fresh-{unit}-{int(rng.integers(99))}.dat"],
                )
            elif op == "empty":
                unit = int(rng.choice(sorted(tree.leaves)))
                tree.refresh_leaf(unit, mbr=None, file_count=0)
            names = self.NAMES + [
                f"u{u}-f1.dat" for u in sorted(tree.leaves)[-2:]
            ]
            assert_summaries_match_nodes(
                tree, names=names, seed=int(rng.integers(2**16))
            )

    @given(data=st.data())
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    def test_tables_follow_mutations_compaction_reconfig_and_restore(
        self, tmp_path_factory, data
    ):
        """Store level: staged insert / delete / modify, incremental
        compaction with hot-group splits, a full ``reconfigure()`` and a
        snapshot restore, checked after every step — the off-line router's
        stacked (stale) replicas included."""
        root = tmp_path_factory.mktemp("tables")
        files = make_files(72, seed=4)
        store = SmartStore.build(
            files[:48], SmartStoreConfig(num_units=8, seed=0, search_breadth=64)
        )
        pipeline = IngestPipeline(
            store, policy=CompactionPolicy(max_staged_per_group=6, hot_group_factor=1.2)
        )
        pipeline.attach_storage(SegmentStore(root / "snap"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        names = [f.filename for f in files[::9]]
        spare = list(files[48:])

        def check(target) -> None:
            assert_summaries_match_nodes(
                target.tree, target.offline_router, names=names, seed=int(rng.integers(2**16))
            )

        check(store)
        kinds = ["mutate", "compact", "reconfigure", "restore"]
        # Every example goes through each kind of step once, then wanders.
        steps = ["mutate", "compact", "mutate", "restore", "mutate", "reconfigure"]
        steps += data.draw(st.lists(st.sampled_from(kinds), max_size=5), label="steps")
        for step in steps:
            if step == "mutate":
                for _ in range(int(rng.integers(1, 10))):
                    applied = pipeline.materialized_files()
                    kind = ("insert", "delete", "modify")[int(rng.integers(3))]
                    if kind == "insert" and spare:
                        # Hot inserts: clones of one record pile into one group.
                        base = spare.pop()
                        for j in range(int(rng.integers(1, 6))):
                            pipeline.insert(
                                FileMetadata(
                                    path=f"{base.path}.{j}", attributes=dict(base.attributes)
                                )
                            )
                    elif kind == "delete" and len(applied) > 8:
                        pipeline.delete(applied[int(rng.integers(len(applied)))])
                    elif applied:
                        target = applied[int(rng.integers(len(applied)))]
                        attrs = dict(target.attributes)
                        attrs["mtime"] = attrs["mtime"] * float(rng.uniform(0.5, 1.5))
                        pipeline.modify(
                            FileMetadata(
                                path=target.path, file_id=target.file_id, attributes=attrs
                            )
                        )
            elif step == "compact":
                pipeline.compactor.drain()
            elif step == "reconfigure":
                pipeline.store.reconfigure()
            elif step == "restore":
                pipeline.checkpoint()
                pipeline.close()
                pipeline, _ = recover_from_storage(
                    root / "snap",
                    policy=CompactionPolicy(max_staged_per_group=6, hot_group_factor=1.2),
                    resident_segments=2,
                )
            check(pipeline.store)
        pipeline.close()
