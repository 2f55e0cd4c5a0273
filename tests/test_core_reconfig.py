"""Tests for system reconfiguration (storage-unit insertion/deletion, split/merge)."""

import numpy as np
import pytest

from repro.core.reconfig import (
    delete_storage_unit,
    insert_storage_unit,
    merge_into_sibling,
    split_group,
)
from repro.core.semantic_rtree import SemanticRTree, StorageUnitDescriptor
from repro.rtree.mbr import MBR

from test_core_semantic_rtree import make_descriptors


def build_tree(n=12):
    return SemanticRTree.build(make_descriptors(n), thresholds=[0.8, 0.5, 0.2], max_fanout=4)


def new_unit(unit_id, cluster=0, dim=4):
    center = np.full(dim, 10.0 * cluster) + 0.5
    sem = np.zeros(3)
    sem[cluster] = 1.0
    return StorageUnitDescriptor(
        unit_id=unit_id,
        mbr=MBR(center, center + 1.0),
        centroid=center,
        semantic_vector=sem,
        filenames=[f"new{unit_id}-{j}.dat" for j in range(3)],
        file_count=3,
    )


def check_invariants(tree):
    """Structural invariants every reconfiguration must preserve."""
    # Every leaf is reachable from the root exactly once.
    reachable = tree.root.descendant_unit_ids()
    assert sorted(reachable) == sorted(tree.leaves.keys())
    assert len(reachable) == len(set(reachable))
    # Parent MBRs cover child MBRs, fanout bound holds.
    for node in tree.nodes:
        if node.is_leaf:
            continue
        assert len(node.children) <= tree.max_fanout
        for child in node.children:
            assert child.parent is node
            if child.mbr is not None and node.mbr is not None:
                assert node.mbr.contains(child.mbr)


class TestInsertion:
    def test_insert_into_most_correlated_group(self):
        tree = build_tree()
        group, forwards = insert_storage_unit(
            tree, new_unit(100, cluster=1), admission_threshold=0.5, rng=np.random.default_rng(0)
        )
        assert 100 in tree.leaves
        assert 100 in group.descendant_unit_ids()
        # The joined group must be the cluster-1 group.
        assert all(u % 3 == 1 for u in group.descendant_unit_ids() if u < 100)
        check_invariants(tree)

    def test_duplicate_unit_rejected(self):
        tree = build_tree()
        with pytest.raises(ValueError):
            insert_storage_unit(tree, new_unit(0))

    def test_forwarding_counted_when_threshold_high(self):
        tree = build_tree()
        _, forwards = insert_storage_unit(
            tree, new_unit(101, cluster=2), admission_threshold=0.999999,
            rng=np.random.default_rng(1),
        )
        assert forwards >= 1  # nobody admits at an impossible threshold straight away
        assert 101 in tree.leaves

    def test_group_splits_on_overflow(self):
        tree = build_tree()
        for i in range(6):
            insert_storage_unit(tree, new_unit(200 + i, cluster=0), rng=np.random.default_rng(i))
        check_invariants(tree)

    def test_insert_updates_ancestor_mbrs(self):
        tree = build_tree()
        unit = new_unit(300, cluster=2)
        insert_storage_unit(tree, unit, rng=np.random.default_rng(0))
        assert tree.root.mbr.contains(unit.mbr)

    def test_insert_into_single_unit_tree(self):
        tree = SemanticRTree.build(make_descriptors(1), thresholds=[0.5], max_fanout=4)
        insert_storage_unit(tree, new_unit(50), rng=np.random.default_rng(0))
        assert sorted(tree.leaves.keys()) == [0, 50]
        check_invariants(tree)


class TestDeletion:
    def test_delete_existing_unit(self):
        tree = build_tree()
        assert delete_storage_unit(tree, 5) is True
        assert 5 not in tree.leaves
        check_invariants(tree)

    def test_delete_unknown_unit(self):
        tree = build_tree()
        assert delete_storage_unit(tree, 999) is False

    def test_delete_many_units_keeps_tree_valid(self):
        tree = build_tree()
        for unit_id in [0, 3, 6, 9, 1, 4]:
            assert delete_storage_unit(tree, unit_id)
            check_invariants(tree)
        assert len(tree.leaves) == 6

    def test_delete_down_to_single_unit(self):
        tree = build_tree(6)
        for unit_id in range(5):
            delete_storage_unit(tree, unit_id)
        assert len(tree.leaves) == 1
        with pytest.raises(ValueError):
            delete_storage_unit(tree, 5)

    def test_merge_propagates_height_adjustment(self):
        tree = build_tree()
        height_before = tree.height
        for unit_id in range(8):
            delete_storage_unit(tree, unit_id)
        assert tree.height <= height_before
        check_invariants(tree)


class TestSplitAndMerge:
    def test_split_group_creates_sibling(self):
        tree = build_tree()
        group = tree.first_level_groups()[0]
        parent_before = group.parent
        kept, sibling = split_group(tree, group)
        assert sibling.parent is parent_before or tree.root in (sibling.parent, kept.parent)
        check_invariants(tree)

    def test_split_single_child_rejected(self):
        tree = build_tree()
        lonely = tree.allocate_node(1)
        lonely.add_child(tree.allocate_node(0, unit_id=999))
        with pytest.raises(ValueError):
            split_group(tree, lonely)
        # Clean up the unattached scaffolding so other asserts are unaffected.
        tree.forget_node(lonely.children[0])
        tree.forget_node(lonely)

    def test_merge_into_sibling(self):
        tree = build_tree()
        groups = tree.first_level_groups()
        victim = groups[0]
        absorbed_units = victim.descendant_unit_ids()
        result = merge_into_sibling(tree, victim)
        assert result is not None
        for unit in absorbed_units:
            assert unit in tree.root.descendant_unit_ids()
        check_invariants(tree)

    def test_merge_root_returns_none(self):
        tree = build_tree()
        assert merge_into_sibling(tree, tree.root) is None

    def test_a_group_never_merges_into_a_storage_unit_beside_it(self):
        # A collapsed chain can leave a storage unit beside a group; the
        # unit is the group's most correlated sibling here, and a leaf
        # that took children would drop them out of the reachable tree.
        tree = build_tree()
        group = next(g for g in tree.first_level_groups() if len(g.children) >= 2)
        twin = group.children[-1]
        group.remove_child(twin)
        group.parent.add_child(twin)
        units = sorted(tree.leaves)
        result = merge_into_sibling(tree, group)
        assert result is None or not result.is_leaf
        assert all(not leaf.children for leaf in tree.leaves.values())
        assert sorted(tree.root.descendant_unit_ids()) == units
