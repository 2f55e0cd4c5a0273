"""Tests for the off-line pre-processing router."""

import numpy as np
import pytest

from repro.cluster.metrics import Metrics
from repro.core.mapping import map_index_units
from repro.core.offline import OfflineRouter
from repro.core.semantic_rtree import SemanticRTree

from helpers import route_by_loop
from test_core_semantic_rtree import make_descriptors


def tuple_hex(routed):
    gid, sim = routed
    return gid, sim.hex()


@pytest.fixture()
def tree():
    tree = SemanticRTree.build(make_descriptors(12), thresholds=[0.8, 0.5, 0.2], max_fanout=4)
    map_index_units(tree, np.random.default_rng(0))
    return tree


class TestReplicas:
    def test_replicas_cover_all_first_level_groups(self, tree):
        router = OfflineRouter(tree)
        group_ids = {g.node_id for g in tree.first_level_groups()}
        assert set(router.replicas.keys()) == group_ids

    def test_replica_space_positive(self, tree):
        router = OfflineRouter(tree)
        assert router.replica_space_bytes() > 0

    def test_invalid_threshold(self, tree):
        with pytest.raises(ValueError):
            OfflineRouter(tree, lazy_update_threshold=0.0)


class TestRouting:
    def test_target_group_for_vector_matches_tree(self, tree):
        router = OfflineRouter(tree)
        query = np.array([1.0, 0.0, 0.0])
        gid, sim = router.target_group_for_vector(query)
        assert (gid, sim.hex()) == tuple_hex(route_by_loop(router, query))
        assert sim > 0.8

    def test_most_correlated_group(self, tree):
        router = OfflineRouter(tree)
        gid, sim = router.target_group_for_vector(np.array([0.0, 1.0, 0.0]))
        group = next(g for g in tree.first_level_groups() if g.node_id == gid)
        assert sim > 0.8
        assert all(u % 3 == 1 for u in group.descendant_unit_ids())

    def test_routing_charges_local_index_accesses_only(self, tree):
        router = OfflineRouter(tree)
        metrics = Metrics()
        router.target_group_for_vector(np.array([0.0, 0.0, 1.0]), metrics)
        assert metrics.messages == 0
        assert metrics.memory_index_accesses == len(router.replicas)

    def test_groups_for_range_matches_tree(self, tree):
        router = OfflineRouter(tree)
        got = set(router.groups_for_range([0, 1], [9.0, 9.0], [12.0, 12.0]))
        expected = {g.node_id for g in tree.groups_for_range([0, 1], [9.0, 9.0], [12.0, 12.0])}
        assert got == expected

    def test_groups_for_range_empty_region(self, tree):
        router = OfflineRouter(tree)
        assert router.groups_for_range([0], [500.0], [600.0]) == []


class TestLazyUpdate:
    def test_triggers_after_threshold(self, tree):
        router = OfflineRouter(tree, lazy_update_threshold=0.2)
        group = tree.first_level_groups()[0]
        metrics = Metrics()
        triggered = []
        # Each group holds ~20 files (4 units x 5); 20% threshold = ~4 changes.
        for _ in range(10):
            triggered.append(router.record_change(group, metrics, num_units=12))
        assert any(triggered)
        assert metrics.messages > 0
        assert router.lazy_update_multicasts >= 1

    def test_counter_resets_after_multicast(self, tree):
        router = OfflineRouter(tree, lazy_update_threshold=0.2)
        group = tree.first_level_groups()[0]
        for _ in range(20):
            router.record_change(group, Metrics(), num_units=12)
        assert router.pending_changes(group.node_id) < 20

    def test_no_trigger_below_threshold(self, tree):
        router = OfflineRouter(tree, lazy_update_threshold=0.9)
        group = tree.first_level_groups()[0]
        metrics = Metrics()
        assert router.record_change(group, metrics, num_units=12) is False
        assert metrics.messages == 0

    def test_refresh_all_resets_pending(self, tree):
        router = OfflineRouter(tree, lazy_update_threshold=0.9)
        group = tree.first_level_groups()[0]
        router.record_change(group, Metrics(), num_units=12)
        router.refresh_all()
        assert router.pending_changes(group.node_id) == 0
