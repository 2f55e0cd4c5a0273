"""Tests for the Guttman R-tree."""

import numpy as np
import pytest

from repro.rtree.rtree import RTree


def build_tree(points, max_entries=4):
    tree = RTree(dimension=points.shape[1], max_entries=max_entries)
    for i, p in enumerate(points):
        tree.insert(p, i)
    return tree


def brute_force_range(points, lower, upper):
    lower = np.asarray(lower)
    upper = np.asarray(upper)
    mask = np.all((points >= lower) & (points <= upper), axis=1)
    return set(np.nonzero(mask)[0].tolist())


@pytest.fixture(scope="module")
def random_points():
    return np.random.default_rng(7).random((200, 3)) * 100


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RTree(dimension=0)
        with pytest.raises(ValueError):
            RTree(dimension=2, max_entries=1)
        with pytest.raises(ValueError):
            RTree(dimension=2, max_entries=4, min_entries=3)

    def test_empty_tree(self):
        tree = RTree(dimension=2)
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.search_range([0, 0], [1, 1]) == []

    def test_wrong_dimension_insert(self):
        tree = RTree(dimension=2)
        with pytest.raises(ValueError):
            tree.insert([1, 2, 3], "x")

    def test_size_tracks_inserts(self, random_points):
        tree = build_tree(random_points[:50])
        assert len(tree) == 50


class TestStructureInvariants:
    def test_height_grows_logarithmically(self, random_points):
        tree = build_tree(random_points, max_entries=4)
        assert tree.height <= 8

    def test_fanout_bounds_respected(self, random_points):
        tree = build_tree(random_points, max_entries=4)
        for node in tree.iter_nodes():
            assert len(node) <= tree.max_entries
            if node is not tree.root and len(node) > 0:
                assert len(node) >= 1

    def test_parent_mbr_covers_children(self, random_points):
        tree = build_tree(random_points, max_entries=4)
        for node in tree.iter_nodes():
            if node.is_leaf:
                for e in node.entries:
                    assert node.mbr.contains_point(e.point)
            else:
                for child in node.children:
                    assert node.mbr.contains(child.mbr)

    def test_all_entries_reachable(self, random_points):
        tree = build_tree(random_points)
        payloads = {e.payload for e in tree.iter_entries()}
        assert payloads == set(range(len(random_points)))

    def test_node_count_positive(self, random_points):
        tree = build_tree(random_points)
        assert tree.node_count() >= 1


class TestRangeSearch:
    def test_matches_brute_force(self, random_points):
        tree = build_tree(random_points)
        rng = np.random.default_rng(11)
        for _ in range(20):
            lo = rng.random(3) * 80
            hi = lo + rng.random(3) * 30
            got = {e.payload for e in tree.search_range(lo, hi)}
            assert got == brute_force_range(random_points, lo, hi)

    def test_full_window_returns_everything(self, random_points):
        tree = build_tree(random_points)
        hits = tree.search_range([0, 0, 0], [100, 100, 100])
        assert len(hits) == len(random_points)

    def test_empty_window(self, random_points):
        tree = build_tree(random_points)
        assert tree.search_range([200, 200, 200], [300, 300, 300]) == []

    def test_search_point(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])
        tree = build_tree(pts)
        hits = tree.search_point([1.0, 1.0])
        assert {e.payload for e in hits} == {0, 2}

    def test_count_in_range(self, random_points):
        tree = build_tree(random_points)
        assert tree.count_in_range([0, 0, 0], [100, 100, 100]) == len(random_points)


class TestDeletion:
    def test_delete_existing(self, random_points):
        pts = random_points[:60]
        tree = build_tree(pts)
        assert tree.delete(pts[10], 10) is True
        assert len(tree) == 59
        assert 10 not in {e.payload for e in tree.iter_entries()}

    def test_delete_missing_returns_false(self, random_points):
        tree = build_tree(random_points[:20])
        assert tree.delete(np.array([999.0, 999.0, 999.0]), 77) is False

    def test_delete_all_then_empty(self):
        pts = np.random.default_rng(3).random((30, 2))
        tree = build_tree(pts)
        for i, p in enumerate(pts):
            assert tree.delete(p, i)
        assert len(tree) == 0
        assert tree.search_range([0, 0], [1, 1]) == []

    def test_range_search_correct_after_deletions(self, random_points):
        pts = random_points[:100]
        tree = build_tree(pts)
        removed = set(range(0, 100, 3))
        for i in sorted(removed):
            tree.delete(pts[i], i)
        remaining = np.array([p for i, p in enumerate(pts) if i not in removed])
        got = {e.payload for e in tree.search_range([0, 0, 0], [100, 100, 100])}
        assert got == set(range(100)) - removed
        assert len(got) == len(remaining)


class TestAccessCounter:
    def test_counter_invoked_on_search(self, random_points):
        counter = {"n": 0}
        tree = RTree(dimension=3, max_entries=4, access_counter=lambda: counter.__setitem__("n", counter["n"] + 1))
        for i, p in enumerate(random_points[:50]):
            tree.insert(p, i)
        before = counter["n"]
        tree.search_range([0, 0, 0], [100, 100, 100])
        assert counter["n"] > before
