"""Tests for the hierarchical Bloom-filter index."""

import hashlib

import pytest

from repro.bloom.hierarchy import HierarchicalBloomIndex


def build_two_level():
    """Four leaves under two internal nodes under a root."""
    index = HierarchicalBloomIndex()
    leaves = {
        "u0": index.add_leaf("u0", ["a.txt", "b.txt"]),
        "u1": index.add_leaf("u1", ["c.txt"]),
        "u2": index.add_leaf("u2", ["d.txt", "e.txt"]),
        "u3": index.add_leaf("u3", ["f.txt"]),
    }
    g0 = index.add_internal([leaves["u0"], leaves["u1"]])
    g1 = index.add_internal([leaves["u2"], leaves["u3"]])
    index.add_internal([g0, g1])
    return index, leaves


class TestConstruction:
    def test_single_leaf_is_root(self):
        index = HierarchicalBloomIndex()
        index.add_leaf("only", ["x"])
        hits, probed = index.lookup("x")
        assert hits == ["only"]
        assert probed == 1

    def test_internal_without_children_rejected(self):
        index = HierarchicalBloomIndex()
        with pytest.raises(ValueError):
            index.add_internal([])

    def test_node_count(self):
        index, _ = build_two_level()
        assert index.node_count() == 7
        assert len(index.leaf_ids()) == 4

    def test_size_bytes_positive(self):
        index, _ = build_two_level()
        assert index.size_bytes() == 7 * 128


class TestLookup:
    def test_existing_filenames_found_in_right_leaf(self):
        index, _ = build_two_level()
        for name, leaf in [("a.txt", "u0"), ("c.txt", "u1"), ("e.txt", "u2"), ("f.txt", "u3")]:
            hits, _ = index.lookup(name)
            assert leaf in hits

    def test_missing_filename_usually_rejected_at_root(self):
        index, _ = build_two_level()
        misses = 0
        for i in range(100):
            hits, _ = index.lookup(f"missing-{i}.bin")
            if not hits:
                misses += 1
        assert misses > 90  # a few false positives are allowed

    def test_lookup_prunes_subtrees(self):
        index, _ = build_two_level()
        _, probed = index.lookup("a.txt")
        # Root + both level-1 nodes is 3; pruning keeps us well below the
        # exhaustive 7 probes in the common case.
        assert probed <= 7

    def test_empty_index(self):
        index = HierarchicalBloomIndex()
        assert index.lookup("x") == ([], 0)

    def test_lookup_hashes_the_filename_once(self, monkeypatch):
        index, _ = build_two_level()
        calls = []
        real_md5 = hashlib.md5
        monkeypatch.setattr(
            hashlib, "md5", lambda *a, **kw: calls.append(a) or real_md5(*a, **kw)
        )
        hits, probed = index.lookup("e.txt")
        assert hits == ["u2"] and probed >= 3
        assert len(calls) == 1


class TestUpdates:
    def test_add_filename_propagates_to_ancestors(self):
        index, leaves = build_two_level()
        index.add_filename(leaves["u3"], "new.txt")
        hits, _ = index.lookup("new.txt")
        assert "u3" in hits

    def test_add_filename_to_internal_rejected(self):
        index, _ = build_two_level()
        with pytest.raises(ValueError):
            index.add_filename(index.root_id, "x")
