"""Tests for the MD5 Bloom filter."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.bloom import DEFAULT_BITS, DEFAULT_HASHES, BloomFilter


def reference_positions(key, num_bits, num_hashes):
    """§5.1 double hashing in plain Python integers (the pre-vectorised
    implementation, kept as the oracle)."""
    digest = hashlib.md5(key.encode("utf-8")).digest()
    w0, w1, w2, w3 = (int.from_bytes(digest[i : i + 4], "little") for i in (0, 4, 8, 12))
    return [(w0 + i * w1 + i * i * w2 + w3) % num_bits for i in range(num_hashes)]


class TestBasics:
    def test_default_parameters_match_prototype(self):
        f = BloomFilter()
        assert f.num_bits == DEFAULT_BITS == 1024
        assert f.num_hashes == DEFAULT_HASHES == 7

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(num_bits=4)
        with pytest.raises(ValueError):
            BloomFilter(num_hashes=0)

    def test_no_false_negatives(self):
        f = BloomFilter()
        keys = [f"file-{i}.dat" for i in range(100)]
        f.add_many(keys)
        assert all(k in f for k in keys)

    def test_empty_filter_rejects_everything(self):
        f = BloomFilter()
        assert "anything" not in f
        assert f.fill_ratio() == 0.0

    def test_count_tracks_insertions(self):
        f = BloomFilter()
        f.add("a")
        f.add("a")
        assert f.count == 2

    def test_contains_alias(self):
        f = BloomFilter()
        f.add("x")
        assert f.contains("x")

    def test_false_positive_rate_reasonable(self):
        # 1024 bits / 7 hashes with 50 keys: expected FP rate well below 5%.
        f = BloomFilter()
        f.add_many(f"present-{i}" for i in range(50))
        false_hits = sum(1 for i in range(2000) if f"absent-{i}" in f)
        assert false_hits / 2000 < 0.05

    def test_clear(self):
        f = BloomFilter()
        f.add("x")
        f.clear()
        assert "x" not in f
        assert f.count == 0


class TestComposition:
    def test_union_contains_both_sides(self):
        a, b = BloomFilter(), BloomFilter()
        a.add("alpha")
        b.add("beta")
        u = a.union(b)
        assert "alpha" in u and "beta" in u

    def test_union_inplace(self):
        a, b = BloomFilter(), BloomFilter()
        b.add("k")
        a.union_inplace(b)
        assert "k" in a

    def test_union_of_many(self):
        filters = []
        for i in range(5):
            f = BloomFilter()
            f.add(f"key-{i}")
            filters.append(f)
        u = BloomFilter.union_of(filters)
        assert all(f"key-{i}" in u for i in range(5))

    def test_union_of_empty_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter.union_of([])

    def test_union_incompatible_parameters_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(1024, 7).union(BloomFilter(2048, 7))
        with pytest.raises(ValueError):
            BloomFilter(1024, 7).union(BloomFilter(1024, 3))

    def test_copy_is_independent(self):
        a = BloomFilter()
        a.add("x")
        b = a.copy()
        b.add("y")
        assert "y" in b and "y" not in a


class TestAnalytics:
    def test_fill_ratio_monotone(self):
        f = BloomFilter()
        prev = 0.0
        for i in range(50):
            f.add(f"k{i}")
            ratio = f.fill_ratio()
            assert ratio >= prev
            prev = ratio

    def test_false_positive_probability_bounds(self):
        f = BloomFilter()
        assert f.false_positive_probability() == 0.0
        f.add_many(f"k{i}" for i in range(200))
        assert 0.0 < f.false_positive_probability() <= 1.0

    def test_size_bytes(self):
        assert BloomFilter(1024, 7).size_bytes() == 128

    def test_repr(self):
        assert "BloomFilter" in repr(BloomFilter())

    def test_md5_determinism_across_instances(self):
        a, b = BloomFilter(), BloomFilter()
        a.add("same-key")
        b.add("same-key")
        assert (a.bits == b.bits).all()


class TestHashOnce:
    @given(
        keys=st.lists(st.text(max_size=24), min_size=1, max_size=40),
        num_bits=st.sampled_from([8, 1000, 1024, 1 << 17, 1_000_003]),
        num_hashes=st.sampled_from([1, 5, 7, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_positions_are_the_md5_double_hashing_of_the_paper(
        self, keys, num_bits, num_hashes
    ):
        batch, single = BloomFilter(num_bits, num_hashes), BloomFilter(num_bits, num_hashes)
        batch.add_many(keys)
        for key in keys:
            expected = reference_positions(key, num_bits, num_hashes)
            assert batch.positions(key) == expected
            single.add(key)
        # One vectorised update sets exactly the bits key-at-a-time adds set.
        assert (batch.bits == single.bits).all() and batch.count == single.count
        assert set(batch.bits.nonzero()[0].tolist()) == {
            pos for key in keys for pos in reference_positions(key, num_bits, num_hashes)
        }

    def test_one_hash_probes_every_compatible_filter(self):
        filters = [BloomFilter() for _ in range(3)]
        filters[1].add("present.dat")
        positions = filters[0].positions("present.dat")
        assert [f.contains_positions(positions) for f in filters] == [False, True, False]
        assert [f.contains_positions(positions) for f in filters] == [
            f.contains("present.dat") for f in filters
        ]

    def test_add_many_of_nothing_is_a_no_op(self):
        f = BloomFilter()
        f.add_many([])
        assert f.count == 0 and not f.bits.any()
