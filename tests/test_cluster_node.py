"""Tests for the simulated storage server."""

import numpy as np
import pytest

from repro.cluster.metrics import Metrics
from repro.cluster.node import StorageServer
from repro.metadata.attributes import DEFAULT_SCHEMA

from helpers import make_files


@pytest.fixture()
def server():
    s = StorageServer(unit_id=0, schema=DEFAULT_SCHEMA)
    s.add_files(make_files(20))
    return s


class TestContent:
    def test_add_and_len(self, server):
        assert len(server) == 20

    def test_filenames(self, server):
        assert len(server.filenames()) == 20
        assert all(name.endswith(".dat") for name in server.filenames())

    def test_bloom_contains_local_filenames(self, server):
        for name in server.filenames():
            assert server.bloom.contains(name)

    def test_add_files_equals_one_add_file_each(self, server):
        one_by_one = StorageServer(unit_id=0, schema=DEFAULT_SCHEMA)
        for f in make_files(20):
            one_by_one.add_file(f)
        assert [f.file_id for f in server.files] == [f.file_id for f in one_by_one.files]
        assert (server.bloom.bits == one_by_one.bloom.bits).all()
        assert server.bloom.count == one_by_one.bloom.count == 20
        name = server.files[7].filename
        assert server.lookup_filename(name) == one_by_one.lookup_filename(name)
        assert np.array_equal(server.matrix(), one_by_one.matrix())

    def test_remove_file(self, server):
        victim = server.files[0]
        removed = server.remove_file(victim.file_id)
        assert removed is victim
        assert len(server) == 19
        assert server.lookup_filename(victim.filename) == []

    def test_remove_unknown_returns_none(self, server):
        assert server.remove_file(999999) is None

    def test_empty_server_summaries(self):
        s = StorageServer(0)
        assert s.mbr() is None
        assert s.centroid() is None
        assert len(s) == 0


class TestMatrices:
    def test_matrix_shapes(self, server):
        assert server.matrix().shape == (20, DEFAULT_SCHEMA.dimension)
        assert server.index_matrix().shape == (20, DEFAULT_SCHEMA.dimension)

    def test_index_matrix_log_transform(self, server):
        raw = server.matrix()
        idx = server.index_matrix()
        size_col = DEFAULT_SCHEMA.index("size")
        ctime_col = DEFAULT_SCHEMA.index("ctime")
        assert np.allclose(idx[:, size_col], np.log1p(raw[:, size_col]))
        assert np.allclose(idx[:, ctime_col], raw[:, ctime_col])

    def test_normalized_matrix_requires_bounds(self, server):
        with pytest.raises(RuntimeError):
            server.normalized_matrix()

    def test_normalized_matrix_in_unit_range(self, server):
        idx = server.index_matrix()
        server.set_normalization(idx.min(axis=0), idx.max(axis=0))
        norm = server.normalized_matrix()
        assert norm.min() >= 0.0 and norm.max() <= 1.0

    def test_mbr_covers_all_points(self, server):
        mbr = server.mbr()
        for row in server.index_matrix():
            assert mbr.contains_point(row)

    def test_centroid_is_mean(self, server):
        assert np.allclose(server.centroid(), server.index_matrix().mean(axis=0))


class TestScans:
    def test_scan_range_matches_brute_force(self, server):
        names = ("size", "mtime")  # one log-scaled attribute, one linear
        assert DEFAULT_SCHEMA.spec("size").log_scale
        assert not DEFAULT_SCHEMA.spec("mtime").log_scale
        idx_cols = list(DEFAULT_SCHEMA.indices(names))
        values = server.matrix()[:, idx_cols]
        lo, hi = np.percentile(values, [10, 90], axis=0)
        metrics = Metrics()
        hits = server.scan_range(idx_cols, lo.tolist(), hi.tolist(), metrics)
        expected = [
            f.file_id for f in server.files if f.matches_ranges(names, lo, hi)
        ]
        assert 0 < len(expected) < len(server)
        assert [f.file_id for f in hits] == expected
        assert metrics.memory_records_scanned == len(server)
        assert metrics.disk_records_scanned == 0
        assert 0 in metrics.units_visited

    def test_scan_range_empty_server(self):
        s = StorageServer(1)
        assert s.scan_range([0], [0], [1]) == []

    def test_knn_candidates_returns_sorted_distances(self, server):
        idx = server.index_matrix()
        server.set_normalization(idx.min(axis=0), idx.max(axis=0))
        metrics = Metrics()
        query = np.full(2, 0.5)
        cols = [DEFAULT_SCHEMA.index("size"), DEFAULT_SCHEMA.index("mtime")]
        dists, _, _ = server.knn_candidates(query, 5, metrics, attr_indices=cols)
        assert len(dists) == 5
        assert dists == sorted(dists)

    def test_knn_candidates_k_larger_than_population(self, server):
        idx = server.index_matrix()
        server.set_normalization(idx.min(axis=0), idx.max(axis=0))
        dim = DEFAULT_SCHEMA.dimension
        dists, _, _ = server.knn_candidates(np.full(dim, 0.5), 100, attr_indices=range(dim))
        assert len(dists) == len(server)

    def test_knn_candidates_requires_bounds(self, server):
        dim = DEFAULT_SCHEMA.dimension
        with pytest.raises(RuntimeError):
            server.knn_candidates(np.zeros(dim), 3, attr_indices=range(dim))

    def test_lookup_filename(self, server):
        target = server.files[5]
        metrics = Metrics()
        hits = server.lookup_filename(target.filename, metrics)
        assert target in hits
        assert metrics.memory_records_scanned >= 1

    def test_lookup_missing_filename(self, server):
        assert server.lookup_filename("not-there.bin") == []


class TestSpace:
    def test_space_grows_with_files(self):
        a, b = StorageServer(0), StorageServer(1)
        a.add_files(make_files(10))
        b.add_files(make_files(40))
        assert b.space_bytes() > a.space_bytes()

    def test_repr(self, server):
        assert "StorageServer" in repr(server)
