"""Tests for the DBMS (per-attribute B+-tree) baseline."""

import pytest

from repro.baselines.dbms import DBMSBaseline
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import make_files


@pytest.fixture(scope="module")
def files():
    return make_files(150, clusters=5)


@pytest.fixture(scope="module")
def dbms(files):
    return DBMSBaseline(files, DEFAULT_SCHEMA)


class TestConstruction:
    def test_one_tree_per_attribute(self, dbms):
        assert set(dbms.attribute_trees.keys()) == set(DEFAULT_SCHEMA.names)
        for tree in dbms.attribute_trees.values():
            assert len(tree) == 150

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            DBMSBaseline([], DEFAULT_SCHEMA)


class TestPointQuery:
    def test_existing_file_found(self, dbms, files):
        result = dbms.point_query(PointQuery(files[0].filename))
        assert result.found
        assert files[0] in result.files

    def test_missing_file(self, dbms):
        assert not dbms.point_query(PointQuery("missing.bin")).found

    def test_charged_to_disk(self, dbms, files):
        result = dbms.point_query(PointQuery(files[0].filename))
        assert result.metrics.disk_index_accesses > 0
        assert result.metrics.messages == 2


class TestRangeQuery:
    def test_exact_results(self, dbms, files):
        q = RangeQuery(("mtime", "owner"), (2000.0, 1.0), (2300.0, 1.0))
        result = dbms.range_query(q)
        expected = {f.file_id for f in files if f.matches_ranges(q.attributes, q.lower, q.upper)}
        assert {f.file_id for f in result.files} == expected

    def test_full_range_returns_everything(self, dbms, files):
        q = RangeQuery(("size",), (0.0,), (1e15,))
        assert len(dbms.range_query(q).files) == len(files)

    def test_scans_charged_per_attribute(self, dbms):
        one = dbms.range_query(RangeQuery(("size",), (0.0,), (1e15,)))
        three = dbms.range_query(
            RangeQuery(("size", "mtime", "owner"), (0.0, 0.0, 0.0), (1e15, 1e9, 1e9))
        )
        assert three.metrics.disk_records_scanned > one.metrics.disk_records_scanned

    def test_latency_dominated_by_disk(self, dbms):
        result = dbms.range_query(RangeQuery(("size",), (0.0,), (1e15,)))
        assert result.latency > 0.01  # hundreds of disk accesses at 5 ms each


class TestTopKQuery:
    def test_results_sorted_and_k_bounded(self, dbms):
        q = TopKQuery(("size", "mtime"), (4096.0, 2100.0), k=7)
        result = dbms.topk_query(q)
        assert len(result.files) == 7
        assert result.distances == sorted(result.distances)

    def test_brute_force_scan_charged(self, dbms, files):
        result = dbms.topk_query(TopKQuery(("size",), (1000.0,), k=3))
        assert result.metrics.disk_records_scanned >= len(files)

    def test_k_larger_than_population(self, dbms, files):
        result = dbms.topk_query(TopKQuery(("size",), (1000.0,), k=10_000))
        assert len(result.files) == len(files)


class TestDispatchAndSpace:
    def test_execute_dispatch(self, dbms, files):
        assert dbms.execute(PointQuery(files[1].filename)).found
        assert dbms.execute(RangeQuery(("size",), (0.0,), (1e15,))).found
        assert dbms.execute(TopKQuery(("size",), (1.0,), k=1)).found
        with pytest.raises(TypeError):
            dbms.execute(42)

    def test_index_space_larger_than_single_tree(self, dbms):
        assert dbms.index_space_bytes() == dbms.index_space_bytes_per_node()
        assert dbms.index_space_bytes() > 0
