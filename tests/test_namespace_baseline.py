"""Tests for the directory-tree baseline and the namespace-locality analysis."""

import numpy as np
import pytest

from repro.eval.recall import ground_truth_range, ground_truth_topk, recall
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.namespace.baseline import DirectoryTreeBaseline
from repro.namespace.builder import build_namespace
from repro.namespace.locality import (
    common_subtree,
    locality_ratio,
    query_locality_report,
)
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import make_files


@pytest.fixture(scope="module")
def files():
    return make_files(200, clusters=5)


@pytest.fixture(scope="module")
def baseline(files):
    return DirectoryTreeBaseline(files, DEFAULT_SCHEMA)


class TestConstruction:
    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            DirectoryTreeBaseline([], DEFAULT_SCHEMA)

    def test_namespace_matches_population(self, baseline, files):
        assert len(baseline.tree) == len(files)

    def test_repr(self, baseline):
        assert "DirectoryTreeBaseline" in repr(baseline)


class TestPointQuery:
    def test_existing_filename_found(self, baseline, files):
        result = baseline.point_query(PointQuery(files[17].filename))
        assert result.found
        assert files[17] in result.files

    def test_missing_filename(self, baseline):
        assert not baseline.point_query(PointQuery("not-there.bin")).found

    def test_filename_query_walks_whole_namespace(self, baseline, files):
        result = baseline.point_query(PointQuery(files[0].filename))
        assert result.metrics.disk_index_accesses >= baseline.tree.num_directories
        assert result.metrics.disk_records_scanned == len(files)

    def test_path_lookup_is_cheap(self, baseline, files):
        by_name = baseline.point_query(PointQuery(files[3].filename))
        by_path = baseline.path_lookup(files[3].path)
        assert by_path.found
        assert files[3] in by_path.files
        assert by_path.latency < by_name.latency

    def test_path_lookup_missing(self, baseline):
        assert not baseline.path_lookup("/data/proj0/没有.dat").found

    def test_execute_dispatch(self, baseline, files):
        assert baseline.execute(PointQuery(files[0].filename)).found
        with pytest.raises(TypeError):
            baseline.execute(object())


class TestComplexQueries:
    def test_range_query_matches_ground_truth(self, baseline, files):
        q = RangeQuery(("mtime", "owner"), (2000.0, 1.0), (2400.0, 2.0))
        result = baseline.range_query(q)
        ideal = ground_truth_range(files, q)
        assert {f.file_id for f in result.files} == {f.file_id for f in ideal}
        assert recall(result.files, ideal) == 1.0

    def test_range_query_charges_full_scan(self, baseline, files):
        q = RangeQuery(("size",), (0.0,), (1e18,))
        result = baseline.range_query(q)
        assert result.metrics.disk_records_scanned == len(files)
        assert len(result.files) == len(files)

    def test_topk_query_matches_ground_truth(self, baseline, files):
        q = TopKQuery(("size", "mtime"), (float(files[5].get("size")), float(files[5].get("mtime"))), 8)
        result = baseline.topk_query(q)
        ideal = ground_truth_topk(files, q, DEFAULT_SCHEMA)
        assert len(result.files) == 8
        assert recall(result.files, ideal) >= 0.75  # ties at equal distance may differ
        assert result.distances == sorted(result.distances)

    def test_topk_k_larger_than_population(self, files):
        small = DirectoryTreeBaseline(files[:5], DEFAULT_SCHEMA)
        result = small.topk_query(TopKQuery(("size",), (1000.0,), 50))
        assert len(result.files) == 5


class TestSpaceAccounting:
    def test_index_space_positive_and_scales(self, files):
        small = DirectoryTreeBaseline(files[:50], DEFAULT_SCHEMA)
        large = DirectoryTreeBaseline(files, DEFAULT_SCHEMA)
        assert 0 < small.index_space_bytes() <= large.index_space_bytes()
        assert large.index_space_bytes_per_node() == large.index_space_bytes()


class TestLocality:
    def test_locality_ratio_bounds(self, files):
        tree = build_namespace(files)
        assert locality_ratio([], tree) == 0.0
        ratio = locality_ratio(files[:10], tree)
        assert 0.0 < ratio <= 1.0

    def test_locality_ratio_single_directory(self, files):
        tree = build_namespace(files)
        same_dir = [f for f in files if f.directory == files[0].directory]
        assert locality_ratio(same_dir, tree) == pytest.approx(1.0 / tree.num_directories)

    def test_common_subtree(self):
        a = FileMetadata("/p/x/a.dat", {"size": 1.0})
        b = FileMetadata("/p/x/b.dat", {"size": 1.0})
        c = FileMetadata("/p/y/c.dat", {"size": 1.0})
        d = FileMetadata("/q/d.dat", {"size": 1.0})
        assert common_subtree([a, b]) == "/p/x"
        assert common_subtree([a, b, c]) == "/p"
        assert common_subtree([a, d]) == "/"
        assert common_subtree([]) is None

    def test_query_locality_report(self, files):
        generator = QueryWorkloadGenerator(files, DEFAULT_SCHEMA, seed=5)
        queries = generator.mixed_complex_queries(15, 15, distribution="zipf", k=8)
        report = query_locality_report(files, queries)
        assert report.num_queries > 0
        assert 0.0 <= report.mean_locality_ratio <= 1.0
        assert 0.0 <= report.localizable_fraction <= 1.0
        assert 0.0 <= report.mean_subtree_fraction <= 1.0
        assert set(report.as_dict()) == {
            "num_queries",
            "mean_locality_ratio",
            "median_locality_ratio",
            "localizable_fraction",
            "mean_subtree_fraction",
        }

    def test_query_locality_report_point_queries_ignored(self, files):
        report = query_locality_report(files, [PointQuery("whatever.dat")])
        assert report.num_queries == 0
        assert report.mean_locality_ratio == 0.0


class TestCrossSystemAgreement:
    """The directory baseline must agree with the other exact systems."""

    def test_range_agrees_with_dbms(self, files, baseline):
        from repro.baselines.dbms import DBMSBaseline

        dbms = DBMSBaseline(files, DEFAULT_SCHEMA)
        q = RangeQuery(("read_bytes", "owner"), (0.0, 0.0), (1e7, 3.0))
        a = {f.file_id for f in baseline.range_query(q).files}
        b = {f.file_id for f in dbms.range_query(q).files}
        assert a == b

    def test_directory_walk_slower_than_smartstore(self, files):
        from repro.core.smartstore import SmartStore, SmartStoreConfig

        store = SmartStore.build(files, SmartStoreConfig(num_units=10, seed=1))
        baseline = DirectoryTreeBaseline(files, DEFAULT_SCHEMA)
        q = RangeQuery(("mtime",), (2000.0,), (2200.0,))
        assert baseline.range_query(q).latency > store.execute(q).latency
