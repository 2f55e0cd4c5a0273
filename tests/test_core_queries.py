"""Tests for the query engines (point / range / top-k, on-line and off-line)."""

import numpy as np
import pytest

from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.eval.recall import ground_truth_range, ground_truth_topk, recall
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import TIE_ATTRS, make_files, make_twins


@pytest.fixture(scope="module")
def files():
    return make_files(120, clusters=4)


@pytest.fixture(scope="module")
def store(files):
    return SmartStore.build(files, SmartStoreConfig(num_units=12, seed=0))


@pytest.fixture(scope="module")
def online_store(files):
    return SmartStore.build(files, SmartStoreConfig(num_units=12, seed=0, mode="online"))


class TestPointQuery:
    def test_existing_file_found(self, store, files):
        result = store.execute(PointQuery(files[10].filename))
        assert result.found
        assert any(f.file_id == files[10].file_id for f in result.files)

    def test_missing_file_not_found(self, store):
        result = store.execute(PointQuery("definitely-not-there.bin"))
        assert not result.found

    def test_metrics_recorded(self, store, files):
        result = store.execute(PointQuery(files[0].filename))
        assert result.metrics.bloom_probes > 0
        assert result.latency > 0
        assert result.hops >= 0

    def test_hit_rate_over_population(self, store, files):
        hits = sum(1 for f in files[:60] if store.execute(PointQuery(f.filename)).found)
        assert hits / 60 > 0.95


class TestRangeQuery:
    def test_results_satisfy_predicate(self, store, files):
        q = RangeQuery(("mtime",), (1000.0,), (1200.0,))
        result = store.execute(q)
        for f in result.files:
            assert 1000.0 <= f.attributes["mtime"] <= 1200.0

    def test_matches_ground_truth_on_clustered_window(self, store, files):
        # Cluster 1 lives around mtime ~2060; the window covers it entirely.
        q = RangeQuery(("mtime", "owner"), (2000.0, 1.0), (2300.0, 1.0))
        result = store.execute(q)
        ideal = ground_truth_range(files, q)
        assert recall(result.files, ideal) == pytest.approx(1.0)

    def test_window_edges_are_tested_in_raw_units(self):
        # Regression: the window was applied in index space only.  log1p is
        # monotone but not injective in floating point, so read_bytes =
        # 39386155.74816256 — 1 ulp-ish above the raw upper bound — mapped
        # onto the index-space bound and file 712264511743855954 came back.
        from repro.traces import msn_trace

        population = msn_trace(20, seed=5).file_metadata()
        store = SmartStore.build(
            population, SmartStoreConfig(num_units=16, search_breadth=64)
        )
        q = RangeQuery(
            ("mtime", "read_bytes", "write_bytes"),
            (7853.928004807194, 28188426.9838859, 638626.4158906125),
            (8933.639080182691, 39386155.74816249, 1249997.842782677),
        )
        ideal = ground_truth_range(population, q)
        assert [f.file_id for f in store.execute(q).files] == [
            f.file_id for f in ideal
        ]

    def test_empty_window(self, store):
        result = store.execute(RangeQuery(("mtime",), (1e8,), (2e8,)))
        assert result.files == []
        assert not result.found

    def test_no_duplicate_results(self, store):
        result = store.execute(RangeQuery(("size",), (0.0,), (1e12,)))
        ids = [f.file_id for f in result.files]
        assert len(ids) == len(set(ids))

    def test_hops_bounded_by_search_breadth(self, store):
        result = store.execute(RangeQuery(("size",), (0.0,), (1e12,)))
        assert result.hops <= store.config.search_breadth - 1

    def test_groups_visited_at_least_one(self, store):
        result = store.execute(RangeQuery(("mtime",), (1e8,), (2e8,)))
        assert result.groups_visited >= 1


class TestTopKQuery:
    def test_returns_k_results_sorted(self, store, files):
        q = TopKQuery(("size", "mtime"), (files[5].attributes["size"], files[5].attributes["mtime"]), k=6)
        result = store.execute(q)
        assert len(result.files) == 6
        assert result.distances == sorted(result.distances)

    def test_matches_ground_truth(self, store, files):
        anchors = files[::17]
        for anchor in anchors:
            q = TopKQuery(
                ("size", "mtime"),
                (anchor.attributes["size"], anchor.attributes["mtime"]),
                k=5,
            )
            result = store.execute(q)
            ideal = ground_truth_topk(
                files, q, raw_lower=store.index_lower, raw_upper=store.index_upper
            )
            assert recall(result.files, ideal) >= 0.8

    def test_anchor_file_is_nearest(self, store, files):
        anchor = files[20]
        q = TopKQuery(
            ("size", "mtime", "owner"),
            (anchor.attributes["size"], anchor.attributes["mtime"], anchor.attributes["owner"]),
            k=1,
        )
        result = store.execute(q)
        assert result.distances[0] < 0.05

    def test_k_larger_than_population(self, store, files):
        q = TopKQuery(("size",), (1000.0,), k=10_000)
        result = store.execute(q)
        assert len(result.files) == len(files)

    def test_no_duplicates(self, store):
        result = store.execute(TopKQuery(("size",), (4096.0,), 20))
        ids = [f.file_id for f in result.files]
        assert len(ids) == len(set(ids))


class TestTopKCorrectness:
    """Regressions for the MaxD pruning and tie-ordering bugs.

    Historical failure modes: (1) MaxD was tightened on the pre-dedup
    candidate pool, so a record surfacing both from its storage unit and
    from a version chain counted twice, understated the k-th-best distance
    and terminated the sibling-group scan early, dropping real top-k
    members; (2) equal-distance results came back in scan order, which
    depends on physical placement.
    """

    def test_duplicate_chain_entries_do_not_prune(self, files):
        # No-op modifies put the nearest neighbours into the version chains
        # *as well as* their storage units; with exhaustive search breadth
        # the reported top-k must still match the brute-force ground truth
        # for every anchor (the duplicate pair must not understate MaxD).
        from repro.eval.recall import ground_truth_topk

        store = SmartStore.build(
            files, SmartStoreConfig(num_units=8, seed=0, search_breadth=64)
        )
        for anchor in files:
            q = TopKQuery(
                ("size", "mtime"),
                (anchor.attributes["size"], anchor.attributes["mtime"]),
                k=8,
            )
            ideal = ground_truth_topk(
                files, q, raw_lower=store.index_lower, raw_upper=store.index_upper
            )
            for f in ideal[:3]:
                store.modify_file(f)
            result = store.execute(q)
            assert {f.file_id for f in result.files} == {f.file_id for f in ideal}
            # Clear the chains so the next anchor starts from applied state.
            store.reconfigure()

    def test_tie_ordering_is_placement_independent(self):
        # Twelve records with *identical* attribute values: every distance
        # ties exactly, so the result order is pure tie-breaking.  Two
        # deployments with different physical layouts must answer with the
        # same files in the same canonical (distance, file_id) order.
        population = make_files(60, clusters=4) + make_twins(12)
        q = TopKQuery(("size", "mtime"), (TIE_ATTRS["size"], TIE_ATTRS["mtime"]), k=6)
        layouts = [
            SmartStoreConfig(num_units=10, seed=0, search_breadth=64),
            SmartStoreConfig(num_units=7, seed=3, search_breadth=64),
        ]
        outcomes = []
        for config in layouts:
            store = SmartStore.build(population, config)
            result = store.execute(q)
            ids = [f.file_id for f in result.files]
            assert ids == sorted(ids)  # equal distances => file-id order
            outcomes.append((ids, result.distances))
        assert outcomes[0] == outcomes[1]

    def test_max_d_bound_prunes_groups(self, store, files):
        # A hopeless bound lets the engine skip every group whose MINDIST
        # exceeds it — a remote shard that cannot beat the primary shard's
        # k-th-best distance does (next to) no work.  Candidates at or
        # below the bound are still guaranteed back (here: the anchor
        # itself at distance 0); anything extra the scanned groups yield
        # is harmless — the scatter-gather merge truncates it.
        anchor = files[9]
        q = TopKQuery(
            ("size", "mtime"),
            (anchor.attributes["size"], anchor.attributes["mtime"]),
            k=3,
        )
        bounded = store.engine.topk_query(q, max_d_bound=0.0)
        unbounded = store.engine.topk_query(q)
        assert (
            bounded.metrics.memory_records_scanned
            < unbounded.metrics.memory_records_scanned
        )
        assert bounded.distances and bounded.distances[0] == 0.0


class TestOnlineVsOffline:
    def test_online_uses_more_messages(self, store, online_store):
        q = RangeQuery(("mtime",), (2000.0,), (2300.0,))
        off = store.execute(q)
        on = online_store.execute(q)
        assert on.metrics.messages > off.metrics.messages

    def test_both_modes_agree_on_results(self, store, online_store, files):
        q = RangeQuery(("mtime", "owner"), (2000.0, 1.0), (2300.0, 1.0))
        off = {f.file_id for f in store.execute(q).files}
        on = {f.file_id for f in online_store.execute(q).files}
        assert off == on

    def test_online_topk_agrees(self, store, online_store, files):
        anchor = files[7]
        q = TopKQuery(("size", "mtime"), (anchor.attributes["size"], anchor.attributes["mtime"]), k=5)
        off = {f.file_id for f in store.execute(q).files}
        on = {f.file_id for f in online_store.execute(q).files}
        assert len(off & on) >= 4


class TestExecuteDispatch:
    def test_dispatch(self, store, files):
        assert store.execute(PointQuery(files[0].filename)).found
        assert store.execute(RangeQuery(("size",), (0.0,), (1e12,))).found
        assert store.execute(TopKQuery(("size",), (100.0,), k=2)).found

    def test_unknown_type_rejected(self, store):
        with pytest.raises(TypeError):
            store.execute("not a query")
