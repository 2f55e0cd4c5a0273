"""Tests for the query engines (point / range / top-k, on-line and off-line)."""

import hashlib

import numpy as np
import pytest

from repro.core.queries import ReadContext
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.core.versioning import PendingView
from repro.eval.recall import ground_truth_range, ground_truth_topk, recall
from repro.ingest.pipeline import IngestPipeline
from repro.metadata.file_metadata import FileMetadata
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


def _golden_queries(files):
    return [
        PointQuery(files[10].filename),
        PointQuery(files[77].filename),
        PointQuery("definitely-not-there.bin"),
        RangeQuery(("mtime",), (1000.0,), (2200.0,)),
        RangeQuery(("mtime", "owner"), (2000.0, 1.0), (2300.0, 1.0)),
        RangeQuery(("size", "ctime", "access_count"), (0.0, 0.0, 0.0), (1e9, 1e9, 1e9)),
        TopKQuery(("size", "mtime"), (8192.0, 2100.0), 5),
        TopKQuery(("ctime", "read_bytes", "owner"), (3000.0, 4096.0, 2.0), 8),
        TopKQuery(("atime",), (99999.0,), 3),
    ]


def _stage_golden_mutations(pipeline, files):
    for i, f in enumerate(files[:30:3]):
        if i % 2:
            pipeline.delete(f)
        else:
            attrs = dict(f.attributes)
            attrs["mtime"] = attrs["mtime"] + 400.0
            pipeline.modify(FileMetadata(path=f.path, file_id=f.file_id, attributes=attrs))
    for i in range(6):
        attrs = dict(files[40 + i].attributes)
        attrs["size"] = attrs["size"] * 1.5
        pipeline.insert(FileMetadata(path=f"/data/new/fresh{i:02d}.dat", attributes=attrs))


#: Per query of ``_golden_queries``: (messages, units visited, memory index
#: accesses, memory records scanned, Bloom probes, groups visited, files
#: returned), keyed by (search_breadth, staged overlay?).  Recorded at
#: 17475f9 — the commit before routing moved onto the columnar summary
#: tables — with home unit ``(5 * i + 1) % 12`` pinned for query ``i``.
GOLDEN_COUNTS = {
    (4, False): [
        (2, 2, 10, 1, 10, 1, 1),
        (3, 2, 9, 1, 9, 1, 1),
        (0, 1, 2, 0, 2, 1, 0),
        (18, 6, 14, 54, 0, 4, 54),
        (12, 4, 12, 30, 0, 3, 30),
        (20, 7, 15, 70, 0, 4, 70),
        (12, 5, 16, 46, 0, 2, 5),
        (12, 5, 18, 48, 0, 3, 8),
        (12, 5, 16, 46, 0, 2, 3),
    ],
    (4, True): [
        (2, 2, 11, 1, 10, 1, 1),
        (3, 2, 10, 1, 9, 1, 1),
        (0, 1, 3, 16, 2, 1, 0),
        (18, 6, 15, 70, 0, 4, 58),
        (12, 4, 13, 46, 0, 3, 30),
        (20, 7, 16, 86, 0, 4, 75),
        (12, 5, 17, 62, 0, 2, 5),
        (12, 5, 19, 64, 0, 3, 8),
        (12, 5, 17, 62, 0, 2, 3),
    ],
    (64, False): [
        (2, 2, 10, 1, 10, 1, 1),
        (3, 2, 9, 1, 9, 1, 1),
        (0, 1, 2, 0, 2, 1, 0),
        (18, 6, 15, 60, 0, 5, 60),
        (12, 4, 12, 30, 0, 3, 30),
        (38, 12, 21, 120, 0, 9, 120),
        (12, 5, 16, 46, 0, 2, 5),
        (12, 5, 18, 48, 0, 3, 8),
        (12, 5, 16, 46, 0, 2, 3),
    ],
    (64, True): [
        (2, 2, 11, 1, 10, 1, 1),
        (3, 2, 10, 1, 9, 1, 1),
        (0, 1, 3, 16, 2, 1, 0),
        (18, 6, 16, 76, 0, 5, 62),
        (12, 4, 13, 46, 0, 3, 30),
        (38, 12, 22, 136, 0, 9, 121),
        (12, 5, 17, 62, 0, 2, 5),
        (12, 5, 19, 64, 0, 3, 8),
        (12, 5, 17, 62, 0, 2, 3),
    ],
}


class TestRouteOncePerQuery:
    """Routing reads the columnar summary tables; what a query is *charged*
    and what it hashes are pinned here."""

    @pytest.mark.parametrize("breadth,staged", sorted(GOLDEN_COUNTS))
    def test_charged_counts_equal_the_per_node_walk(self, files, breadth, staged):
        store = SmartStore.build(
            files, SmartStoreConfig(num_units=12, seed=0, search_breadth=breadth)
        )
        if staged:
            _stage_golden_mutations(IngestPipeline(store), files)
        for i, query in enumerate(_golden_queries(files)):
            result = store.engine.execute(query, ReadContext(home_unit=(5 * i + 1) % 12))
            m = result.metrics
            assert m.disk_index_accesses == 0 and m.disk_records_scanned == 0
            assert (
                m.messages,
                len(m.units_visited),
                m.memory_index_accesses,
                m.memory_records_scanned,
                m.bloom_probes,
                result.groups_visited,
                len(result.files),
            ) == GOLDEN_COUNTS[breadth, staged][i], (i, query)

    def test_point_query_hashes_the_filename_once(self, store, files, monkeypatch):
        calls = []
        real_md5 = hashlib.md5

        def counting_md5(*args, **kwargs):
            calls.append(args)
            return real_md5(*args, **kwargs)

        store.execute(PointQuery(files[0].filename))  # tables are warm
        monkeypatch.setattr(hashlib, "md5", counting_md5)
        for name in (files[3].filename, "definitely-not-there.bin"):
            calls.clear()
            result = store.execute(PointQuery(name))
            assert result.metrics.bloom_probes > 1  # many filters, one hash
            assert len(calls) == 1 and calls[0] == (name.encode("utf-8"),)

    def test_pending_distances_equal_the_per_record_norm(self, store, files):
        engine = store.engine
        attributes = ("size", "mtime", "owner", "atime")
        idx = list(engine.schema.indices(attributes))
        query_norm = engine.normalize_index_values(
            idx, engine.to_index_space(idx, (8192.0, 2100.0, 1.0, 0.0))
        )
        expected = []
        for f in files:
            values = [f.attributes.get(a, 0.0) for a in attributes]
            fnorm = engine.normalize_index_values(idx, engine.to_index_space(idx, values))
            expected.append(float(np.linalg.norm(fnorm - query_norm)))
        view = PendingView({f.file_id: f for f in files}, frozenset(), 0, {})
        assert engine._pending_distances(view, attributes, query_norm) == expected
        empty = PendingView({}, frozenset(), 0, {})
        assert engine._pending_distances(empty, attributes, query_norm) == []
