"""The top-k walk does only the work that can change the answer.

``QueryEngine.topk_query`` cuts each unit at the candidate pool's k-th
distance once the pool holds ``k`` (``knn_candidates(..., within=)``) and
keeps MaxD in a bounded heap instead of re-partitioning the pool after
every group.  The answer must not notice: :func:`reference_topk` below is
the walk before that change — every unit does the full tie-stable cut at
``k`` over a C-ordered copy of its normalised rows, and MaxD is a
partition of the whole pool — and every top-k is held to it on files,
``repr`` of every distance, groups visited, completeness and every
``Metrics`` counter.  The work saved is counted, not timed: selection
kernels per unit and pool rebuilds per query.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np
import pytest

from repro.cluster.metrics import Metrics
from repro.cluster.node import StorageServer
from repro.core.queries import ReadContext
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest.pipeline import IngestPipeline
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.workloads.types import TopKQuery

from helpers import make_files, make_twins, pending_distances, pending_files

NAMES = DEFAULT_SCHEMA.names
UNITS = 12
#: Query anchors in the population (251 is a twin).
ANCHORS = (0, 17, 100, 251)


# ---------------------------------------------------------------------------- the reference walk
def reference_knn(server, query_norm, k, metrics, attr_indices, exclude_ids):
    """A unit's full tie-stable cut at ``k``, distances summed by numpy
    over ``norm[:, attrs]`` of a row-major copy of the normalised rows."""
    file_ids = server.file_ids()
    norm = np.ascontiguousarray(server.normalized_matrix())
    n = file_ids.shape[0]
    metrics.record_unit_visit(server.unit_id)
    metrics.record_scan(n, on_disk=False)
    if n == 0:
        return [], [], []
    deltas = norm[:, list(attr_indices)] - np.asarray(query_norm)[None, :]
    dists = np.sqrt(np.sum(deltas * deltas, axis=1))
    rows = None
    if exclude_ids is not None and exclude_ids.size:
        at = np.searchsorted(exclude_ids, file_ids)
        at[at == exclude_ids.size] = 0
        rows = np.nonzero(exclude_ids[at] != file_ids)[0]
        if rows.size == 0:
            return [], [], []
        dists, file_ids = dists[rows], file_ids[rows]
    k = min(k, dists.shape[0])
    part = np.argpartition(dists, k - 1)[:k]
    kth = dists[part].max()
    eligible = np.nonzero(dists <= kth)[0]
    order = np.lexsort((file_ids[eligible], dists[eligible]))
    top = eligible[order[:k]]
    picked = top if rows is None else rows[top]
    return dists[top].tolist(), file_ids[top].tolist(), picked.tolist()


def reference_topk(engine, query, *, home_unit, max_d_bound=None):
    """The MaxD walk with a full-pool partition after every group."""
    metrics = Metrics()
    home = home_unit
    metrics.record_unit_visit(home)
    attr_idx = list(engine.schema.indices(query.attributes))
    index_point = engine.to_index_space(attr_idx, query.values)
    query_norm = engine.normalize_index_values(attr_idx, index_point)
    tables = engine.tree.summaries()
    groups = tables.groups
    mindists = tables.boxes.min_distance_subrange(
        attr_idx, index_point, engine.index_lower[attr_idx], engine.index_upper[attr_idx]
    )[tables.group_rows]
    walk = np.argsort(mindists, kind="stable").tolist()
    mindists = mindists.tolist()
    if engine.mode == "offline":
        metrics.record_index_access(len(groups))
    else:
        others = [g for g in groups if g.hosted_on != home]
        metrics.record_message(2 * len(others))
    best = {}

    def absorb(file_ids, distances, fetch, keys):
        for file_id, dist, key in zip(file_ids, distances, keys):
            kept = best.get(file_id)
            if kept is None or dist < kept[0]:
                best[file_id] = (dist, fetch, key)

    def absorb_pending(files):
        absorb(
            [f.file_id for f in files],
            pending_distances(engine, files, query.attributes, query_norm),
            files.__getitem__,
            range(len(files)),
        )

    staged_ids = set()
    masked = None
    if engine.overlay is not None and len(engine.overlay):
        metrics.record_index_access()
        view = engine.overlay.snapshot()
        live, staged_ids = view.live, view.pending
        masked = np.fromiter(sorted(staged_ids), dtype=np.int64, count=len(staged_ids))
        absorb_pending(list(live.values()))

    def scan_group(group):
        if group.hosted_on is not None and group.hosted_on != home:
            metrics.record_message(2)
        for leaf in tables.leaves_of(group)[0]:
            metrics.record_index_access()
            if leaf.unit_id != home:
                metrics.record_message(2)
            server = engine.cluster.server(leaf.unit_id)
            distances, file_ids, rows = reference_knn(
                server, query_norm, query.k, metrics, attr_idx, masked
            )
            absorb(file_ids, distances, server.record_at, rows)

    if engine.versioning_enabled:
        absorb_pending(
            [
                f
                for group in groups
                for f in pending_files(engine.versioning, group.node_id, metrics)
                if f.file_id not in staged_ids
            ]
        )
    groups_scanned = 0
    max_d = float("inf") if max_d_bound is None else float(max_d_bound)
    for row in walk:
        metrics.record_index_access()
        if mindists[row] > max_d and (len(best) >= query.k or max_d_bound is not None):
            break
        scan_group(groups[row])
        groups_scanned += 1
        if len(best) >= query.k:
            pool = np.fromiter((c[0] for c in best.values()), np.float64, len(best))
            max_d = min(max_d, float(np.partition(pool, query.k - 1)[query.k - 1]))
    top = sorted((c[0], file_id) for file_id, c in best.items())[: query.k]
    files = [best[file_id][1](best[file_id][2]) for _, file_id in top]
    return engine._finish(files, metrics, max(1, groups_scanned), [d for d, _ in top])


def fingerprint(result):
    return (
        [(f.file_id, f.path, sorted(f.attributes.items())) for f in result.files],
        [repr(d) for d in result.distances],
        result.groups_visited,
        result.complete,
        result.metrics.as_dict(),
    )


# ---------------------------------------------------------------------------- deployments
def _moved(f, factor):
    attrs = {name: value * factor for name, value in f.attributes.items()}
    return FileMetadata(path=f.path, file_id=f.file_id, attributes=attrs)


def _build(files):
    return SmartStore.build(files, SmartStoreConfig(num_units=UNITS, seed=0, search_breadth=6))


def _with_chains(files):
    """Version-chain inserts and modifies whose stale indexed copies are
    still in their units: a modify moved one way or the other lowers the
    pooled distance of an id either when its chain entry or when its
    indexed copy arrives second.  Two query anchors move far away: their
    stale copies still sit at the query, so with ``k = 1`` the lowered id
    *is* the pool's k-th distance."""
    store = _build(files)
    for i, f in enumerate(files[:60:6]):
        store.modify_file(_moved(f, 1.04 if i % 2 else 0.97))
    for i in ANCHORS[1:3]:
        store.modify_file(_moved(files[i], 3.0))
    for i in range(3):
        attrs = dict(files[7 + i].attributes)
        store.insert_file(FileMetadata(path=f"/data/new/chain{i}.dat", attributes=attrs))
    groups = store.tree.first_level_groups()
    assert sum(len(pending_files(store.versioning, g.node_id)) for g in groups)
    return store


def _with_overlay(files):
    """A staged overlay: its ids are masked out of every unit scan."""
    store = _build(files)
    pipeline = IngestPipeline(store)
    for i, f in enumerate(files[1:80:5]):
        if i % 3 == 0:
            pipeline.delete(f)
        else:
            pipeline.modify(_moved(f, 1.02 if i % 2 else 0.99))
    pipeline.insert(FileMetadata(path="/data/new/staged.dat", attributes=dict(files[3].attributes)))
    assert len(store.engine.overlay)
    return store


DEPLOYMENTS = {"plain": _build, "chains": _with_chains, "overlay": _with_overlay}


@pytest.fixture(scope="module")
def population():
    return make_files(240, seed=5, clusters=6) + make_twins(12)


@pytest.fixture(scope="module", params=sorted(DEPLOYMENTS))
def store(request, population):
    return DEPLOYMENTS[request.param](population)


def _subsets():
    """Attribute subsets of every size 1-8, all eight included."""
    rng = np.random.default_rng(11)
    for size in range(1, len(NAMES) + 1):
        for _ in range(2 if size < len(NAMES) else 1):
            yield tuple(NAMES[i] for i in rng.permutation(len(NAMES))[:size])


def _queries(population):
    rng = np.random.default_rng(3)
    anchors = [population[i] for i in ANCHORS]
    for attrs, k in itertools.product(_subsets(), (1, 8, 40)):
        anchor = anchors[int(rng.integers(len(anchors)))]
        jitter = 1.0 + rng.uniform(-0.05, 0.05, len(attrs))
        yield TopKQuery(attrs, tuple(anchor.attributes[a] * j for a, j in zip(attrs, jitter)), k)


def _at(anchor, attrs, k=8):
    return TopKQuery(attrs, tuple(anchor.attributes[a] for a in attrs), k)


# ---------------------------------------------------------------------------- the tests
class TestTheWalkMatchesTheReference:
    def test_every_answer_distance_and_counter(self, store, population):
        engine = store.engine
        for i, query in enumerate(_queries(population)):
            home = (7 * i + 2) % UNITS
            got = engine.topk_query(query, home_unit=home)
            assert fingerprint(got) == fingerprint(
                reference_topk(engine, query, home_unit=home)
            ), (i, query)

    def test_a_bound_below_the_pools_kth_distance(self, store, population):
        """``max_d_bound`` prunes groups, but the unit cut stays at the
        pool's own k-th distance: a bound below it must not drop answers
        the reference keeps."""
        engine = store.engine
        for i, query in enumerate(_queries(population)):
            if i % 3:
                continue
            home = (5 * i + 1) % UNITS
            kth = engine.topk_query(query, home_unit=home).distances[-1]
            for bound in (0.5 * kth, kth):
                got = engine.execute(query, ReadContext(home_unit=home, max_d_bound=bound))
                assert fingerprint(got) == fingerprint(
                    reference_topk(engine, query, home_unit=home, max_d_bound=bound)
                ), (i, query, bound)


class TestWorkPerTopK:
    """Selection kernels per unit and pool rebuilds per query, counted."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"units": 0, "unbounded": 0, "argpartition": 0, "rebuilds": 0}
        real_knn = StorageServer.knn_candidates
        real_argpartition, real_partition = np.argpartition, np.partition
        real_nsmallest = heapq.nsmallest

        def knn(self, *args, **kwargs):
            counts["units"] += 1
            counts["unbounded"] += kwargs.get("within") is None
            return real_knn(self, *args, **kwargs)

        def argpartition(*args, **kwargs):
            counts["argpartition"] += 1
            return real_argpartition(*args, **kwargs)

        def rebuild(real):
            def wrapped(*args, **kwargs):
                counts["rebuilds"] += 1
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(StorageServer, "knn_candidates", knn)
        monkeypatch.setattr(np, "argpartition", argpartition)
        # The pool is rebuilt by a partition of it (the reference) or by
        # re-selecting its k smallest from the dedup map.
        monkeypatch.setattr(np, "partition", rebuild(real_partition))
        monkeypatch.setattr(heapq, "nsmallest", rebuild(real_nsmallest))
        return counts

    def test_only_units_before_the_pool_fills_run_the_full_cut(self, population, counts):
        store = _build(population)
        query = _at(population[17], ("size", "mtime", "owner"))
        store.engine.topk_query(query, home_unit=0)
        assert counts["units"] > counts["unbounded"] >= 1
        assert counts["argpartition"] == counts["unbounded"]
        assert counts["rebuilds"] == 0

    def test_a_lowered_entry_rebuilds_the_pool(self, population, counts):
        """A stale indexed copy that lands closer than its modify's chain
        entry (pooled first) lowers an id already in the pool: the one case
        MaxD is recomputed from the dedup map — and the answer still
        matches."""
        store = _build(population)
        anchor = population[17]
        store.modify_file(_moved(anchor, 1.0 + 1e-9))
        query = _at(anchor, ("size", "mtime"))
        got = store.engine.topk_query(query, home_unit=0)
        assert counts["rebuilds"] >= 1
        assert fingerprint(got) == fingerprint(reference_topk(store.engine, query, home_unit=0))
