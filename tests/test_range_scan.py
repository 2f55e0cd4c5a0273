"""A range answer is decided once, in raw units (docs/INVARIANTS.md §17).

``StorageServer.scan_range`` compares a unit's raw columns against the
user's bounds, so ``QueryEngine.range_query`` no longer re-checks its hits:
the index-space window only prunes (group location and the leaf MBR mask).
:func:`reference_scan` below is the path before that change — an
index-space mask over a row-major gather of the unit's columns, then every
hit re-checked in raw units with ``FileMetadata.matches_ranges`` — and
every range answer is held to it on file ids in order, records, groups
visited, completeness and every ``Metrics`` counter: on a plain store,
beside version chains and a staged overlay that move files into and out
of the window, and over a restored store's units both cold (segment
blocks) and materialised (their in-memory form).  The re-check saved is
counted: none for an indexed hit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.metrics import Metrics
from repro.cluster.node import StorageServer
from repro.core.queries import to_index_space
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.eval.recall import ground_truth_range
from repro.ingest.pipeline import IngestPipeline, recover_from_storage
from repro.ingest.wal import WriteAheadLog
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.storage import SegmentStore
from repro.traces.msn import msn_trace
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import RangeQuery

from helpers import make_files, make_twins, pending_files

NAMES = DEFAULT_SCHEMA.names
LOGGED = tuple(n for n in NAMES if DEFAULT_SCHEMA.spec(n).log_scale)
UNITS = 12
#: Window anchors in the population (251 is a twin).
ANCHORS = (0, 17, 100, 251)


# ---------------------------------------------------------------------------- the reference path
def reference_scan(self, attr_indices, lower, upper, metrics=None):
    """A unit's scan as it was: the raw bounds mapped to index space, an
    ``np.all`` mask over ``index[:, attrs]`` of a row-major index matrix,
    then each hit re-checked in raw units (the engine's old second pass)."""
    block = self.rows
    metrics = metrics if metrics is not None else Metrics()
    n = block.count
    metrics.record_unit_visit(self.unit_id)
    metrics.record_scan(n)
    if n == 0:
        return []
    cols = self.space.to_index(np.ascontiguousarray(block.raw))[:, list(attr_indices)]
    lo = to_index_space(self.space.log_mask, attr_indices, lower)
    hi = to_index_space(self.space.log_mask, attr_indices, upper)
    mask = np.all((cols >= lo) & (cols <= hi), axis=1)
    names = [NAMES[a] for a in attr_indices]
    hits = [block.record(i) for i in np.nonzero(mask)[0].tolist()]
    return [f for f in hits if f.matches_ranges(names, lower, upper)]


def reference_range(engine, query, *, home_unit):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StorageServer, "scan_range", reference_scan)
        return engine.range_query(query, home_unit=home_unit)


def fingerprint(result):
    return (
        [(f.file_id, f.path, sorted(f.attributes.items())) for f in result.files],
        result.groups_visited,
        result.complete,
        result.metrics.as_dict(),
    )


# ---------------------------------------------------------------------------- deployments
def _moved(f, factor):
    attrs = {name: value * factor for name, value in f.attributes.items()}
    return FileMetadata(path=f.path, file_id=f.file_id, attributes=attrs)


def _onto(f, anchor):
    """``f`` with ``anchor``'s attribute values: into every window around it."""
    return FileMetadata(path=f.path, file_id=f.file_id, attributes=dict(anchor.attributes))


def _build(files):
    return SmartStore.build(files, SmartStoreConfig(num_units=UNITS, seed=0, search_breadth=6))


def _with_chains(files):
    """Pending modifies beside their stale indexed copies: anchors moved
    out of the windows around them, other files moved onto an anchor."""
    store = _build(files)
    for i in ANCHORS[1:3]:
        store.modify_file(_moved(files[i], 3.0))
    for i, f in enumerate(files[40:70:6]):
        store.modify_file(_onto(f, files[ANCHORS[i % len(ANCHORS)]]))
    store.insert_file(FileMetadata(path="/data/new/chain.dat", attributes=dict(files[0].attributes)))
    groups = store.tree.first_level_groups()
    assert sum(len(pending_files(store.versioning, g.node_id)) for g in groups)
    return store


def _with_overlay(files):
    """Staged deletes, modifies into and out of the windows and an insert."""
    store = _build(files)
    pipeline = IngestPipeline(store)
    pipeline.modify(_moved(files[ANCHORS[1]], 3.0))
    pipeline.delete(files[ANCHORS[2]])
    for i, f in enumerate(files[41:80:6]):
        pipeline.modify(_onto(f, files[ANCHORS[i % len(ANCHORS)]]))
    pipeline.insert(FileMetadata(path="/data/new/staged.dat", attributes=dict(files[0].attributes)))
    assert len(store.engine.overlay)
    return store


def _restored(files, root):
    """The plain store published as segments and reopened from them."""
    pipeline = IngestPipeline(_build(files), WriteAheadLog(root / "store.wal"))
    pipeline.attach_storage(SegmentStore(root / "snap"))
    pipeline.checkpoint()
    pipeline.close()
    recovered, _ = recover_from_storage(root / "snap", wal_path=root / "store.wal")
    servers = [s for s in recovered.store.cluster if len(s)]
    assert servers and all(s.backing_segment() is not None for s in servers)
    return recovered, servers


@pytest.fixture(scope="module")
def population():
    return make_files(240, seed=5, clusters=6) + make_twins(12)


@pytest.fixture(scope="module", params=["plain", "chains", "overlay", "cold", "materialised"])
def store(request, population, tmp_path_factory):
    build = {"plain": _build, "chains": _with_chains, "overlay": _with_overlay}.get(request.param)
    if build is not None:
        yield build(population)
        return
    recovered, servers = _restored(population, tmp_path_factory.mktemp(request.param))
    cold = request.param == "cold"
    try:
        if not cold:
            for server in servers:  # a `files` read swaps in the in-memory form
                assert len(server.files) == len(server)
        yield recovered.store
        assert all((s.backing_segment() is not None) == cold for s in servers)
    finally:
        recovered.close()


# ---------------------------------------------------------------------------- windows
def _subsets():
    """Attribute subsets of every size 1-8, every log-scaled attribute
    alone and all of them together."""
    rng = np.random.default_rng(11)
    for size in range(1, len(NAMES) + 1):
        for _ in range(2 if size < len(NAMES) else 1):
            yield tuple(NAMES[i] for i in rng.permutation(len(NAMES))[:size])
    yield from ((name,) for name in LOGGED)
    yield LOGGED


def _extremes(population, attrs):
    """Windows on the population's extremes: exact, and clipped in index
    space then converted back with ``expm1`` (a bound that may land one
    ulp inside or outside the extreme value)."""
    raw = np.array([[f.attributes[a] for a in attrs] for f in population])
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    logged = np.array([DEFAULT_SCHEMA.spec(a).log_scale for a in attrs])

    def back(v):
        return np.where(logged, np.expm1(np.log1p(np.maximum(v, 0.0))), v)

    yield RangeQuery(attrs, tuple(lo.tolist()), tuple(hi.tolist()))
    yield RangeQuery(attrs, tuple(back(lo).tolist()), tuple(back(hi).tolist()))
    mid = np.sort(raw, axis=0)[len(raw) // 2]
    yield RangeQuery(attrs, tuple(back(lo).tolist()), tuple(mid.tolist()))
    yield RangeQuery(attrs, tuple(mid.tolist()), tuple(back(hi).tolist()))


def _anchored(population, attrs):
    """Narrow windows around each anchor, and windows whose bounds sit
    exactly on its values."""
    for i in ANCHORS:
        values = np.array([population[i].attributes[a] for a in attrs])
        yield RangeQuery(attrs, tuple(values.tolist()), tuple(values.tolist()))
        yield RangeQuery(attrs, tuple((values * 0.98).tolist()), tuple((values * 1.02).tolist()))


def _queries(population):
    generator = QueryWorkloadGenerator(population, seed=3)
    for attrs in _subsets():
        yield from _extremes(population, attrs)
        yield from _anchored(population, attrs)
        for distribution, selectivity in (("uniform", 0.3), ("gauss", 0.1), ("zipf", 1.0)):
            yield from generator.range_queries(
                2, attrs, distribution=distribution, selectivity=selectivity
            )


# ---------------------------------------------------------------------------- the tests
class TestEveryRangeMatchesTheReference:
    def test_every_answer_and_counter(self, store, population):
        engine = store.engine
        answered = 0
        for i, query in enumerate(_queries(population)):
            home = (7 * i + 2) % UNITS
            got = engine.range_query(query, home_unit=home)
            assert fingerprint(got) == fingerprint(
                reference_range(engine, query, home_unit=home)
            ), (i, query)
            answered += bool(got.files)
        assert answered > 50


class TestTheKnifeEdge:
    """``benchmarks/perf/README.md``'s reproduction: a window converted back
    with ``expm1`` whose upper ``read_bytes`` bound is 9 ulps below the
    population maximum, which ``log1p`` maps onto the bound itself."""

    QUERY = RangeQuery(
        attributes=("mtime", "read_bytes", "write_bytes"),
        lower=(7853.928004807194, 28188426.9838859, 638626.4158906125),
        upper=(8933.639080182691, 39386155.74816249, 1249997.842782677),
    )

    def test_the_answer_is_the_raw_ground_truth(self):
        files = list(msn_trace(20, seed=5).file_metadata())
        query = self.QUERY
        idx = list(DEFAULT_SCHEMA.indices(query.attributes))
        log_mask = np.array(DEFAULT_SCHEMA.log_scale_mask())
        raw = np.array([[f.attributes[a] for a in query.attributes] for f in files])
        index = to_index_space(log_mask, idx, raw)
        lo, hi = (to_index_space(log_mask, idx, b) for b in (query.lower, query.upper))
        in_index_space = np.all((index >= lo) & (index <= hi), axis=1)
        # The edge is there: one file is inside the window only after log1p.
        assert int(in_index_space.sum()) == 1
        store = SmartStore.build(files, SmartStoreConfig(search_breadth=64))
        expected = sorted(f.file_id for f in ground_truth_range(files, query))
        assert [f.file_id for f in store.execute(query).files] == expected


class TestNoRecheckOfIndexedHits:
    def test_a_plain_store_calls_matches_ranges_zero_times(self, population, monkeypatch):
        store = _build(population)
        calls = []
        real = FileMetadata.matches_ranges

        def counted(self, *args):
            calls.append(self.file_id)
            return real(self, *args)

        monkeypatch.setattr(FileMetadata, "matches_ranges", counted)
        hits = 0
        for i, attrs in enumerate(_subsets()):
            for query in _anchored(population, attrs):
                hits += len(store.engine.range_query(query, home_unit=i % UNITS).files)
        assert hits > 0
        assert calls == []
