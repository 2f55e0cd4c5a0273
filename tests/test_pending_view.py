"""Staged changes cost a read only what it touches (docs/INVARIANTS.md §18).

A read takes the pending changes as one shared :class:`PendingView`, built
once per change clock.  A top-k asks each unit for ``k`` plus the unit's own
pending count and drops the pending ids from that, instead of masking every
row of every unit; a range decides a staged record's membership with the
leaf scans' own compare.  Nothing a read returns or charges may notice:

* every pending change of an applied file names the unit that holds its
  indexed copy (the over-fetch relies on it);
* every top-k and range answer, distance and ``Metrics`` counter equals
  the reference walks of ``tests/test_topk_walk.py`` /
  ``tests/test_range_scan.py``, which mask every unit with one global
  sorted mask before its cut;
* a staged record is in a window exactly when its compacted copy is —
  infinities and values on a bound included; a NaN value is refused at
  the write path, and its neighbours stay visible.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DeploymentSpec, connect
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.metadata.file_metadata import FileMetadata
from repro.shard.router import ShardRouter
from repro.storage import StorageConfig
from repro.workloads.types import RangeQuery, TopKQuery

from helpers import make_files, make_twins
from test_range_scan import fingerprint as range_fingerprint
from test_range_scan import reference_range
from test_topk_walk import fingerprint as topk_fingerprint
from test_topk_walk import reference_topk

CONFIG = SmartStoreConfig(num_units=6, seed=1, search_breadth=64)
POPULATION = make_files(60, seed=3) + make_twins(4)
#: Files the histories mutate, and the anchors reads are taken around.
TARGETS = POPULATION[:12] + POPULATION[-2:]
ANCHORS = (POPULATION[1], POPULATION[6], POPULATION[-1])


def _spec(topology, root):
    extra = {"shards": 2, "replicas": 1} if topology == "sharded_replicated" else {}
    return DeploymentSpec(
        topology=topology,
        store=CONFIG,
        wal_dir=str(root / "wal"),
        storage=StorageConfig(root=str(root / "snap")),
        **extra,
    )


def _stores(client):
    """Every store of the deployment: the one store, or every member of
    every shard's replica group."""
    store = client.store
    if isinstance(store, SmartStore):
        return [store]
    return [member.store for group in store.shards for member in group.members]


def _compactor(client):
    store = client.store
    return store.compactor if isinstance(store, ShardRouter) else client.service.pipeline.compactor


def _scaled(f, factor):
    attrs = {name: value * factor for name, value in f.attributes.items()}
    return FileMetadata(path=f.path, file_id=f.file_id, attributes=attrs)


def _new(i):
    return FileMetadata(path=f"/staged/new{i}.dat", attributes=dict(TARGETS[i].attributes))


# ---------------------------------------------------------------------------- histories
_target = st.integers(0, len(TARGETS) - 1)
_op = st.one_of(
    st.tuples(st.just("insert"), _target),
    # 3.0 moves a file out of every window around its old place.
    st.tuples(st.just("modify"), _target, st.sampled_from((0.99, 1.02, 3.0))),
    st.tuples(st.just("modify_new"), _target, st.sampled_from((0.98, 3.0))),
    st.tuples(st.just("delete"), _target),
    st.tuples(st.just("delete_new"), _target),
    # The original record again: a re-insert when it is pending-deleted.
    st.tuples(st.just("reinsert"), _target),
    st.tuples(st.sampled_from(("run_once", "drain", "checkpoint"))),
)


def _apply(client, op):
    kind = op[0]
    if kind == "insert":
        client.insert(_new(op[1]))
    elif kind == "modify":
        client.modify(_scaled(TARGETS[op[1]], op[2]))
    elif kind == "modify_new":
        client.modify(_scaled(_new(op[1]), op[2]))
    elif kind == "delete":
        client.delete(TARGETS[op[1]])
    elif kind == "delete_new":
        client.delete(_new(op[1]))
    elif kind == "reinsert":
        client.insert(TARGETS[op[1]])
    elif kind == "checkpoint":
        client.checkpoint()
    else:
        getattr(_compactor(client), kind)()


def _queries(step):
    for i, anchor in enumerate(ANCHORS):
        attrs = ("size", "mtime", "owner")[: 1 + (step + i) % 3]
        yield TopKQuery(attrs, tuple(anchor.get(a) for a in attrs), (1, 5, 12)[(step + i) % 3])
    anchor = ANCHORS[step % len(ANCHORS)]
    yield RangeQuery(
        ("size", "mtime"),
        (anchor.get("size") * 0.7, anchor.get("mtime") - 30.0),
        (anchor.get("size") * 1.3, anchor.get("mtime") + 30.0),
    )


def check_units_named(store):
    """Every pending change of an applied file names the one unit holding
    its indexed copy, and the view counts it there."""
    holders = {}
    for server in store.cluster:
        for file_id in server.file_ids().tolist():
            holders.setdefault(file_id, []).append(server.unit_id)
    view = store.versioning.snapshot()
    counted = {}
    for file_id in view.pending:
        unit = store.versioning.latest(file_id).unit_id
        counted[unit] = counted.get(unit, 0) + 1
        assert holders.get(file_id, [unit]) == [unit], file_id
    assert view.per_unit == counted


def check_reads(store, step):
    engine = store.engine
    for i, query in enumerate(_queries(step)):
        home = (step + i) % store.cluster.num_units
        if isinstance(query, TopKQuery):
            got = engine.topk_query(query, home_unit=home)
            want = reference_topk(engine, query, home_unit=home)
            assert topk_fingerprint(got) == topk_fingerprint(want), (step, query)
        else:
            got = engine.range_query(query, home_unit=home)
            want = reference_range(engine, query, home_unit=home)
            assert range_fingerprint(got) == range_fingerprint(want), (step, query)


@pytest.mark.parametrize("topology", ["durable", "sharded_replicated"])
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=st.lists(_op, min_size=1, max_size=14))
def test_histories_read_as_the_reference_walks(tmp_path_factory, topology, ops):
    root = tmp_path_factory.mktemp(topology)
    with connect(_spec(topology, root), POPULATION) as client:
        for step, op in enumerate(ops):
            _apply(client, op)
            for store in _stores(client):
                check_units_named(store)
                check_reads(store, step)


# ---------------------------------------------------------------------------- window edges
LOW, HIGH = 1500.0, 3500.0
EDGES = {
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
    "on low": LOW,
    "on high": HIGH,
    "below low": math.nextafter(LOW, -math.inf),
    "above high": math.nextafter(HIGH, math.inf),
}
#: Range bounds must be finite: the widest window holds every finite value.
WINDOWS = [((LOW,), (HIGH,)), ((0.0,), (1e18,)), ((-1e308,), (1e308,))]


def _edge(label, mtime):
    attrs = dict(POPULATION[5].attributes, mtime=mtime)
    return FileMetadata(path=f"/edges/{label.replace(' ', '-')}.dat", attributes=attrs)


def _windows_holding(client, file):
    """Per window of ``WINDOWS``, whether its range answer holds ``file``."""
    answers = [client.execute(RangeQuery(("mtime",), lo, hi)).result for lo, hi in WINDOWS]
    return [any(f.file_id == file.file_id for f in answer.files) for answer in answers]


@pytest.mark.parametrize("topology", ["durable", "sharded"])
def test_a_staged_record_is_in_a_window_exactly_when_its_compacted_copy_is(tmp_path, topology):
    """One deployment per edge value.  A NaN attribute would poison the
    MBRs and shard summaries it is folded into and hide its neighbours,
    so it is refused: nothing staged, and the widest window still holds
    the whole population."""
    inside = {}
    for label, value in EDGES.items():
        spec = DeploymentSpec(
            topology=topology,
            store=CONFIG,
            wal_dir=str(tmp_path / label.replace(" ", "-")),
            **({"shards": 2} if topology == "sharded" else {}),
        )
        edge = _edge(label, value)
        with connect(spec, POPULATION) as client:
            if label == "nan":
                with pytest.raises(ValueError, match="has NaN attribute"):
                    client.insert(edge)
                assert _windows_holding(client, edge) == [False, False, False]
                whole = client.execute(RangeQuery(("mtime",), *WINDOWS[-1])).result
                assert len(whole.files) == len(POPULATION)
                continue
            client.insert(edge)
            inside[label] = _windows_holding(client, edge)
            _compactor(client).drain()
            assert _windows_holding(client, edge) == inside[label], label
    finite = [False, True, True]
    assert inside == {
        "+inf": [False, False, False],
        "-inf": [False, False, False],
        "on low": [True, True, True],
        "on high": [True, True, True],
        "below low": finite,
        "above high": finite,
    }
