"""The write path in batches equals the write path one step at a time.

Four steps of a mutation's life are computed in one batch each — routing a
new file to its group (one similarity kernel over the stacked replicas),
the compaction policy (one locked read of every group's backlog), the
drain (one patch per unit), and the publish's remainder encode (once per
distinct flat remainder).  Each is held here to the step-at-a-time code it
replaced, kept as an oracle in ``tests/helpers.py`` or below: similarities
by ``float.hex``, unit state field by field (float64 bit for bit), and the
next publish's segment files byte for byte.
"""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DeploymentSpec, connect
from repro.api.spec import TOPOLOGIES
from repro.cluster.metrics import Metrics
from repro.core.offline import OfflineRouter
from repro.core.semantic_rtree import SemanticNode, SummaryTables
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.core.versioning import VersionedChange, VersioningManager
from repro.ingest.compactor import CompactionPolicy, Compactor
from repro.ingest.pipeline import IngestPipeline
from repro.metadata.file_metadata import FileMetadata
from repro.storage import SegmentStore, StorageConfig, write_segment
from repro.workloads.types import PointQuery
from repro.storage import segment as segment_module

from helpers import apply_changes_one_by_one, make_files, route_by_loop, unit_of

CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)


# ---------------------------------------------------------------------------- routing
class _Groups:
    """A tree stand-in: the first-level groups a router snapshots."""

    def __init__(self, groups):
        self.groups = groups

    def first_level_groups(self):
        return list(self.groups)


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _replica_sets(draw):
    width = draw(st.integers(1, 6), label="query width")
    vectors = []
    for _ in range(draw(st.integers(1, 12), label="replicas")):
        kind = draw(st.sampled_from(("vector", "vector", "longer", "none", "zero", "tie")))
        if kind == "none" or (kind == "tie" and not vectors):
            vectors.append(None)  # snapshotted as the zeros(1) placeholder
        elif kind == "zero":
            vectors.append(np.zeros(draw(st.integers(1, width + 2))))
        elif kind == "tie":
            vectors.append(draw(st.sampled_from([v for v in vectors])))
        else:
            extra = draw(st.integers(1, 3)) if kind == "longer" else 0
            size = width + extra
            vectors.append(np.asarray(draw(st.lists(_finite, min_size=size, max_size=size))))
    query = np.asarray(draw(st.lists(_finite, min_size=width, max_size=width)))
    if draw(st.booleans(), label="zero query"):
        query = np.zeros(width)
    return vectors, query


def _router(vectors):
    groups = []
    for i, vector in enumerate(vectors):
        node = SemanticNode(100 + i, 1, semantic_vector=vector)
        node.hosted_on = i
        groups.append(node)
    return OfflineRouter(_Groups(groups))


class TestRoutingKernel:
    @settings(max_examples=300, deadline=None)
    @given(case=_replica_sets())
    def test_the_kernel_is_the_loop(self, case):
        vectors, query = case
        router = _router(vectors)
        got, want = Metrics(), Metrics()
        gid, sim = router.target_group_for_vector(query, got)
        oracle_gid, oracle_sim = route_by_loop(router, query, want)
        assert (gid, float(sim).hex()) == (oracle_gid, float(oracle_sim).hex())
        assert got.as_dict() == want.as_dict()
        assert got.memory_index_accesses == len(vectors)

    def test_exact_ties_go_to_the_first_replica(self):
        v = np.array([0.3, -1.25, 2.0])
        router = _router([np.array([-1.0, 0.0, 0.0]), v, v.copy(), v])
        assert router.target_group_for_vector(v) == route_by_loop(router, v)
        assert router.target_group_for_vector(v)[0] == 101

    def test_a_zero_norm_replica_scores_zero_and_a_zero_query_takes_the_first(self):
        router = _router([None, np.array([-1.0, -1.0]), np.zeros(5)])
        # Every real similarity is negative: the placeholder's 0.0 wins.
        assert router.target_group_for_vector(np.array([1.0, 1.0])) == (100, 0.0)
        assert router.target_group_for_vector(np.zeros(2)) == (100, 0.0)
        assert route_by_loop(router, np.array([1.0, 1.0])) == (100, 0.0)

    def test_a_one_wide_query_is_a_product_as_in_the_loop(self):
        # ``np.dot`` of two one-element vectors is their product (-0.0 here),
        # not a sum that starts at +0.0.
        router = _router([np.array([0.0, 1.0]), None])
        got = router.target_group_for_vector(np.array([-1.0]))
        want = route_by_loop(router, np.array([-1.0]))
        assert (got[0], got[1].hex()) == (want[0], want[1].hex()) == (100, (-0.0).hex())

    def test_a_query_longer_than_the_replicas_fails_as_the_loop_does(self):
        router = _router([np.array([1.0, 2.0]), None])
        with pytest.raises(ValueError):
            route_by_loop(router, np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            router.target_group_for_vector(np.array([1.0, 1.0, 1.0]))

    def test_a_restacked_replica_routes_like_the_loop(self):
        store = SmartStore.build(make_files(120, seed=4), CONFIG)
        router = store.offline_router
        probes = [store.file_semantic_vector(f) for f in make_files(40, seed=9)]
        for group in store.tree.first_level_groups():
            group.semantic_vector = group.semantic_vector[::-1].copy()
            router.refresh_group(group)
            for sem in probes:
                assert router.target_group_for_vector(sem) == route_by_loop(router, sem)


# ---------------------------------------------------------------------------- policy
def _old_rule(policy, sizes, ages):
    """``Compactor.due_groups`` as it read one group at a time."""
    if not sizes:
        return []
    total = sum(sizes.values())
    if total >= policy.max_staged_total:
        return sorted(sizes.keys())
    mean = total / len(sizes)
    due = []
    for gid, n in sizes.items():
        if n >= policy.max_staged_per_group:
            due.append(gid)
        elif policy.skew_factor and len(sizes) > 1 and n > policy.skew_factor * mean:
            due.append(gid)
        elif ages[gid] >= policy.max_age:
            due.append(gid)
    return sorted(due)


def _compactor(versioning, policy):
    """A compactor over a bare version store (the policy reads nothing else)."""
    return Compactor(SimpleNamespace(store=SimpleNamespace(versioning=versioning)), policy)


class TestPolicyInOnePass:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("record"), st.integers(0, 4), st.integers(0, 11)),
                st.tuples(st.just("clear"), st.integers(0, 4)),
            ),
            max_size=60,
        ),
        per_group=st.integers(1, 64),
        total=st.integers(1, 100),
        max_age=st.integers(1, 40),
        skew=st.sampled_from((0.0, 0.0, 1.0, 1.5, 4.0)),
    )
    def test_due_groups_is_the_per_group_rule(self, ops, per_group, total, max_age, skew):
        policy = CompactionPolicy(
            max_staged_per_group=per_group, max_staged_total=total, max_age=max_age,
            skew_factor=skew,
        )
        versioning = VersioningManager()
        compactor = _compactor(versioning, policy)
        latest = {}  # file id -> (group, tick) of its latest change
        ticks = 0
        for op in ops:
            if op[0] == "record":
                _, gid, i = op
                f = FileMetadata(path=f"/p/f{i}", attributes={"size": 1.0})
                gid = latest.get(f.file_id, (gid, 0))[0]  # one file, one chain
                ticks += 1
                versioning.record(gid, VersionedChange("insert", f, 0))
                latest[f.file_id] = (gid, ticks)
            else:
                versioning.clear_group(op[1])
                latest = {fid: v for fid, v in latest.items() if v[0] != op[1]}
            sizes, oldest = {}, {}
            for gid, tick in latest.values():
                sizes[gid] = sizes.get(gid, 0) + 1
                oldest[gid] = min(oldest.get(gid, tick), tick)
            ages = {gid: ticks - tick + 1 for gid, tick in oldest.items()}
            assert compactor.due_groups() == _old_rule(policy, sizes, ages)

    def test_a_group_exactly_max_age_old_is_due(self):
        versioning = VersioningManager()
        policy = CompactionPolicy(
            max_staged_per_group=100, max_staged_total=100, max_age=5, skew_factor=0.0
        )
        compactor = _compactor(versioning, policy)
        versioning.record(0, VersionedChange("insert", make_files(1)[0], 0))
        for f in make_files(5, seed=1)[1:]:
            versioning.record(1, VersionedChange("insert", f, 0))
        assert versioning.group_backlog() == {0: (1, 5), 1: (4, 4)}
        assert compactor.due_groups() == _old_rule(policy, {0: 1, 1: 4}, {0: 5, 1: 4}) == [0]


# ---------------------------------------------------------------------------- drain
def _unit_state(store):
    """Everything a drain writes, float64 as bytes, in a comparable form."""
    state = {
        "locations": list(store._file_locations.items()),
        "pending": (store._pending_insertions, store._pending_deletions),
    }
    for unit_id in store.cluster.unit_ids():
        server = store.cluster.server(unit_id)
        rows = server.rows
        leaf = store.tree.leaves[unit_id]
        entry = {
            "block": type(rows).__name__,
            "count": rows.count,
            "ids": rows.ids.tobytes(),
            "raw": np.ascontiguousarray(rows.raw.T).tobytes(),
            "bloom": (server.bloom.bits.tobytes(), server.bloom.count),
            "leaf": (
                leaf.file_count,
                None if leaf.mbr is None else (leaf.mbr.lower.tobytes(), leaf.mbr.upper.tobytes()),
                leaf.bloom.bits.tobytes(),
                leaf.bloom.count,
            ),
        }
        if rows.segment is None:  # an in-memory block: its Python state too
            entry["records"] = list(rows._records)
            entry["by_name"] = rows._by_name
            entry["norm"] = rows.norm.tobytes()
            entry["attribute_major"] = (
                rows.raw.T.flags.c_contiguous and rows.norm.T.flags.c_contiguous
            )
        state[unit_id] = entry
    for group in store.tree.first_level_groups():
        state[("group", group.node_id)] = (
            group.file_count,
            None if group.mbr is None else (group.mbr.lower.tobytes(), group.mbr.upper.tobytes()),
            group.bloom.bits.tobytes(),
        )
    return state


_pool = make_files(60, seed=21)
_fresh = [
    FileMetadata(
        path=f"/data/new/n{i:03d}.dat", attributes=dict(f.attributes, size=f.attributes["size"] + i)
    )
    for i, f in enumerate(make_files(12, seed=22))
]


@st.composite
def _histories(draw):
    """An ordered change list over applied files, new files and absent ids,
    addressed to any unit (a delete may name a unit that does not hold its
    file: the drain chases it)."""
    changes = []
    for _ in range(draw(st.integers(1, 40), label="changes")):
        kind = draw(st.sampled_from(("insert", "modify", "delete", "delete")), label="kind")
        source = draw(st.sampled_from(("applied", "new", "absent")), label="source")
        if source == "applied":
            f = draw(st.sampled_from(_pool))
        elif source == "new":
            f = draw(st.sampled_from(_fresh))
        else:
            path = f"/absent/a{draw(st.integers(0, 3))}.dat"
            f = FileMetadata(path=path, attributes=dict(_pool[0].attributes))
        if kind != "delete":
            f = f.with_updates(mtime=f.attributes["mtime"] + draw(st.integers(0, 5)))
        changes.append(VersionedChange(kind, f, draw(st.integers(0, 5), label="unit")))
    return changes


def _twins(tmp_path, cold):
    """Two identical stores; ``cold`` publishes both, so every unit starts
    segment-bound and the drain pins what it touches."""
    pipelines = []
    for side in ("batched", "sequential"):
        store = SmartStore.build(_pool, CONFIG)
        pipeline = IngestPipeline(store)
        if cold:
            pipeline.attach_storage(SegmentStore(tmp_path / side))
            pipeline.checkpoint()
        pipelines.append(pipeline)
    return pipelines


def _segment_digests(pipeline):
    root = pipeline.storage.segments_dir
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.glob("*.seg"))}


class TestTheDrainIsOnePatchPerUnit:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(changes=_histories(), cold=st.booleans())
    def test_a_batched_drain_is_the_sequential_one(self, tmp_path_factory, changes, cold):
        batched, sequential = _twins(tmp_path_factory.mktemp("twins"), cold)
        told = {"batched": [], "sequential": []}
        for name, pipeline in (("batched", batched), ("sequential", sequential)):
            inner = pipeline.store.on_units_touched
            pipeline.store.on_units_touched = (
                lambda units, ids, log=told[name], inner=inner: (
                    log.append((list(units), list(ids))),
                    inner is not None and inner(units, ids),
                )
            )
        assert batched.store.apply_changes(changes) == apply_changes_one_by_one(
            sequential.store, changes
        )
        assert told["batched"] == told["sequential"]
        assert _unit_state(batched.store) == _unit_state(sequential.store)
        if cold:
            assert batched.storage.stats()["pins"] == sequential.storage.stats()["pins"]
            batched.checkpoint(), sequential.checkpoint()
            assert _segment_digests(batched) == _segment_digests(sequential)
            assert _unit_state(batched.store) == _unit_state(sequential.store)

    @pytest.mark.parametrize("cold", [False, True])
    def test_staged_histories_drain_alike(self, tmp_path, cold):
        """Histories the write path stages: insert → modify → delete of one
        file in one chain, re-inserting a pending-deleted file, a delete of
        a file never seen (not recorded) — drained by the compactor on one
        side and the per-change loop on the other."""
        batched, sequential = _twins(tmp_path, cold)
        a, b, c = _fresh[:3]
        applied = _pool[5]
        history = [
            ("insert", a), ("modify", a.with_updates(size=7.0)), ("delete", a),
            ("insert", b), ("modify", b.with_updates(size=9.0)),
            ("delete", applied), ("insert", applied.with_updates(size=3.0)),
            ("delete", c), ("modify", _pool[9].with_updates(atime=1.0)),
            ("insert", c), ("delete", _pool[9]), ("insert", _pool[9]),
        ]
        for pipeline in (batched, sequential):
            for kind, f in history:
                getattr(pipeline, kind)(f)
        assert batched.store.versioning.stats() == sequential.store.versioning.stats()
        batched.compactor.drain()
        chains = sequential.store.versioning.clear_all()
        for gid in sorted(chains):  # the compactor drains in group id order
            if chains[gid]:
                apply_changes_one_by_one(sequential.store, chains[gid])
        assert _unit_state(batched.store) == _unit_state(sequential.store)
        if cold:
            batched.checkpoint(), sequential.checkpoint()
            assert _segment_digests(batched) == _segment_digests(sequential)

    def test_a_drain_rebuilds_no_summary_table(self, monkeypatch):
        store = SmartStore.build(make_files(200, seed=5), CONFIG)
        pipeline = IngestPipeline(store)
        for f in make_files(60, seed=6):
            pipeline.insert(f.with_updates(size=f.attributes["size"] + 1.0))
        for f in store.files[:20]:
            pipeline.delete(f)
        store.tree.summaries()
        built = []
        original = SummaryTables.__init__
        monkeypatch.setattr(
            SummaryTables, "__init__", lambda self, *a: built.append(1) or original(self, *a)
        )
        assert pipeline.compactor.drain() == 80
        assert built == []  # every group refreshed, no table built
        store.tree.first_level_groups()
        store.tree.first_level_groups()
        assert built == [1]  # the next read builds them, once


# ---------------------------------------------------------------------------- publish
class TestEachFlatRemainderIsEncodedOnce:
    def test_equal_values_of_other_types_keep_their_own_bytes(self, tmp_path, monkeypatch):
        base = make_files(1)[0]
        extras = [
            {"project": 1}, {"project": True}, {"project": 1.0}, {"project": 0.0},
            {"project": -0.0}, {"project": None}, {"project": "1"}, {1: "x"}, {True: "x"},
            {"project": 1}, {"project": True}, {"project": [1]}, {},
        ]
        records = [
            FileMetadata(path=f"/r/{i}.dat", attributes=dict(base.attributes), extra=extra)
            for i, extra in enumerate(extras)
        ]
        records.append(
            FileMetadata(
                path="/r/wide.dat",
                attributes=dict(base.attributes, label=2.0),
                extra={"project": 1},
            )
        )
        encoded = []
        original = segment_module._encode_json
        monkeypatch.setattr(
            segment_module, "_encode_json", lambda value: encoded.append(1) or original(value)
        )
        unit = unit_of(records)
        info = write_segment(tmp_path / "s.seg", 0, [(0, unit)], unit.schema)
        segment = segment_module.Segment.open(tmp_path / "s.seg", expected_crc=info.data_crc)
        try:
            offsets = segment.rec_offsets(0, len(records))
            lengths = segment.path_lengths(0, len(records))
            columns = segment.header["columns"]
            for row, f in enumerate(records):
                blob = segment.rec_bytes(int(offsets[row]), int(offsets[row + 1]))
                rest = [v for k, v in f.attributes.items() if k not in columns]
                want = b"" if not rest and not f.extra else json.dumps(
                    [f.extra, *rest], separators=(",", ":")
                ).encode("ascii")
                assert blob[int(lengths[row]):] == want
            # (JSON keys are strings: {1: "x"} and {True: "x"} come back as
            # {"1": "x"} and {"true": "x"}, their bytes checked above.)
            string_keyed = [
                row for row, f in enumerate(records) if all(type(k) is str for k in f.extra)
            ]
            assert segment.records(string_keyed) == [records[row] for row in string_keyed]
        finally:
            segment.close()
        # Two repeats ({"project": 1}, {"project": True}) reuse their bytes;
        # the list value and the wide record are encoded per row.
        assert len(encoded) == len(records) - 1 - 2


# ---------------------------------------------------------------------------- checkpoint
class TestACheckpointDrainsUnderTheStateLock:
    @pytest.mark.parametrize("topology", list(TOPOLOGIES))
    def test_rows_move_only_with_reads_excluded(self, tmp_path, monkeypatch, topology):
        """Every ``apply_changes`` a checkpoint runs holds the service's
        state lock (write side), so no scan sees a unit mid-patch; every
        publish runs without it, so its writes and fsyncs stall no read."""
        files = make_files(90, seed=8)
        spec = DeploymentSpec(
            topology=topology,
            store=SmartStoreConfig(num_units=4, seed=0, search_breadth=64),
            shards=2,
            replicas=1,
            wal_dir=None if topology == "plain" else str(tmp_path / "wal"),
            storage=StorageConfig(root=str(tmp_path / "snap")),
        )
        with connect(spec, files[:80]) as client:
            lock = client.service._state_lock
            for f in files[80:]:
                client.insert(f)
            client.modify(files[1].with_updates(size=5.0))
            client.delete(files[2])
            seen = {"apply": [], "publish": []}
            apply, publish = SmartStore.apply_changes, SegmentStore.publish_snapshot
            monkeypatch.setattr(
                SmartStore,
                "apply_changes",
                lambda store, changes: seen["apply"].append(lock._writer_active)
                or apply(store, changes),
            )
            monkeypatch.setattr(
                SegmentStore,
                "publish_snapshot",
                lambda storage, store, **kw: seen["publish"].append(lock._writer_active)
                or publish(storage, store, **kw),
            )
            client.checkpoint()
            assert seen["apply"] and all(seen["apply"])
            assert seen["publish"] and not any(seen["publish"])
            assert not lock._writer_active
            monkeypatch.undo()
            got = client.execute(PointQuery(files[85].filename)).result.files
            assert [f.path for f in got] == [files[85].path]
