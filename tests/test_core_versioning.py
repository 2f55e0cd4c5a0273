"""Tests for versioning-based consistency: the one store of pending changes.

Each change is recorded once, in its group's version chain; the latest
change per file, the per-group sizes and ages, the version counts and the
scan charges are views of those chains.  The property test at the end holds
every view to a brute-force replay of the operations that built it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.metrics import Metrics
from repro.core.queries import ReadContext
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.core.versioning import VersionedChange, VersioningManager
from repro.ingest.pipeline import IngestPipeline
from repro.metadata.file_metadata import FileMetadata, make_file_id
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import make_files, pending_files


def f(path, **attrs):
    return FileMetadata(path=path, attributes={"size": 1.0, **attrs})


def insert(path, unit=0):
    return VersionedChange(kind="insert", file=f(path), unit_id=unit)


def delete(path, unit=0):
    return VersionedChange(kind="delete", file=f(path), unit_id=unit)


def versions(mgr, group_id):
    """Versions held by one group's chain (one header byte each)."""
    return mgr.space_bytes_per_group(record_bytes=0, header_bytes=1)[group_id]


class TestVersionChain:
    """One group's chain, read through the store's views."""

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            VersioningManager(version_ratio=0)

    def test_comprehensive_versioning_seals_every_change(self):
        mgr = VersioningManager(version_ratio=1)
        for i in range(5):
            mgr.record(0, insert(f"/f{i}"))
        assert versions(mgr, 0) == 5

    def test_aggregated_versioning_batches_changes(self):
        mgr = VersioningManager(version_ratio=4)
        for i in range(10):
            mgr.record(0, insert(f"/f{i}"))
        assert versions(mgr, 0) == 3          # 4 + 4 + 2 (open)
        assert mgr.stats()["entries"] == 10

    def test_higher_ratio_means_fewer_versions(self):
        counts = {}
        for ratio in (1, 5, 20):
            mgr = VersioningManager(version_ratio=ratio)
            for i in range(40):
                mgr.record(0, insert(f"/f{i}"))
            counts[ratio] = versions(mgr, 0)
        assert counts[1] > counts[5] > counts[20]

    def test_pending_files_nets_out_deletions(self):
        mgr = VersioningManager()
        mgr.record(0, insert("/a"))
        mgr.record(0, insert("/b"))
        mgr.record(0, delete("/a"))
        assert {p.path for p in pending_files(mgr, 0)} == {"/b"}
        assert mgr.latest(f("/a").file_id).kind == "delete"
        view = mgr.snapshot()
        assert set(view.live) == {f("/b").file_id}
        assert view.pending == {f("/a").file_id, f("/b").file_id}
        assert view.entries == 3

    def test_pending_files_reflects_latest_modification(self):
        mgr = VersioningManager()
        mgr.record(0, VersionedChange("insert", f("/a", size=1.0), 0))
        mgr.record(0, VersionedChange("modify", f("/a", size=99.0), 0))
        pending = pending_files(mgr, 0)
        assert len(pending) == 1
        assert pending[0].attributes["size"] == 99.0

    def test_rolling_backwards_order(self):
        """The newest change of a file is the one every view sees, across
        version boundaries; the chain itself keeps record order."""
        mgr = VersioningManager(version_ratio=2)
        for size in (1.0, 2.0, 3.0, 4.0):
            mgr.record(0, VersionedChange("modify", f("/a", size=size), 0))
        assert mgr.latest(f("/a").file_id).file.attributes["size"] == 4.0
        assert [p.attributes["size"] for p in pending_files(mgr, 0)] == [4.0]
        taken = mgr.clear_group(0)
        assert [c.file.attributes["size"] for c in taken] == [1.0, 2.0, 3.0, 4.0]

    def test_pending_files_charges_scans(self):
        mgr = VersioningManager()
        for i in range(7):
            mgr.record(0, insert(f"/f{i}"))
        mgr.record(0, delete("/f0"))
        metrics = Metrics()
        pending_files(mgr, 0, metrics)
        assert metrics.memory_records_scanned == 8   # every change, by length

    def test_size_bytes_grows_with_changes(self):
        mgr = VersioningManager()
        sizes = []
        for i in range(5):
            mgr.record(0, insert(f"/f{i}"))
            sizes.append(mgr.space_bytes_per_group()[0])
        assert sizes == sorted(sizes)
        assert sizes[0] > 0

    def test_comprehensive_versioning_uses_more_space_than_aggregated(self):
        a = VersioningManager(version_ratio=1)
        b = VersioningManager(version_ratio=10)
        for i in range(50):
            a.record(0, insert(f"/f{i}"))
            b.record(0, insert(f"/f{i}"))
        assert a.space_bytes_per_group()[0] > b.space_bytes_per_group()[0]

    def test_clear_returns_changes(self):
        mgr = VersioningManager()
        mgr.record(0, insert("/a"))
        mgr.record(0, insert("/b"))
        applied = mgr.clear_group(0)
        assert len(applied) == 2
        assert mgr.stats()["entries"] == 0
        assert pending_files(mgr, 0) == []
        assert len(mgr) == 0


class TestVersioningManager:
    def test_chain_created_on_demand(self):
        """A group's chain exists from its first change on and outlives
        clearing: Figure 14(a) averages over every group that recorded."""
        mgr = VersioningManager()
        assert mgr.space_bytes_per_group() == {}
        mgr.record(5, insert("/a"))
        mgr.record(6, insert("/b"))
        mgr.clear_group(5)
        assert mgr.space_bytes_per_group() == {5: 0, 6: 32 + 256}
        mgr.clear_all()
        assert mgr.space_bytes_per_group() == {5: 0, 6: 0}
        assert mgr.group_ids() == []

    def test_record_and_pending(self):
        mgr = VersioningManager()
        mgr.record(1, insert("/a"))
        mgr.record(2, insert("/b"))
        assert {p.path for p in pending_files(mgr, 1)} == {"/a"}
        assert pending_files(mgr, 99) == []
        assert mgr.stats()["entries"] == 2
        assert mgr.group_ids() == [1, 2]

    def test_space_per_group(self):
        mgr = VersioningManager()
        for i in range(10):
            mgr.record(1, insert(f"/f{i}"))
        mgr.record(2, insert("/x"))
        space = mgr.space_bytes_per_group()
        assert space[1] > space[2] > 0

    def test_clear_all(self):
        mgr = VersioningManager()
        mgr.record(1, insert("/a"))
        applied = mgr.clear_all()
        assert len(applied[1]) == 1
        assert mgr.stats()["entries"] == 0
        assert len(mgr) == 0

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            VersioningManager(version_ratio=0)

    def test_every_write_bumps_the_clock(self):
        mgr = VersioningManager()
        mgr.record(1, insert("/a"))
        mgr.clear_group(7)          # nothing there: no bump
        assert mgr.change_clock == 1
        mgr.clear_group(1)
        mgr.clear_all()
        mgr.touch()
        assert mgr.change_clock == 4


# ---------------------------------------------------------------------------- reads
def _new(i):
    return FileMetadata(
        path=f"/versioning/new-{i}.dat",
        attributes={
            "size": 5000.0 + i, "ctime": 2000.0, "mtime": 2100.0, "atime": 2200.0,
            "read_bytes": 3000.0, "write_bytes": 800.0, "access_count": 2.0, "owner": 1.0,
        },
    )


@pytest.fixture()
def store():
    return SmartStore.build(make_files(80), SmartStoreConfig(num_units=6, seed=1, search_breadth=64))


class TestVisibilityRules:
    """The chain view (no pipeline) and read-your-writes (a pipeline
    attached) over the same pending changes."""

    def test_chain_view_adds_records_and_waits_for_reconfiguration_to_delete(self, store):
        victim, added = store.files[0], _new(1)
        store.delete_file(victim)
        store.insert_file(added)
        assert store.execute(PointQuery(victim.filename)).found
        assert store.execute(PointQuery(added.filename)).found
        store.reconfigure()
        assert not store.execute(PointQuery(victim.filename)).found

    def test_chain_view_is_off_without_versioning(self):
        config = SmartStoreConfig(num_units=6, seed=1, search_breadth=64, versioning_enabled=False)
        store = SmartStore.build(make_files(80), config)
        added = _new(2)
        store.insert_file(added)
        assert not store.execute(PointQuery(added.filename)).found

    def test_read_your_writes_masks_pending_deletes(self, store):
        victim = store.files[0]
        store.delete_file(victim)
        IngestPipeline(store)
        assert not store.execute(PointQuery(victim.filename)).found


class TestReadsConsultTheStoreOnce:
    """A read takes one snapshot of the store, and none when it is empty;
    the view behind it is built once per change, however many reads share
    it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"snapshot": 0, "_build_view": 0}
        for name in calls:
            real = getattr(VersioningManager, name)

            def counted(self, *args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(VersioningManager, name, counted)
        return calls

    def _queries(self, store):
        anchor = store.files[3]
        return [
            PointQuery("no-such-file.dat"),
            RangeQuery(("size",), (0.0,), (1e12,)),
            TopKQuery(("size", "mtime"), (anchor.get("size"), anchor.get("mtime")), 8),
        ]

    @pytest.mark.parametrize("attached", [False, True])
    def test_an_empty_store_is_one_length_check(self, store, calls, attached):
        if attached:
            IngestPipeline(store)
        for query in self._queries(store):
            store.execute(query)
        assert calls == {"snapshot": 0, "_build_view": 0}

    @pytest.mark.parametrize("attached", [False, True])
    def test_pending_changes_are_one_snapshot_per_read(self, store, calls, attached):
        store.insert_file(_new(3))
        store.delete_file(store.files[5])
        if attached:
            IngestPipeline(store)
        queries = self._queries(store)
        for query in queries:
            store.execute(query)
        assert calls == {"snapshot": len(queries), "_build_view": 1}

    @pytest.mark.parametrize("attached", [False, True])
    def test_the_view_is_built_once_per_change(self, store, calls, attached):
        pipeline = IngestPipeline(store) if attached else None
        mutate = store.modify_file if pipeline is None else pipeline.modify
        store.insert_file(_new(5))
        queries = self._queries(store) * 3
        for query in queries:
            store.execute(query)
        assert calls == {"snapshot": len(queries), "_build_view": 1}
        mutate(store.files[7].with_updates(size=1.0))
        for query in queries:
            store.execute(query)
        assert calls == {"snapshot": 2 * len(queries), "_build_view": 2}

    @pytest.mark.parametrize("attached", [False, True])
    def test_the_chain_charge_is_the_chains_length(self, store, attached):
        plain = SmartStore.build(make_files(80), store.config)
        store.insert_file(_new(4))
        store.modify_file(_new(4))
        store.delete_file(store.files[5])
        if attached:
            IngestPipeline(store)
        ctx = ReadContext(home_unit=0)
        query = PointQuery("no-such-file.dat")
        got = store.execute(query, ctx).metrics
        base = plain.execute(query, ctx).metrics
        assert got.memory_records_scanned - base.memory_records_scanned == 3
        assert got.memory_index_accesses - base.memory_index_accesses == int(attached)


# ---------------------------------------------------------------------------- the views, replayed
GROUPS = (0, 1, 2, 3)
FIDS = range(6)

_op = st.one_of(
    st.tuples(st.just("record"), st.sampled_from(GROUPS), st.sampled_from(FIDS),
              st.sampled_from(("insert", "delete", "modify"))),
    st.tuples(st.just("clear_group"), st.sampled_from(GROUPS)),
    st.tuples(st.just("clear_all")),
)


def _replay(ratio, ops):
    """Brute force: keep every surviving change, seal versions the way a
    chain of version objects did (a version opens on the first change after
    a seal and seals after ``ratio`` changes; clearing starts over), and
    derive each view by walking everything."""
    alive = []                      # (tick, gid, change)
    seal = {}                       # gid -> [versions, changes since seal]
    ticks = 0
    store = VersioningManager(ratio)
    for op in ops:
        if op[0] == "record":
            _, gid, fid, kind = op
            pending = [a for a in alive if a[2].file.path == f"/f{fid}"]
            if pending:             # stage_mutation keeps a file in one chain
                gid = pending[-1][1]
            ticks += 1
            change = VersionedChange(kind, FileMetadata(path=f"/f{fid}", attributes={"size": float(ticks)}), gid)
            alive.append((ticks, gid, change))
            versions_open = seal.setdefault(gid, [0, 0])
            if versions_open[1] == 0:
                versions_open[0] += 1
            versions_open[1] = (versions_open[1] + 1) % ratio
            store.record(gid, change)
        elif op[0] == "clear_group":
            gid = op[1]
            taken = [a[2] for a in alive if a[1] == gid]
            alive = [a for a in alive if a[1] != gid]
            if gid in seal:
                seal[gid] = [0, 0]
            assert store.clear_group(gid) == taken
        else:
            taken = {gid: [a[2] for a in alive if a[1] == gid] for gid in seal}
            alive = []
            seal = {gid: [0, 0] for gid in seal}
            assert store.clear_all() == taken
    return store, alive, seal, ticks


@settings(max_examples=120, deadline=None)
@given(ratio=st.integers(1, 5), ops=st.lists(_op, max_size=60))
def test_every_view_is_a_replay_of_the_chains(ratio, ops):
    store, alive, seal, ticks = _replay(ratio, ops)

    space = {
        gid: 32 * versions + 256 * sum(1 for a in alive if a[1] == gid)
        for gid, (versions, _) in seal.items()
    }
    assert store.space_bytes_per_group() == space
    assert store.stats()["entries"] == len(alive)

    latest = {}
    for tick, gid, change in alive:
        latest[change.file.file_id] = (tick, gid, change)
    assert len(store) == len(latest)
    for fid in map(make_file_id, (f"/f{i}" for i in FIDS)):
        expected = latest.get(fid)
        assert store.latest(fid) == (None if expected is None else expected[2])
    view = store.snapshot()
    assert view.live == {fid: c.file for fid, (_, _, c) in latest.items() if c.kind != "delete"}
    assert view.pending == set(latest)
    assert view.entries == len(alive)
    units = [c.unit_id for _, _, c in latest.values()]
    assert view.per_unit == {unit: units.count(unit) for unit in units}
    assert store.snapshot() is view  # nothing changed since

    sizes, oldest = {}, {}
    for tick, gid, _ in latest.values():
        sizes[gid] = sizes.get(gid, 0) + 1
        oldest[gid] = min(oldest.get(gid, tick), tick)
    assert store.group_backlog() == {
        gid: (n, ticks - oldest[gid] + 1) for gid, n in sizes.items()
    }
    for gid in GROUPS:
        assert pending_files(store, gid) == [
            c.file for _, g, c in sorted(latest.values()) if g == gid and c.kind != "delete"
        ]
    assert store.group_ids() == sorted({a[1] for a in alive})
