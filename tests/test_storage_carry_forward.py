"""A checkpoint encodes only the rows that changed (docs/INVARIANTS.md §12).

``SegmentStore._publish`` copies every unchanged row out of the previous
generation's segments and JSON-encodes only the rows ``apply_changes``
reported; ``StorageServer`` patches its row-aligned arrays in place.  The
contract these tests pin: *what is written does not depend on how it was
produced* — every published segment is byte-for-byte ``write_segment``
over the live records with nothing to carry, across splits, unit moves,
restarts and quarantine — and the saving is counted, never timed.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DeploymentSpec, connect
from repro.cluster.node import StorageServer
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.core.versioning import VersionedChange
from repro.ingest.compactor import CompactionPolicy
from repro.ingest.pipeline import IngestPipeline, recover_from_storage
from repro.ingest.wal import WriteAheadLog
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.obs import MetricsRegistry, Tracer, get_registry, set_registry, set_tracer
from repro.persistence.jsonl import file_to_dict
from repro.storage import Segment, SegmentStore, StorageConfig, write_segment
from repro.storage.segment import CarryIndex

from helpers import make_files, unit_of

CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)
#: Low enough that a few dozen inserts into one group split it.
SPLITTING = CompactionPolicy(max_staged_per_group=8, hot_group_factor=1.5)
BASE = 72

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------- helpers
def durable(root, files, policy=SPLITTING):
    """A fresh store behind a WAL and a segment store under ``root``."""
    store = SmartStore.build(files, CONFIG)
    pipeline = IngestPipeline(store, WriteAheadLog(root / "store.wal"), policy=policy)
    pipeline.attach_storage(SegmentStore(root / "snap"))
    return pipeline


def near_clones(template, n, prefix):
    """Records correlated with ``template``: routing sends them to its group."""
    out = []
    for i in range(n):
        attrs = dict(template.attributes)
        attrs["size"] *= 1.0 + 0.01 * i
        attrs["mtime"] += i
        out.append(FileMetadata(path=f"/data/{prefix}/f{i:04d}.dat", attributes=attrs))
    return out


def multi_unit_template(store, files):
    """A record of a first-level group that has >= 2 units (only those split)."""
    for group in store.tree.first_level_groups():
        units = set(group.descendant_unit_ids())
        if len(group.children) >= 2:
            return next(f for f in files if store._file_locations[f.file_id] in units)
    raise AssertionError("no multi-unit first-level group in this build")


def assert_published_is_a_full_encode(pipeline, scratch):
    """Every segment the manifest names equals ``write_segment`` over the
    live records with nothing carried, and decodes to each unit's
    ``files`` in order.  (Reads ``server.files``: materialises cold units.)"""
    store, storage = pipeline.store, pipeline.storage
    manifest = storage.manifest
    assert set(manifest["segments"]) == {
        str(g.node_id) for g in store.tree.first_level_groups()
    }
    for gid, entry in manifest["segments"].items():
        units = [
            (int(uid), list(store.cluster.server(int(uid)).files))
            for uid in entry["units"]
        ]
        info = write_segment(
            scratch / "reference.seg",
            int(gid),
            [(uid, unit_of(files, uid)) for uid, files in units],
            store.schema,
        )
        assert info.rows_carried == 0
        path = storage.segments_dir / entry["name"]
        assert path.read_bytes() == (scratch / "reference.seg").read_bytes(), entry["name"]
        assert entry["data_crc"] == info.data_crc
        segment = Segment.open(path, expected_crc=entry["data_crc"])
        try:
            for uid, files in units:
                start, stop = segment.units[uid]
                decoded = segment.records(range(start, stop))
                assert [file_to_dict(f) for f in decoded] == [
                    file_to_dict(f) for f in files
                ]
        finally:
            segment.close()


class Stream:
    """Interprets drawn ``(kind, pick)`` pairs against a pipeline, tracking
    which records are live / deleted so every op is a meaningful one."""

    KINDS = ("insert", "attributes", "extra", "delete", "reinsert", "duplicate", "move")

    def __init__(self, pipeline, files, spare):
        self.pipeline = pipeline
        self.live = {f.file_id: f for f in files}
        self.dead = []
        self.spare = list(spare)
        self.step = 0

    def _pick(self, pool, pick):
        return pool[pick % len(pool)] if pool else None

    def apply(self, kind, pick):
        self.step += 1
        pipeline = self.pipeline
        target = self._pick(sorted(self.live.values(), key=lambda f: f.path), pick)
        if kind == "insert" and self.spare:
            new = self.spare.pop()
            pipeline.insert(new)
            self.live[new.file_id] = new
        elif kind == "reinsert" and self.dead:
            back = self.dead.pop(pick % len(self.dead))
            pipeline.insert(back)
            self.live[back.file_id] = back
        elif target is None:
            return
        elif kind == "attributes":
            new = target.with_updates(size=target.get("size") * 1.5 + self.step)
            pipeline.modify(new)
            self.live[new.file_id] = new
        elif kind == "extra":
            new = FileMetadata(
                path=target.path,
                attributes=dict(target.attributes),
                extra={"touched": self.step, "note": "é non-ascii"},
            )
            pipeline.modify(new)
            self.live[new.file_id] = new
        elif kind == "delete":
            pipeline.delete(target)
            self.dead.append(self.live.pop(target.file_id))
        elif kind == "duplicate":
            # An insert of a record that is already applied replaces it.
            new = target.with_updates(access_count=float(self.step))
            pipeline.insert(new)
            self.live[new.file_id] = new
        elif kind == "move":
            # A duplicate insert landing on another unit than the one that
            # holds the record: apply_changes moves it (remove + add).
            with pipeline.lock:
                pipeline.compactor.drain()
                store = pipeline.store
                here = store._file_locations.get(target.file_id)
                if here is None:
                    return
                there = (here + 1 + pick % (CONFIG.num_units - 1)) % CONFIG.num_units
                new = target.with_updates(atime=target.get("atime") + self.step)
                store.apply_changes([VersionedChange("insert", new, unit_id=there)])
                assert store._file_locations[new.file_id] == there
            self.live[new.file_id] = new

    def assert_population(self):
        applied = {
            f.file_id: file_to_dict(f)
            for server in self.pipeline.store.cluster.servers.values()
            for f in server.files
        }
        assert applied == {fid: file_to_dict(f) for fid, f in self.live.items()}


OPS = st.lists(
    st.tuples(st.sampled_from(Stream.KINDS), st.integers(0, 10_000)),
    min_size=4,
    max_size=28,
)


# ---------------------------------------------------------------------------- (a) live store
class TestPublishedBytesAreAFullEncode:
    @given(ops=OPS, every=st.integers(2, 6))
    @_SETTINGS
    def test_random_streams_publish_full_encode_bytes(self, tmp_path_factory, ops, every):
        root = tmp_path_factory.mktemp("carry")
        files = make_files(BASE + 24, clusters=3)
        pipeline = durable(root, files[:BASE])
        try:
            template = multi_unit_template(pipeline.store, files[:BASE])
            stream = Stream(
                pipeline, files[:BASE], files[BASE:] + near_clones(template, 40, "hot")
            )
            pipeline.checkpoint()
            assert pipeline.storage.stats()["rows_carried"] == 0  # generation 1
            for n, (kind, pick) in enumerate(ops, 1):
                stream.apply(kind, pick)
                if n % every == 0:
                    pipeline.checkpoint()
                    assert_published_is_a_full_encode(pipeline, root)
            pipeline.checkpoint()
            assert_published_is_a_full_encode(pipeline, root)
            stream.assert_population()
        finally:
            pipeline.close()

    def test_a_split_group_carries_its_rows_into_both_halves(self, tmp_path):
        files = make_files(BASE, clusters=3)
        pipeline = durable(tmp_path, files)
        try:
            pipeline.checkpoint()
            groups = len(pipeline.store.tree.first_level_groups())
            hot = near_clones(multi_unit_template(pipeline.store, files), 60, "hot")
            for f in hot:
                pipeline.insert(f)
            pipeline.checkpoint()
            assert pipeline.compactor.stats.group_splits >= 1
            assert len(pipeline.store.tree.first_level_groups()) > groups
            stats = pipeline.storage.stats()
            # Neither half has a previous segment of its own, yet only the
            # new records were encoded: the lookup is global, not per group.
            assert stats["rows_encoded"] == len(hot)
            assert stats["rows_carried"] > 0
            assert_published_is_a_full_encode(pipeline, tmp_path)
        finally:
            pipeline.close()

    def test_mark_all_dirty_carries_nothing(self, tmp_path):
        files = make_files(BASE, clusters=3)
        pipeline = durable(tmp_path, files)
        try:
            pipeline.checkpoint()
            pipeline.storage.mark_all_dirty()
            pipeline.checkpoint()
            stats = pipeline.storage.stats()
            assert (stats["rows_carried"], stats["rows_encoded"]) == (0, BASE)
            assert_published_is_a_full_encode(pipeline, tmp_path)
        finally:
            pipeline.close()

    def test_an_id_stored_twice_is_never_carried(self, tmp_path):
        """Two copies of one id (a population that repeats a path) cannot
        be told apart by id, so neither resolves."""
        files = make_files(12, seed=4)
        twin = files[3].with_updates(size=1.0)
        write_segment(
            tmp_path / "old.seg", 0, [(0, unit_of(files + [twin]))], DEFAULT_SCHEMA
        )
        old = Segment.open(tmp_path / "old.seg")
        try:
            rows = files[:3] + [twin] + files[4:] + [files[3]]  # copies swapped
            carried = write_segment(
                tmp_path / "new.seg", 0, [(0, unit_of(rows))], DEFAULT_SCHEMA, CarryIndex([old])
            )
            write_segment(tmp_path / "reference.seg", 0, [(0, unit_of(rows))], DEFAULT_SCHEMA)
        finally:
            old.close()
        assert carried.rows_carried == len(files) - 1
        assert (tmp_path / "new.seg").read_bytes() == (
            tmp_path / "reference.seg"
        ).read_bytes()


# ---------------------------------------------------------------------------- (b) after a restart
def _spec(root):
    return DeploymentSpec(
        topology="durable",
        store=CONFIG,
        wal_dir=str(root / "wal"),
        storage=StorageConfig(root=str(root / "snap"), resident_segments=2),
    )


class TestCarryForwardAcrossARestart:
    @given(ops=OPS, tail=OPS)
    @_SETTINGS
    def test_restart_with_a_replayed_tail_publishes_full_encode_bytes(
        self, tmp_path_factory, ops, tail
    ):
        root = tmp_path_factory.mktemp("restart")
        files = make_files(BASE + 24, clusters=3)
        client = connect(_spec(root), files[:BASE])
        pipeline = client.service.pipeline
        pipeline.compactor.policy = SPLITTING
        template = multi_unit_template(pipeline.store, files[:BASE])
        stream = Stream(
            pipeline, files[:BASE], files[BASE:] + near_clones(template, 40, "hot")
        )
        for kind, pick in ops:
            stream.apply(kind, pick)
        client.checkpoint()
        for kind, pick in tail:  # acked, logged, never checkpointed
            if kind != "move":  # a move is not a logged mutation
                stream.apply(kind, pick)
        client.close()  # the kill: the snapshot plus a WAL tail

        restarted = connect(_spec(root))
        try:
            pipeline = stream.pipeline = restarted.service.pipeline
            pipeline.compactor.policy = SPLITTING
            storage, servers = pipeline.storage, pipeline.store.cluster.servers
            pipeline.compactor.drain()
            cold = {uid for uid, s in servers.items() if s.backing_segment() is not None}
            pins = storage.stats()["pins"]
            restarted.checkpoint()
            # A cold unit is carried as one slice of its old segment: the
            # checkpoint materialised nothing it did not have to.
            assert storage.stats()["pins"] == pins
            assert cold <= {
                uid for uid, s in servers.items() if s.backing_segment() is not None
            }
            assert storage.stats()["rows_encoded"] <= len(tail)
            assert_published_is_a_full_encode(pipeline, root)
            stream.assert_population()
            # ... and the restored store keeps carrying on later generations.
            for kind, pick in ops[:6]:
                stream.apply(kind, pick)
            restarted.checkpoint()
            assert_published_is_a_full_encode(pipeline, root)
            stream.assert_population()
        finally:
            restarted.close()

    def test_a_cold_unit_in_a_dirty_group_is_one_carried_slice(self, tmp_path):
        files = make_files(BASE, clusters=3)
        client = connect(_spec(tmp_path), files)
        store = client.service.pipeline.store
        group = next(
            g for g in store.tree.first_level_groups() if len(g.descendant_unit_ids()) >= 2
        )
        touched_unit, cold_unit = sorted(group.descendant_unit_ids())[:2]
        victim = next(f for f in files if store._file_locations[f.file_id] == touched_unit)
        client.checkpoint()
        client.close()

        restarted = connect(_spec(tmp_path))
        try:
            storage = restarted.service.pipeline.storage
            restarted.modify(victim.with_updates(size=12345.0))
            restarted.checkpoint()
            stats = storage.stats()
            assert stats["rows_encoded"] == 1 and stats["pins"] == 1
            server = restarted.service.pipeline.store.cluster.servers[cold_unit]
            assert server.backing_segment() is not None and len(server) > 0
            assert_published_is_a_full_encode(restarted.service.pipeline, tmp_path)
        finally:
            restarted.close()


# ---------------------------------------------------------------------------- (c) unit arrays
def _arrays(server):
    return (
        server.matrix(),
        server.index_matrix(),
        server.normalized_matrix(),
        server.file_ids(),
    )


class TestUnitArraysArePatchedInPlace:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_add_remove_sequence_equals_a_fresh_unit(self, data):
        pool = make_files(40, seed=11)
        fresh_bounds = StorageServer(0, DEFAULT_SCHEMA)
        fresh_bounds.add_files(pool)
        index = fresh_bounds.index_matrix()
        lower, upper = index.min(axis=0), index.max(axis=0)

        unit = StorageServer(0, DEFAULT_SCHEMA)
        unit.set_normalization(lower, upper)
        held = []
        for _ in range(data.draw(st.integers(1, 25), label="ops")):
            op = data.draw(st.sampled_from(("add", "add", "remove", "read")), label="op")
            if op == "add":
                batch = data.draw(
                    st.lists(st.sampled_from(pool), min_size=0, max_size=3), label="batch"
                )
                unit.add_files(batch)
                held += batch
            elif op == "remove":
                absent = not held or data.draw(st.booleans(), label="absent")
                fid = -1 if absent else data.draw(st.sampled_from(held), label="victim").file_id
                removed = unit.remove_file(fid)
                first = next((f for f in held if f.file_id == fid), None)
                assert removed is first
                if first is not None:
                    held.remove(first)  # the first match, like the unit
            else:
                unit.mbr()  # arrays current from here on: later ops patch them

        assert unit.files == held
        fresh = StorageServer(0, DEFAULT_SCHEMA)
        fresh.set_normalization(lower, upper)
        fresh.add_files(held)
        for patched, rebuilt in zip(_arrays(unit), _arrays(fresh)):
            assert patched.dtype == rebuilt.dtype and patched.shape == rebuilt.shape
            assert patched.tobytes() == rebuilt.tobytes()
        if held:
            assert np.array_equal(unit.mbr().lower, fresh.mbr().lower)
            assert np.array_equal(unit.mbr().upper, fresh.mbr().upper)
        else:
            assert unit.mbr() is None and fresh.mbr() is None
        assert [unit.record_at(i) for i in range(len(held))] == held

    def test_a_current_unit_vectorises_only_what_it_is_given(self, monkeypatch):
        pool = make_files(30, seed=2)
        unit = StorageServer(0, DEFAULT_SCHEMA)
        unit.add_files(pool[:25])
        unit.mbr()
        calls = []
        original = FileMetadata.vector
        monkeypatch.setattr(
            FileMetadata, "vector", lambda f, schema: calls.append(f) or original(f, schema)
        )
        unit.add_files(pool[25:])
        unit.remove_file(pool[3].file_id)
        unit.mbr(), unit.matrix(), unit.file_ids()
        assert calls == pool[25:]


# ---------------------------------------------------------------------------- (d) counted, not timed
class TestCheckpointWorkIsProportionalToTheChange:
    def test_twelve_mutations_on_two_thousand_files(self, tmp_path, monkeypatch):
        files = make_files(2_012, seed=5, clusters=6)
        store = SmartStore.build(
            files[:2_000], SmartStoreConfig(num_units=12, seed=1, search_breadth=64)
        )
        pipeline = IngestPipeline(store, WriteAheadLog(tmp_path / "store.wal"))
        pipeline.attach_storage(SegmentStore(tmp_path / "snap"))
        try:
            pipeline.checkpoint()
            for f in files[2_000:2_006]:
                pipeline.insert(f)
            for f in files[100:104]:
                pipeline.modify(f.with_updates(size=f.get("size") + 1.0))
            for f in files[500:502]:
                pipeline.delete(f)

            counts = {"dumps": 0, "vector": 0}
            dumps, vector = json.dumps, FileMetadata.vector

            def counting_dumps(*args, **kwargs):
                counts["dumps"] += 1
                return dumps(*args, **kwargs)

            def counting_vector(self, schema=DEFAULT_SCHEMA):
                counts["vector"] += 1
                return vector(self, schema)

            monkeypatch.setattr(json, "dumps", counting_dumps)
            monkeypatch.setattr(FileMetadata, "vector", counting_vector)
            before = {p.name for p in pipeline.storage.segments_dir.glob("*.seg")}
            pipeline.checkpoint()
            monkeypatch.undo()

            written = {p.name for p in pipeline.storage.segments_dir.glob("*.seg")} - before
            stats = pipeline.storage.stats()
            assert stats["rows_encoded"] == 10  # six inserts + four modifies
            assert stats["rows_carried"] > 0
            assert stats["rows_carried"] + stats["rows_encoded"] <= 2_004
            # Changed rows, two header lines per segment, the WAL header.
            assert counts["dumps"] <= 10 + 2 * len(written) + 1
            assert counts["vector"] == 10
            assert_published_is_a_full_encode(pipeline, tmp_path)
        finally:
            pipeline.close()

    def test_publish_reports_what_it_carried(self, tmp_path):
        previous_registry = set_registry(MetricsRegistry())
        tracer = Tracer(enabled=True)
        previous_tracer = set_tracer(tracer)
        try:
            files = make_files(BASE + 3, clusters=3)
            pipeline = durable(tmp_path, files[:BASE])
            with tracer.root("test"):
                pipeline.checkpoint()
                for f in files[BASE:]:
                    pipeline.insert(f)
                pipeline.checkpoint()
            pipeline.close()
            spans = [
                s for s in tracer.collector.snapshot() if s.name == "storage.publish"
            ]
            assert [s.tags["rows_encoded"] for s in spans] == [BASE, 3]
            assert spans[0].tags["rows_carried"] == 0 and spans[1].tags["rows_carried"] > 0
            stats = pipeline.storage.stats()
            assert stats["rows_encoded"] == 3
            assert stats["rows_carried"] == spans[1].tags["rows_carried"]
            registry = get_registry()
            assert registry.counter("storage_rows_encoded_total").value == BASE + 3
            assert (
                registry.counter("storage_rows_carried_total").value
                == stats["rows_carried"]
            )
            # The manifest document is what it was: the counts describe the
            # write, not the snapshot.
            assert "rows_carried" not in json.dumps(pipeline.storage.manifest)
        finally:
            set_tracer(previous_tracer)
            set_registry(previous_registry)


# ---------------------------------------------------------------------------- (e) quarantine
class TestAQuarantinedSegmentIsNeverACarrySource:
    @pytest.mark.parametrize("damage", ["flipped byte", "missing file"])
    def test_lost_group_is_encoded_from_live_state(self, tmp_path, damage):
        files = make_files(BASE + 12, seed=6, clusters=3)
        pipeline = durable(tmp_path, files[:BASE])
        pipeline.checkpoint()
        for f in files[BASE:]:
            pipeline.insert(f)  # the WAL tail
        pipeline.close()

        snap = tmp_path / "snap"
        victim = sorted((snap / "segments").iterdir())[0]
        if damage == "flipped byte":
            payload = bytearray(victim.read_bytes())
            payload[len(payload) // 2] ^= 0xFF
            victim.write_bytes(bytes(payload))
        else:
            victim.unlink()

        recovered, report = recover_from_storage(snap, wal_path=tmp_path / "store.wal")
        try:
            assert report.segments_quarantined == [victim.name]
            assert victim.name not in recovered.storage._segments
            recovered.checkpoint()
            assert_published_is_a_full_encode(recovered, tmp_path)
            lost_units = {
                uid
                for uid in recovered.store.cluster.servers
                if str(uid) in _units_of(recovered.storage.manifest, report.groups_quarantined)
            }
            healed_rows = sum(len(recovered.store.cluster.servers[u]) for u in lost_units)
            assert recovered.storage.stats()["rows_encoded"] >= healed_rows
        finally:
            recovered.close()
        healed, report = recover_from_storage(snap, wal_path=tmp_path / "store.wal")
        healed.close()
        assert report.segments_quarantined == []


def _units_of(manifest, group_ids):
    return {
        uid for gid in group_ids for uid in manifest["segments"][str(gid)]["units"]
    }


# ---------------------------------------------------------------------------- (f) WAL truncation
class TestTruncateThroughTheLastRecord:
    def test_drops_everything_without_reading_the_log(self, tmp_path, monkeypatch):
        files = make_files(6)
        wal = WriteAheadLog(tmp_path / "log.wal", fsync_every=1)
        for f in files[:5]:
            wal.append("insert", f)
        header = (tmp_path / "log.wal").read_bytes().split(b"\n", 1)[0] + b"\n"
        scans = []
        scan = WriteAheadLog.scan
        monkeypatch.setattr(
            WriteAheadLog, "scan", staticmethod(lambda path: scans.append(path) or scan(path))
        )
        assert wal.truncate_through(wal.last_seq) == 0
        assert scans == []
        assert (tmp_path / "log.wal").read_bytes() == header
        assert not (tmp_path / "log.wal.tmp").exists()
        assert wal.replay().records == [] and wal.last_seq == 5
        assert wal.append("insert", files[5]) == 6
        assert [r.seq for r in wal.replay()] == [6]
        wal.close()

    def test_a_partial_truncation_still_keeps_the_tail(self, tmp_path):
        files = make_files(5)
        wal = WriteAheadLog(tmp_path / "log.wal")
        for f in files:
            wal.append("insert", f)
        assert wal.truncate_through(3) == 2
        assert [r.seq for r in wal.replay()] == [4, 5]
        wal.close()
