"""Cold-start equivalence: every topology restarts from segments + tail.

One ``connect(spec)`` deployment per topology takes writes, checkpoints
(publishing an immutable segment snapshot), takes more writes (the WAL
tail), fingerprints a probe workload, and dies.  A second
``connect(spec)`` with **no files at all** must come back byte-identical
— and must have done O(tail) work to get there, witnessed by
``RecoveryReport.wal_records_replayed``.
"""

import gc
import sys
import threading
import time
import warnings
from dataclasses import replace
from typing import List

import pytest

from repro.api.client import connect
from repro.api.spec import DeploymentSpec
from repro.core.smartstore import SmartStoreConfig
from repro.ingest.pipeline import IngestPipeline, recover_from_storage
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.service.cache import result_fingerprint
from repro.service.service import ServiceConfig
from repro.shard.reshard import ReshardController
from repro.storage import Segment, StorageConfig, has_snapshot
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import make_files

DURABLE_TOPOLOGIES = ("durable", "sharded", "replicated", "sharded_replicated")


def _spec(topology, tmp_path, resident_segments=64):
    wal_dir = None if topology == "plain" else str(tmp_path / "wal")
    return DeploymentSpec(
        topology=topology,
        store=SmartStoreConfig(num_units=4, seed=0, search_breadth=64),
        shards=2,
        replicas=1,
        wal_dir=wal_dir,
        storage=StorageConfig(
            root=str(tmp_path / "snap"), resident_segments=resident_segments
        ),
    )


def _probes(files) -> List[object]:
    attrs = tuple(DEFAULT_SCHEMA.names[:2])
    return [
        PointQuery(files[3].filename),
        PointQuery(files[17].filename),
        PointQuery("/no/such/file.dat"),
        RangeQuery(attrs, (0.0, 0.0), (1e9, 1e9)),
        TopKQuery(attrs, (2048.0, 1500.0), 12),
    ]


def _fingerprints(client, probes) -> List[str]:
    return [result_fingerprint(client.execute(q).result) for q in probes]


class TestColdStartEquivalence:
    @pytest.mark.parametrize("topology", DURABLE_TOPOLOGIES)
    def test_restart_with_tail_is_byte_identical(self, tmp_path, topology):
        files = make_files(64, seed=1)
        population, tail = files[:52], files[52:]
        gone = population[9]
        probes = _probes(files) + [
            PointQuery(tail[0].filename),
            PointQuery(tail[1].filename),
            PointQuery(gone.filename),
        ]

        client = connect(_spec(topology, tmp_path), population)
        client.checkpoint()
        for f in tail:
            client.insert(f)
        client.delete(gone)
        live = _fingerprints(client, probes)
        client.close()

        # Cold start: no files passed — everything comes from disk.
        reborn = connect(_spec(topology, tmp_path))
        try:
            assert _fingerprints(reborn, probes) == live
        finally:
            reborn.close()

    def test_plain_restart_is_identical_at_checkpoint_boundary(self, tmp_path):
        # Plain has no WAL: post-checkpoint writes are volatile by design,
        # so equivalence holds exactly at the publish boundary.
        files = make_files(56, seed=2)
        probes = _probes(files)
        client = connect(_spec("plain", tmp_path), files)
        client.checkpoint()
        at_checkpoint = _fingerprints(client, probes)
        client.close()

        reborn = connect(_spec("plain", tmp_path))
        try:
            assert _fingerprints(reborn, probes) == at_checkpoint
        finally:
            reborn.close()

    def test_restart_without_snapshot_still_requires_files(self, tmp_path):
        with pytest.raises(ValueError):
            connect(_spec("durable", tmp_path))


class TestCrashBetweenShardPublishes:
    """A sharded checkpoint publishes shard by shard; a crash between two
    publishes leaves one shard restored from its snapshot (its log
    truncated) and the next one still on its log alone."""

    @staticmethod
    def _crash_after_first_publish(topology, tmp_path, population, tail):
        client = connect(_spec(topology, tmp_path), population)
        for f in tail:
            client.insert(f)

        def crash(*_):
            raise OSError("crashed before publishing")

        client.store.pipelines[1].checkpoint = crash
        with pytest.raises(OSError):
            client.checkpoint()
        client.close()
        assert has_snapshot(tmp_path / "snap" / "shard-0")
        assert not has_snapshot(tmp_path / "snap" / "shard-1")

    @pytest.mark.parametrize("topology", ["sharded", "sharded_replicated"])
    def test_restart_with_files_restores_one_shard_and_builds_the_other(
        self, tmp_path, topology
    ):
        files = make_files(64, seed=4)
        population, tail = files[:54], files[54:]
        self._crash_after_first_publish(topology, tmp_path, population, tail)
        with connect(_spec(topology, tmp_path), population) as client:
            for f in files:
                assert client.execute(PointQuery(f.filename)).found, f.path
            owners = {client.store.owner_of(f.file_id) for f in tail}
            assert None not in owners

    def test_restart_without_files_names_the_unpublished_shards(self, tmp_path):
        files = make_files(64, seed=4)
        self._crash_after_first_publish("sharded", tmp_path, files[:54], files[54:])
        with pytest.raises(ValueError, match=r"shards \[1\] have published no snapshot"):
            connect(_spec("sharded", tmp_path))


class TestRestartAfterSplit:
    """A live split moves files to a new shard and logs their deletes on
    the source: a restart either finds every file or refuses to start."""

    @staticmethod
    def _split(client) -> None:
        outcome = ReshardController(client.store).split(0)
        assert outcome.performed, outcome.reason

    def test_split_then_restart_finds_every_file(self, tmp_path):
        files = make_files(80, clusters=4)
        spec = _spec("sharded", tmp_path)
        with connect(spec, files[:72]) as client:
            self._split(client)
            for f in files[72:]:
                client.insert(f)
            client.delete(files[0])
        with connect(spec, files[:72]) as client:
            assert client.store.num_shards == 3
            for f in files[1:]:
                assert client.execute(PointQuery(f.filename)).found, f.path
            assert not client.execute(PointQuery(files[0].filename)).found

    def test_crash_before_the_new_shard_publishes_refuses_the_restart(
        self, tmp_path, monkeypatch
    ):
        files = make_files(80, clusters=4)
        spec = _spec("sharded", tmp_path)
        client = connect(spec, files)
        client.checkpoint()

        def crash(self):
            raise OSError("crashed before publishing")

        monkeypatch.setattr(IngestPipeline, "checkpoint", crash)
        with pytest.raises(OSError):
            self._split(client)
        client.close()
        assert not has_snapshot(tmp_path / "snap" / "shard-2")
        with pytest.raises(ValueError, match=r"shards \[2\] .* split off a live shard"):
            connect(spec, files)

    def test_a_logged_shard_without_storage_does_not_split(self, tmp_path):
        files = make_files(80, clusters=4)
        spec = replace(_spec("sharded", tmp_path), storage=None)
        with connect(spec, files) as client:
            outcome = ReshardController(client.store).split(0)
            assert not outcome.performed
            assert "cannot split durably" in outcome.reason
        with connect(spec, files) as client:
            for f in files:
                assert client.execute(PointQuery(f.filename)).found, f.path


class TestOTailGate:
    def test_recovery_replays_exactly_the_tail(self, tmp_path, monkeypatch):
        """The O(tail) witness: records replayed == post-checkpoint writes,
        however large the checkpointed corpus — and opening the root
        decodes no stored record at all."""
        files = make_files(72, seed=3)
        spec = _spec("durable", tmp_path)
        client = connect(spec, files[:60])
        client.checkpoint()
        for f in files[60:]:
            client.insert(f)
        client.close()

        assert has_snapshot(tmp_path / "snap")
        decoded = []
        monkeypatch.setattr(Segment, "records", lambda self, rows: decoded.extend(rows))
        pipeline, report = recover_from_storage(
            tmp_path / "snap", wal_path=tmp_path / "wal" / "store.wal"
        )
        try:
            assert report.wal_records_replayed == 12
            assert report.segments_loaded > 0
            assert report.files_indexed == 60  # snapshot rows, not corpus re-reads
            assert decoded == []
        finally:
            pipeline.close()

    def test_checkpoint_truncates_the_wal(self, tmp_path):
        files = make_files(48, seed=4)
        spec = _spec("durable", tmp_path)
        client = connect(spec, files[:40])
        for f in files[40:]:
            client.insert(f)
        client.checkpoint()
        client.close()

        _, report = recover_from_storage(
            tmp_path / "snap", wal_path=tmp_path / "wal" / "store.wal"
        )
        assert report.wal_records_replayed == 0


class TestResidencyPressure:
    def test_evicting_lru_stays_byte_identical(self, tmp_path):
        """``resident_segments=1`` once starved a residency LRU; it is now
        accepted and ignored, and a restart under it answers byte-identically
        with every read served from cold segment blocks: a top-k over the
        whole population crosses every group straight from the mapping,
        and no read makes a unit writable."""
        files = make_files(64, seed=5)
        probes = _probes(files)
        probes.append(TopKQuery(tuple(DEFAULT_SCHEMA.names[:2]), (2048.0, 1500.0), len(files)))

        client = connect(_spec("durable", tmp_path), files)
        client.checkpoint()
        live = _fingerprints(client, probes)
        client.close()

        starved_spec = _spec("durable", tmp_path, resident_segments=1)
        starved = connect(starved_spec)
        try:
            storage = starved.service.pipeline.storage
            pins = storage.stats()["pins"]
            assert _fingerprints(starved, probes) == live
            stats = storage.stats()
            assert stats["pins"] == pins, "a read made a unit writable"
            assert any(
                s.backing_segment() is not None for s in starved.store.cluster
            ), "no cold segment block: the check is vacuous"
            assert (stats["faults"], stats["evictions"]) == (0, 0)
        finally:
            starved.close()


class TestColdReadsBesideCheckpoints:
    def test_readers_survive_publishes_that_retire_their_segments(self, tmp_path):
        """Three threads read a cold-started store — ranges and top-ks
        straight from the mapping, point lookups — while the main thread
        inserts, modifies, deletes and checkpoints.  Each publish rebinds
        the changed units to fresh blocks and retires the segments they
        were read from, under readers that may hold the old blocks and
        views of their mapping; each drain removes and appends rows under
        the service's state lock, which no scan holds at the same time.
        No read may fail, and every answer at the end is the population's."""
        files = make_files(160, seed=6)
        population, tail = files[:120], files[120:]
        # Each round also modifies one record (its size doubled: ranges and
        # top-ks move) and deletes another, neither of them a probe anchor.
        changed = [f.with_updates(size=2.0 * f.attributes["size"]) for f in population[5::6]]
        deleted = population[3::6]
        spec = replace(
            _spec("durable", tmp_path, resident_segments=1),
            service=ServiceConfig(cache_enabled=False),
        )
        with connect(spec, population) as client:
            client.checkpoint()
        names = tuple(DEFAULT_SCHEMA.names[:3])
        probes: List[object] = [PointQuery(f.filename) for f in files[::20]]
        anchors = {}  # a top-k on a file's own values: that file is in it
        for f in files[::16]:
            values = [f.attributes[name] for name in names]
            probes.append(
                RangeQuery(names, tuple(0.5 * v for v in values), tuple(2.0 * v for v in values))
            )
            probes.append(TopKQuery(names, tuple(values), 5))
            anchors[probes[-1]] = f.path

        client = connect(spec)
        errors: List[BaseException] = []
        reads = [0, 0, 0]
        stop = threading.Event()

        def reader(slot: int) -> None:
            deadline = time.monotonic() + 30.0
            try:
                while not stop.is_set() and time.monotonic() < deadline:
                    for probe in probes[slot::3]:
                        client.execute(probe)
                        reads[slot] += 1
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(slot,), name=f"cold-reader-{slot}")
            for slot in range(3)
        ]
        generations = set()
        try:
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for at in range(0, len(tail), 2):
                    for f in tail[at : at + 2]:
                        client.insert(f)
                    client.modify(changed[at // 2])
                    client.delete(deleted[at // 2])
                    generations.add(client.checkpoint()["generation"])
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                sys.setswitchinterval(previous)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(generations) == len(tail) // 2 and min(reads) > 0
            gone = {f.file_id for f in deleted}
            now = {f.file_id: f for f in files if f.file_id not in gone}
            now.update((f.file_id, f) for f in changed)
            live = list(now.values())
            for probe in probes:
                got = client.execute(probe).result.files
                if isinstance(probe, TopKQuery):
                    assert len(got) == probe.k and anchors[probe] in {f.path for f in got}
                    continue
                if isinstance(probe, RangeQuery):
                    want = [
                        f
                        for f in live
                        if f.matches_ranges(probe.attributes, probe.lower, probe.upper)
                    ]
                else:
                    want = [f for f in live if f.filename == probe.filename]
                assert sorted((f.file_id, f.path, f.attributes) for f in got) == sorted(
                    (f.file_id, f.path, f.attributes) for f in want
                )
        finally:
            client.close()


class TestClosingReleasesSegmentFiles:
    @pytest.mark.parametrize("topology", ["durable", "sharded"])
    def test_close_leaves_no_segment_file_to_the_gc(self, tmp_path, topology):
        """``Client.close()`` closes every attached segment store (through
        ``IngestPipeline.close()``), so no segment file is left for the
        garbage collector to close with a ``ResourceWarning`` — neither the
        files a checkpoint opened nor those a cold start opened."""
        files = make_files(64, seed=5)
        unraisable = []
        previous_hook = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                client = connect(_spec(topology, tmp_path), files)
                client.checkpoint()
                client.close()
                restarted = connect(_spec(topology, tmp_path))
                assert _fingerprints(restarted, _probes(files))
                restarted.close()
                del client, restarted
                gc.collect()
        finally:
            sys.unraisablehook = previous_hook
        assert [str(u.exc_value) for u in unraisable] == []
