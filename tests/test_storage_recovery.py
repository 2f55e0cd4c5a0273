"""Cold-start equivalence: every topology restarts from segments + tail.

One ``connect(spec)`` deployment per topology takes writes, checkpoints
(publishing an immutable segment snapshot), takes more writes (the WAL
tail), fingerprints a probe workload, and dies.  A second
``connect(spec)`` with **no files at all** must come back byte-identical
— and must have done O(tail) work to get there, witnessed by
``RecoveryReport.wal_records_replayed``.
"""

from typing import List

import pytest

from repro.api.client import connect
from repro.api.spec import DeploymentSpec
from repro.core.smartstore import SmartStoreConfig
from repro.ingest.pipeline import recover_from_storage
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.service.cache import result_fingerprint
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
        probes = _probes(files)

        client = connect(_spec(topology, tmp_path), population)
        client.checkpoint()
        for f in tail:
            client.insert(f)
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
        monkeypatch.setattr(Segment, "record", lambda self, row: decoded.append(row))
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
        """resident_segments=1 forces every cross-group query to fault in
        and evict through the LRU — answers must not change."""
        files = make_files(64, seed=5)
        probes = _probes(files)

        client = connect(_spec("durable", tmp_path), files)
        client.checkpoint()
        live = _fingerprints(client, probes)
        client.close()

        starved_spec = _spec("durable", tmp_path, resident_segments=1)
        starved = connect(starved_spec)
        try:
            assert _fingerprints(starved, probes) == live
            storage = starved.service.pipeline.storage
            stats = storage.stats()
            assert stats["evictions"] > 0, "LRU never evicted; gate is vacuous"
            assert stats["faults"] > stats["evictions"]
        finally:
            starved.close()
