"""Property tests for the immutable segment layer: checksum-before-trust.

The contract under test (docs/INVARIANTS.md §12): a damaged segment file
— any single flipped byte, any truncation — is *detected* at open time
and surfaces as :class:`SegmentCorruptError`; recovery quarantines the
file and falls back to WAL replay.  Damage never becomes a wrong answer
and never hangs a query.
"""

import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest.pipeline import IngestPipeline, recover_from_storage
from repro.ingest.wal import WriteAheadLog
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.storage import (
    Segment,
    SegmentCorruptError,
    SegmentStore,
    write_segment,
)
from repro.workloads.types import PointQuery

from helpers import make_files, unit_of

# tmp_path is function-scoped but every example writes to a distinct
# filename, so cross-example contamination cannot happen.
_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def segment_payload(tmp_path_factory):
    """One real segment's bytes, written once and reused per example."""
    root = tmp_path_factory.mktemp("seg")
    files = make_files(18, seed=3)
    units = [(0, unit_of(files[:7])), (1, unit_of(files[7:12])), (2, unit_of(files[12:]))]
    info = write_segment(root / "golden.seg", 0, units, DEFAULT_SCHEMA)
    return (root / "golden.seg").read_bytes(), info


class TestChecksumBeforeTrust:
    def test_pristine_segment_opens_and_roundtrips(self, tmp_path, segment_payload):
        payload, info = segment_payload
        path = tmp_path / "ok.seg"
        path.write_bytes(payload)
        seg = Segment.open(path, expected_crc=info.data_crc)
        assert seg.count == 18 and len(seg.units) == 3
        seg.close()

    @given(data=st.data())
    @_SETTINGS
    def test_any_single_flipped_byte_is_detected(
        self, tmp_path, segment_payload, data
    ):
        payload, info = segment_payload
        offset = data.draw(st.integers(0, len(payload) - 1), label="offset")
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = bytearray(payload)
        damaged[offset] ^= flip
        path = tmp_path / f"flip-{offset}-{flip}.seg"
        path.write_bytes(bytes(damaged))
        with pytest.raises(SegmentCorruptError):
            seg = Segment.open(path, expected_crc=info.data_crc)
            seg.close()

    @given(data=st.data())
    @_SETTINGS
    def test_any_truncation_is_detected(self, tmp_path, segment_payload, data):
        payload, info = segment_payload
        keep = data.draw(st.integers(0, len(payload) - 1), label="keep")
        path = tmp_path / f"trunc-{keep}.seg"
        path.write_bytes(payload[:keep])
        with pytest.raises(SegmentCorruptError):
            seg = Segment.open(path, expected_crc=info.data_crc)
            seg.close()

    def test_manifest_crc_cross_check_catches_swapped_file(
        self, tmp_path, segment_payload
    ):
        # A *valid* segment under the wrong name: its own checksums pass,
        # but the manifest's recorded CRC must reject it.
        payload, info = segment_payload
        other = write_segment(
            tmp_path / "other.seg", 0, [(0, unit_of(make_files(5, seed=9)))], DEFAULT_SCHEMA
        )
        assert other.data_crc != info.data_crc
        with pytest.raises(SegmentCorruptError):
            Segment.open(tmp_path / "other.seg", expected_crc=info.data_crc)

    def test_missing_file_is_corrupt_not_crash(self, tmp_path):
        with pytest.raises(SegmentCorruptError):
            Segment.open(tmp_path / "never-written.seg")


def _publish(tmp_path, files):
    """Durable pipeline + snapshot + a small WAL tail; returns paths."""
    config = SmartStoreConfig(num_units=4, seed=0, search_breadth=64)
    store = SmartStore.build(files[:40], config)
    wal_path = tmp_path / "wal.jsonl"
    pipeline = IngestPipeline(store, WriteAheadLog(wal_path))
    pipeline.attach_storage(SegmentStore(tmp_path / "snap"))
    pipeline.checkpoint()
    for f in files[40:]:
        pipeline.insert(f)
    tail = len(files) - 40
    pipeline.close()
    return tmp_path / "snap", wal_path, tail


class TestQuarantineFallback:
    @given(data=st.data())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_corrupt_segment_quarantined_never_wrong(self, tmp_path_factory, data):
        """End to end: damage one on-disk segment, recover, query everything.

        The damaged group is quarantined (detected, listed, file moved
        aside), the WAL tail still replays, and every point query either
        finds the *correct* record or finds nothing — never garbage, never
        an exception, never a hang.
        """
        tmp_path = tmp_path_factory.mktemp("quarantine")
        files = make_files(52, seed=5)
        snap_root, wal_path, tail = _publish(tmp_path, files)

        victims = sorted(p for p in (snap_root / "segments").iterdir())
        victim = victims[data.draw(st.integers(0, len(victims) - 1), label="segment")]
        payload = bytearray(victim.read_bytes())
        offset = data.draw(st.integers(0, len(payload) - 1), label="offset")
        payload[offset] ^= data.draw(st.integers(1, 255), label="xor")
        victim.write_bytes(bytes(payload))

        pipeline, report = recover_from_storage(snap_root, wal_path=wal_path)
        try:
            assert report.segments_quarantined == [victim.name]
            assert len(report.groups_quarantined) == 1
            # Quarantine means moved aside, not deleted: the damaged bytes
            # stay inspectable but can never be mmap'd as truth again.
            assert not victim.exists()
            assert (snap_root / "quarantine" / victim.name).exists()
            # O(tail) replay still happened on the surviving groups.
            assert report.wal_records_replayed == tail

            by_name = {f.filename: f for f in files}
            for name, original in by_name.items():
                result = pipeline.store.execute(PointQuery(name))
                assert len(result.files) <= 1
                for found in result.files:
                    assert found.filename == name
                    assert found.attributes == original.attributes
            # The WAL tail (never checkpointed into a segment) survives
            # regardless of which segment was damaged.
            tail_names = {f.filename for f in files[40:]}
            recovered_names = {
                f.filename for f in pipeline.materialized_files()
            }
            assert tail_names <= recovered_names
        finally:
            pipeline.close()

    def test_republish_after_quarantine_heals(self, tmp_path):
        """A checkpoint after quarantined recovery publishes a clean set a
        second recovery reads back in full (minus the lost rows)."""
        files = make_files(52, seed=6)
        snap_root, wal_path, _ = _publish(tmp_path, files)
        victim = sorted((snap_root / "segments").iterdir())[0]
        payload = bytearray(victim.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        victim.write_bytes(bytes(payload))

        pipeline, report = recover_from_storage(snap_root, wal_path=wal_path)
        assert report.segments_quarantined
        survivors = sorted(
            f.filename for f in pipeline.materialized_files()
        )
        pipeline.checkpoint()
        pipeline.close()

        healed, report2 = recover_from_storage(snap_root, wal_path=wal_path)
        try:
            assert report2.segments_quarantined == []
            assert (
                sorted(f.filename for f in healed.materialized_files())
                == survivors
            )
        finally:
            healed.close()

    def test_crc32_is_the_checksum_in_play(self, segment_payload):
        # Guard against the checksum silently becoming a no-op: the header
        # advertises the same CRC32 the data actually hashes to.
        payload, info = segment_payload
        header_end = payload.index(b"\n")
        line2_end = payload.index(b"\n", header_end + 1)
        data = payload[line2_end + 1 :]
        assert zlib.crc32(data) & 0xFFFFFFFF == info.data_crc
