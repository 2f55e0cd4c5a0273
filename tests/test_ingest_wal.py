"""Tests for the write-ahead log: append/replay, checksums, torn tails."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ingest.wal import WAL_FORMAT, WALRecord, WriteAheadLog
from repro.metadata.file_metadata import FileMetadata

from helpers import make_files


@pytest.fixture()
def files():
    return make_files(10)


class TestAppendReplay:
    def test_roundtrip(self, tmp_path, files):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            seqs = [wal.append("insert", f) for f in files[:3]]
            seqs.append(wal.append("delete", files[0]))
        assert seqs == [1, 2, 3, 4]
        replay = WriteAheadLog.scan(path)
        assert not replay.truncated
        assert [r.seq for r in replay] == seqs
        assert [r.kind for r in replay] == ["insert", "insert", "insert", "delete"]
        assert replay.records[0].file.path == files[0].path
        assert replay.records[0].file.attributes == files[0].attributes

    def test_sequence_numbers_resume_across_reopen(self, tmp_path, files):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append("insert", files[0])
        with WriteAheadLog(path) as wal:
            assert wal.last_seq == 1
            assert wal.append("insert", files[1]) == 2
        assert [r.seq for r in WriteAheadLog.scan(path)] == [1, 2]

    def test_missing_file_scans_empty(self, tmp_path):
        replay = WriteAheadLog.scan(tmp_path / "nope.jsonl")
        assert replay.records == [] and not replay.truncated

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "not-a-wal.jsonl"
        path.write_text('{"format": "repro.files", "version": 1}\n')
        with pytest.raises(ValueError):
            WriteAheadLog.scan(path)

    def test_torn_header_replays_empty(self, tmp_path):
        # Crash during the very first header write: nothing was durable.
        path = tmp_path / "wal.jsonl"
        path.write_text('{"format": "repro.w')
        replay = WriteAheadLog.scan(path)
        assert replay.truncated and replay.records == []
        # Reopening truncates the torn header and starts a fresh log.
        with WriteAheadLog(path) as wal:
            assert wal.append("checkpoint") == 1
        assert not WriteAheadLog.scan(path).truncated

    def test_unknown_kind_rejected(self, tmp_path, files):
        with WriteAheadLog(tmp_path / "wal.jsonl") as wal:
            with pytest.raises(ValueError):
                wal.append("truncate", files[0])

    def test_invalid_fsync_every_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "wal.jsonl", fsync_every=-1)


class TestChecksums:
    def test_crc_detects_bit_flip(self, tmp_path, files):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append("insert", files[0])
            wal.append("insert", files[1])
        lines = path.read_text().splitlines()
        payload = json.loads(lines[1])
        payload["kind"] = "delete"  # flip the op, keep the stale crc
        lines[1] = json.dumps(payload)
        path.write_text("\n".join(lines) + "\n")
        replay = WriteAheadLog.scan(path)
        # The corrupt record and everything after it are dropped.
        assert replay.truncated
        assert replay.records == []
        assert replay.bad_line == 2

    def test_record_payload_roundtrip(self, files):
        record = WALRecord(seq=7, kind="modify", file=files[0])
        assert WALRecord.from_payload(record.to_payload()) == record


class TestTornTail:
    def _write_then_tear(self, tmp_path, files, garbage):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append("insert", files[0])
            wal.append("insert", files[1])
        with path.open("a", encoding="utf-8") as fh:
            fh.write(garbage)
        return path

    @pytest.mark.parametrize(
        "garbage",
        [
            '{"seq": 3, "kind": "ins',          # torn mid-record
            "garbage that is not json\n",        # not JSON at all
            '{"seq": 3, "kind": "insert", "file": null, "crc": 1}\n',  # bad crc
        ],
    )
    def test_replay_stops_at_torn_tail(self, tmp_path, files, garbage):
        path = self._write_then_tear(tmp_path, files, garbage)
        replay = WriteAheadLog.scan(path)
        assert replay.truncated
        assert [r.seq for r in replay] == [1, 2]

    def test_reopen_truncates_torn_tail_and_appends(self, tmp_path, files):
        path = self._write_then_tear(tmp_path, files, '{"torn": ')
        with WriteAheadLog(path) as wal:
            assert wal.last_seq == 2
            wal.append("insert", files[2])
        replay = WriteAheadLog.scan(path)
        assert not replay.truncated
        assert [r.seq for r in replay] == [1, 2, 3]


def _wal_bytes_and_tail():
    """A 3-record log's raw bytes plus the byte range of its tail record.

    Built once (module level): the population and the log are fully
    deterministic, so every property example can slice the same bytes.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            for f in make_files(3, seed=5):
                wal.append("insert", f)
        raw = path.read_bytes()
    lines = raw.splitlines(keepends=True)
    tail_start = len(raw) - len(lines[-1])
    return raw, tail_start


_RAW, _TAIL_START = _wal_bytes_and_tail()
#: Tail-record bytes excluding the trailing newline: cutting inside this
#: span tears the record; cutting at/after its end leaves it intact.
_TAIL_BODY = len(_RAW) - _TAIL_START - 1


def _scan_bytes(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wal.jsonl"
        path.write_bytes(raw)
        return path, WriteAheadLog.scan(path)


class TestTornTailProperties:
    """Recovery must yield *exactly* the intact prefix, byte for byte.

    The satellite property: whatever a crash does to the tail record —
    truncation at any byte offset, or corruption of any byte — replay
    recovers precisely records 1..2, never a phantom and never less.
    """

    def test_every_truncation_offset_recovers_exact_prefix(self):
        # Exhaustive, not sampled: every byte offset of the tail record.
        for cut in range(_TAIL_BODY):
            _, replay = _scan_bytes(_RAW[: _TAIL_START + cut])
            assert [r.seq for r in replay] == [1, 2], f"cut at tail byte {cut}"
            # A clean cut at the record boundary is not a torn tail.
            assert replay.truncated == (cut > 0), f"cut at tail byte {cut}"
            assert replay.good_bytes == _TAIL_START

    def test_losing_only_the_trailing_newline_keeps_the_record(self):
        # The one offset that does NOT tear the record: the tail's JSON is
        # complete, only the newline is gone — the record must survive.
        _, replay = _scan_bytes(_RAW[: _TAIL_START + _TAIL_BODY])
        assert [r.seq for r in replay] == [1, 2, 3]
        assert not replay.truncated

    def test_an_append_after_a_lost_newline_is_a_line_of_its_own(self, tmp_path):
        # Reopening ends the newline-less last line first: appended to it,
        # the next record would make both unparseable, losing an acked write.
        path = tmp_path / "wal.jsonl"
        path.write_bytes(_RAW[: _TAIL_START + _TAIL_BODY])
        with WriteAheadLog(path) as wal:
            assert wal.append("insert", make_files(4, seed=5)[3]) == 4
        final = WriteAheadLog.scan(path)
        assert not final.truncated
        assert [r.seq for r in final] == [1, 2, 3, 4]

    @given(
        offset=st.integers(min_value=0, max_value=_TAIL_BODY - 1),
        replacement=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_single_byte_corruption_recovers_exact_prefix(
        self, offset, replacement
    ):
        position = _TAIL_START + offset
        if _RAW[position] == replacement:
            replacement = (replacement + 1) % 256
        raw = _RAW[:position] + bytes([replacement]) + _RAW[position + 1 :]
        _, replay = _scan_bytes(raw)
        # The CRC (or the JSON parser) rejects the record; everything
        # before it survives untouched.
        assert replay.truncated
        assert [r.seq for r in replay] == [1, 2]
        assert replay.good_bytes == _TAIL_START

    @given(
        # Strictly inside the tail body: at cut == _TAIL_BODY the JSON is
        # complete (only the newline is missing) and the record rightly
        # *survives* — see test_losing_only_the_trailing_newline above.
        cut=st.integers(min_value=1, max_value=_TAIL_BODY - 1),
        garbage=st.binary(min_size=0, max_size=40),
    )
    # Garbage that is exactly the cut-off bytes makes the record whole again.
    @example(cut=_TAIL_BODY - 1, garbage=b"}")
    @example(cut=_TAIL_BODY - 1, garbage=b"}\r")
    @example(cut=_TAIL_BODY - 1, garbage=b"} ")
    @settings(max_examples=100, deadline=None)
    def test_truncation_plus_garbage_then_reopen_appends_cleanly(
        self, cut, garbage
    ):
        # Crash mid-write often leaves a torn prefix plus junk from an
        # earlier file generation; reopening must truncate back to the
        # last intact record and resume the sequence numbering there.
        garbage = garbage.replace(b"\n", b" ")
        raw = _RAW[: _TAIL_START + cut] + garbage
        # The oracle: the garbage restores the torn record when it is the
        # cut-off bytes followed by nothing but carriage returns (a reader
        # strips line ends; a trailing space is not the writer's bytes).
        missing = _RAW[_TAIL_START + cut : _TAIL_START + _TAIL_BODY]
        whole = garbage.rstrip(b"\r") == missing
        intact = [1, 2, 3] if whole else [1, 2]
        path, replay = _scan_bytes(raw)
        assert [r.seq for r in replay] == intact
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "wal.jsonl"
            path.write_bytes(raw)
            with WriteAheadLog(path) as wal:
                assert wal.last_seq == len(intact)
                assert wal.append("insert", make_files(4, seed=5)[3]) == len(intact) + 1
            final = WriteAheadLog.scan(path)
            assert not final.truncated
            assert [r.seq for r in final] == intact + [len(intact) + 1]


class TestFsyncBatching:
    def test_fsync_per_record(self, tmp_path, files):
        with WriteAheadLog(tmp_path / "wal.jsonl", fsync_every=1) as wal:
            for f in files[:5]:
                wal.append("insert", f)
            assert wal.syncs == 5

    def test_fsync_batched(self, tmp_path, files):
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync_every=4)
        for f in files[:5]:
            wal.append("insert", f)
        assert wal.syncs == 1  # one batch of 4; the 5th is pending
        wal.close()
        assert wal.syncs == 2  # close drains the pending batch

    def test_no_explicit_fsync(self, tmp_path, files):
        with WriteAheadLog(tmp_path / "wal.jsonl", fsync_every=0) as wal:
            for f in files[:5]:
                wal.append("insert", f)
            assert wal.syncs == 0
        # The contract holds through close() too: zero explicit fsyncs.
        assert wal.syncs == 0


class TestTruncateThrough:
    def test_checkpoint_truncation(self, tmp_path, files):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            for f in files[:4]:
                wal.append("insert", f)
            kept = wal.truncate_through(2)
            assert kept == 2
            # Appends continue with the global sequence numbering.
            assert wal.append("insert", files[4]) == 5
        replay = WriteAheadLog.scan(path)
        assert [r.seq for r in replay] == [3, 4, 5]

    def test_truncate_everything(self, tmp_path, files):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            for f in files[:3]:
                wal.append("insert", f)
            assert wal.truncate_through(3) == 0
        assert WriteAheadLog.scan(path).records == []
