"""The write-ahead log of the durable ingest pipeline.

Every metadata mutation (insert / delete / modify) is appended to an
append-only JSON-Lines log *before* it touches any in-memory structure, so
that a crash at an arbitrary point loses at most the records whose fsync had
not completed yet.  The format is deliberately self-describing and
human-readable, like every other artefact in :mod:`repro.persistence`::

    {"format": "repro.wal", "version": 1}
    {"seq": 1, "kind": "insert", "file": {...}, "crc": 2868790647}
    {"seq": 2, "kind": "delete", "file": {...}, "crc": 1935937006}
    {"seq": 3, "kind": "checkpoint", "file": null, "crc": 3047013065}

* ``seq`` is a strictly increasing sequence number; recovery uses it to
  skip records already captured by a checkpoint.
* ``crc`` is the CRC-32 of the record's canonical JSON (without the ``crc``
  field itself); a record whose checksum does not match — typically a write
  torn by the crash — is treated as the end of the log.
* ``fsync_every`` trades durability for throughput: ``1`` fsyncs after
  every append (each record survives the crash that follows its append),
  ``N > 1`` fsyncs once per ``N`` appends (at most ``N - 1`` acknowledged
  records can be lost), ``0`` never fsyncs explicitly and leaves flushing
  to the OS.  ``repro bench ingest`` drills the fsync matrix for
  correctness; the ``ingest_restart`` workload of ``benchmarks/perf``
  carries its wall-clock cost.

Opening an existing log scans it, restores the sequence counter and — when
the tail is torn — truncates the file back to the last intact record so new
appends never hide behind a corrupt line.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.metadata.file_metadata import FileMetadata
from repro.obs import get_tracer
from repro.persistence.jsonl import file_from_dict, file_to_dict

__all__ = ["WALRecord", "WALReplay", "WriteAheadLog", "WAL_FORMAT"]

PathLike = Union[str, Path]

WAL_FORMAT = "repro.wal"
WAL_VERSION = 1

#: Record kinds the log accepts (``checkpoint`` marks a truncation point).
WAL_KINDS = ("insert", "delete", "modify", "checkpoint")


def _payload_crc(payload: Dict[str, object]) -> int:
    """CRC-32 of a record's canonical JSON, excluding the ``crc`` field."""
    body = {k: v for k, v in payload.items() if k != "crc"}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))


def _parse_record_line(line: bytes) -> WALRecord:
    """Parse one on-disk record line, rejecting ANY byte-level corruption.

    The CRC covers the canonical (re-serialized) JSON, which a pure
    formatting corruption — e.g. an inter-token space flipped to a tab —
    does not change.  Requiring the raw bytes to round-trip through the
    writer's own serialization closes that gap: formatting damage fails
    the byte comparison, value damage fails the CRC.
    """
    payload = json.loads(line)
    if json.dumps(payload).encode("utf-8") != line.rstrip(b"\r\n"):
        raise ValueError("record bytes are not the writer's serialization")
    return WALRecord.from_payload(payload)


@dataclass(frozen=True)
class WALRecord:
    """One logged mutation."""

    seq: int
    kind: str
    file: Optional[FileMetadata]

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "seq": self.seq,
            "kind": self.kind,
            "file": file_to_dict(self.file) if self.file is not None else None,
        }
        payload["crc"] = _payload_crc(payload)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "WALRecord":
        if payload.get("crc") != _payload_crc(payload):
            raise ValueError("checksum mismatch")
        kind = str(payload["kind"])
        if kind not in WAL_KINDS:
            raise ValueError(f"unknown WAL record kind {kind!r}")
        raw_file = payload.get("file")
        return cls(
            seq=int(payload["seq"]),  # type: ignore[arg-type]
            kind=kind,
            file=file_from_dict(raw_file) if raw_file is not None else None,  # type: ignore[arg-type]
        )


@dataclass
class WALReplay:
    """Outcome of scanning a log: the intact records plus tail diagnostics.

    ``truncated`` is True when the scan stopped at a torn or corrupt line
    (the crash case the log is designed for); ``bad_line`` carries the
    offending line number for diagnostics, and ``good_bytes`` the offset of
    the end of the last intact record (what reopening truncates back to).
    """

    records: List[WALRecord] = field(default_factory=list)
    truncated: bool = False
    bad_line: Optional[int] = None
    good_bytes: int = 0

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else 0

    def __iter__(self) -> Iterator[WALRecord]:
        return iter(self.records)


class WriteAheadLog:
    """Append-only, checksummed JSONL log with an fsync-batching knob.

    Parameters
    ----------
    path:
        Log file location (created, with parents, on first use).
    fsync_every:
        ``1`` = fsync per append (full durability), ``N`` = fsync once per
        ``N`` appends, ``0`` = flush but never fsync explicitly.
    """

    def __init__(self, path: PathLike, *, fsync_every: int = 1) -> None:
        if fsync_every < 0:
            raise ValueError(f"fsync_every must be >= 0, got {fsync_every}")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.appended = 0
        self.syncs = 0
        self._unsynced = 0
        # Segment-shipping hooks: every appended record is handed to each
        # subscriber (the replication layer forwards them to replicas).
        self._listeners: List[Callable[[WALRecord], None]] = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        replay = self.scan(self.path) if self.path.exists() else WALReplay()
        self._next_seq = replay.last_seq + 1
        if replay.truncated:
            # Drop the torn tail so new appends follow the last intact
            # record instead of hiding behind an unparseable line.
            with self.path.open("r+", encoding="utf-8") as fh:
                fh.truncate(replay.good_bytes)
        size = self.path.stat().st_size if self.path.exists() else 0
        ended = size == 0
        if not ended:
            with self.path.open("rb") as fh:
                fh.seek(size - 1)
                ended = fh.read(1) == b"\n"
        self._fh = self.path.open("a", encoding="utf-8")
        if size == 0:
            self._fh.write(
                json.dumps({"format": WAL_FORMAT, "version": WAL_VERSION}) + "\n"
            )
            self._fh.flush()
        elif not ended:
            # The last intact line lost its newline in a crash: end it, or
            # the next record would join that line and neither would parse.
            self._fh.write("\n")
            self._fh.flush()

    # ------------------------------------------------------------------ appending
    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record (0 = none)."""
        return self._next_seq - 1

    def append(
        self,
        kind: str,
        file: Optional[FileMetadata] = None,
        *,
        seq: Optional[int] = None,
        notify: bool = True,
    ) -> int:
        """Log one mutation; returns its sequence number.

        The record is written and flushed to the OS immediately; whether it
        is fsynced now or with a later batch is governed by ``fsync_every``.

        ``seq`` logs the record under an explicit sequence number (a
        replica archiving a shipped segment keeps the primary's numbering)
        and advances the counter past it; it must not regress below the
        log's own next sequence.  ``notify=False`` skips the shipping
        hooks — archival appends must not echo back into the ship queues.
        """
        if kind not in WAL_KINDS:
            raise ValueError(f"unknown WAL record kind {kind!r}")
        if seq is None:
            seq = self._next_seq
        elif seq < self._next_seq:
            raise ValueError(
                f"explicit seq {seq} would regress the log (next is {self._next_seq})"
            )
        record = WALRecord(seq=seq, kind=kind, file=file)
        with get_tracer().span("wal.append", kind=kind, seq=seq):
            self._fh.write(json.dumps(record.to_payload()) + "\n")
            self._fh.flush()
        self._next_seq = seq + 1
        self.appended += 1
        self._unsynced += 1
        if self.fsync_every and self._unsynced >= self.fsync_every:
            self.sync()
        if notify:
            for listener in self._listeners:
                listener(record)
        return record.seq

    def subscribe(self, listener: Callable[["WALRecord"], None]) -> None:
        """Register a segment-shipping hook, called with every appended record.

        Hooks run *after* the record is durable under the log's
        ``fsync_every`` contract (the append itself), so a subscriber never
        observes a record the log could disown after a crash — the ordering
        replication relies on to ship only logged mutations.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[["WALRecord"], None]) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def sync(self) -> None:
        """Force an fsync of everything appended so far."""
        with get_tracer().span("wal.fsync", batched=self._unsynced):
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self.syncs += 1
        self._unsynced = 0

    def close(self) -> None:
        """Flush and close; drains the pending fsync batch.

        With ``fsync_every=0`` the no-explicit-fsync contract holds even
        here — the file is flushed to the OS and closed, nothing more.
        """
        if self._fh.closed:
            return
        if self.fsync_every and self._unsynced:
            self.sync()
        self._fh.flush()
        self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ reading
    @staticmethod
    def scan(path: PathLike) -> WALReplay:
        """Read a log from disk, stopping at the first torn/corrupt record.

        A missing file scans as an empty log (nothing was ever made
        durable); a bad header is an error — the artefact is not a WAL at
        all, silently replaying it as empty would mask real data loss.
        """
        path = Path(path)
        replay = WALReplay()
        if not path.exists():
            return replay
        with path.open("rb") as fh:
            header_line = fh.readline()
            if header_line:
                try:
                    header = json.loads(header_line)
                except json.JSONDecodeError:
                    if not fh.read(1):
                        # A lone torn line: the crash hit the very first
                        # header write, before any record could have been
                        # acknowledged.  Nothing was durable — replay empty.
                        replay.truncated = True
                        replay.bad_line = 1
                        return replay
                    raise ValueError(f"{path} has a corrupt header") from None
                if header.get("format") != WAL_FORMAT:
                    raise ValueError(
                        f"{path} is not a write-ahead log "
                        f"(format={header.get('format')!r})"
                    )
            replay.good_bytes = fh.tell()
            line_no = 1
            while True:
                line = fh.readline()
                if not line:
                    break
                line_no += 1
                if not line.strip():
                    replay.good_bytes = fh.tell()
                    continue
                try:
                    record = _parse_record_line(line)
                except (ValueError, KeyError, TypeError):
                    replay.truncated = True
                    replay.bad_line = line_no
                    break
                replay.records.append(record)
                replay.good_bytes = fh.tell()
        return replay

    def replay(self) -> WALReplay:
        """Scan this log's on-disk contents (including unsynced appends)."""
        self._fh.flush()
        return self.scan(self.path)

    # ------------------------------------------------------------------ checkpoint support
    def truncate_through(self, seq: int) -> int:
        """Drop every record with sequence number <= ``seq``.

        Called after a checkpoint has captured those records' effects.  The
        log is rewritten atomically (temp file + rename) so a crash during
        truncation leaves either the old or the new log, never a torn one.
        Returns the number of records retained.
        """
        # A checkpoint truncates through the last appended record: nothing
        # can survive, so the log is not parsed to find that out.
        kept = (
            []
            if seq >= self.last_seq
            else [r for r in self.replay().records if r.seq > seq]
        )
        self.rewrite(self.path, kept)
        self._fh.close()
        self._fh = self.path.open("a", encoding="utf-8")
        self._unsynced = 0
        return len(kept)

    @staticmethod
    def rewrite(path: PathLike, records: Sequence[WALRecord]) -> None:
        """Atomically (temp file + fsync + rename) make ``path`` a log of
        ``records``, in ascending seq: the writing twin of :meth:`scan`."""
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"format": WAL_FORMAT, "version": WAL_VERSION}) + "\n")
            for record in records:
                fh.write(json.dumps(record.to_payload()) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    # ------------------------------------------------------------------ introspection
    def size_bytes(self) -> int:
        self._fh.flush()
        return self.path.stat().st_size if self.path.exists() else 0

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(path={str(self.path)!r}, next_seq={self._next_seq}, "
            f"fsync_every={self.fsync_every}, appended={self.appended}, "
            f"syncs={self.syncs})"
        )
