"""The durable write path: WAL-backed online mutations over a deployment.

``repro.ingest`` turns the read-mostly reproduction into a read/write
metadata service.  A mutation is logged, then recorded once, in its
group's version chain (:mod:`repro.core.versioning`, the one store of
pending changes); attaching a pipeline makes every read see the chains
with read-your-writes visibility, deletions included, until compaction
applies them:

``repro.ingest.wal``
    :class:`WriteAheadLog` — append-only, checksummed JSONL log with an
    fsync-batching knob, torn-tail-tolerant replay and checkpoint
    truncation.
``repro.ingest.compactor``
    :class:`Compactor` + :class:`CompactionPolicy` — incremental, per-group
    draining of the version chains into the semantic R-tree with leaf
    MBR/Bloom refresh, hot-group splitting and partial off-line replica
    refresh.
``repro.ingest.pipeline``
    :class:`IngestPipeline` — log-first mutation ordering, segment-snapshot
    checkpointing, and :func:`open_member`, the one way a store, shard or
    replica is opened (restore or build, open its log, replay it);
    :func:`recover_from_storage` is its snapshot-only form.
"""

from repro.ingest.compactor import CompactionPolicy, CompactionStats, Compactor
from repro.ingest.pipeline import (
    IngestPipeline,
    MutationReceipt,
    open_member,
    recover_from_storage,
)
from repro.ingest.wal import WALRecord, WALReplay, WriteAheadLog

__all__ = [
    "CompactionPolicy",
    "CompactionStats",
    "Compactor",
    "IngestPipeline",
    "MutationReceipt",
    "WALRecord",
    "WALReplay",
    "WriteAheadLog",
    "open_member",
    "recover_from_storage",
]
