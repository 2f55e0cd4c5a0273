"""Tiered persistent storage: immutable mmap-backed segments beneath the
mutable in-memory recent layer.

The compactor's per-group drains freeze applied state into checksummed,
immutable, struct-of-arrays segment files named by an atomically-swapped
manifest; queries fault evicted groups in lazily through a bounded LRU
(answering from mmap without full deserialization in the meantime); and
cold start becomes "load manifest + mmap segments + replay WAL tail" —
O(tail), not O(corpus)."""

from repro.storage.config import (
    SNAPSHOT_POLICIES,
    StorageConfig,
    storage_config_from_dict,
    storage_config_to_dict,
)
from repro.storage.manifest import (
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    manifest_from_store,
    restore_store,
)
from repro.storage.segment import (
    SEGMENT_FORMAT,
    SEGMENT_VERSION,
    Segment,
    SegmentCorruptError,
    SegmentInfo,
    name_hash64,
    write_segment,
)
from repro.storage.store import (
    RecoveryReport,
    SegmentStore,
    has_snapshot,
    open_storage,
    ship_snapshot,
)

__all__ = [
    "SNAPSHOT_POLICIES",
    "StorageConfig",
    "storage_config_from_dict",
    "storage_config_to_dict",
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "manifest_from_store",
    "restore_store",
    "SEGMENT_FORMAT",
    "SEGMENT_VERSION",
    "Segment",
    "SegmentCorruptError",
    "SegmentInfo",
    "name_hash64",
    "write_segment",
    "RecoveryReport",
    "SegmentStore",
    "has_snapshot",
    "open_storage",
    "ship_snapshot",
]
