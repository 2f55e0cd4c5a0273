"""The snapshot manifest: everything O(tail) recovery needs except rows.

A manifest is one atomically-swapped JSON file naming the live segment
set per first-level group *and* carrying the small derived state whose
recomputation is what makes legacy recovery O(corpus): the store config
and schema, the deployment-wide index-space bounds and fold center, the
LSI projection (``u`` and the singular values — ``vt`` is never used on
the query path), the semantic R-tree topology with per-leaf summaries
(MBR, semantic vector, Bloom filter bits, file count, hosting), and the
WAL sequence number the snapshot is consistent with.

Restoring is therefore: parse the manifest, rebuild the tree by wiring
persisted nodes and recomputing index-node summaries bottom-up (the same
``refresh_from_children`` the live tree uses, over children in persisted
order — so the recomputed summaries are bit-identical to the live ones),
point every unit at its rows of the open segments (a cold
:class:`~repro.storage.lazy.SegmentRows` block), and replay the WAL
records past the manifest's ``wal_seq``.  No
SVD, no k-means, no per-record JSON decode.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Set

import numpy as np

from repro.bloom.bloom import BloomFilter
from repro.cluster.simulator import ClusterSimulator
from repro.core.offline import OfflineRouter
from repro.core.queries import QueryEngine
from repro.core.semantic_rtree import SemanticNode, SemanticRTree
from repro.core.smartstore import SmartStore, config_from_dict, config_to_dict
from repro.core.versioning import VersioningManager
from repro.lsi.model import LSIModel
from repro.persistence.jsonl import schema_from_dict, schema_to_dict
from repro.storage.lazy import bind_segment
from repro.storage.segment import Segment

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "MANIFEST_NAME",
    "bloom_to_dict",
    "bloom_from_dict",
    "manifest_from_store",
    "restore_store",
]

MANIFEST_FORMAT = "repro.segment-manifest"
MANIFEST_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"


def bloom_to_dict(bloom: BloomFilter) -> Dict[str, object]:
    """Bit-exact Bloom filter codec (packed bits as hex)."""
    return {
        "num_bits": bloom.num_bits,
        "num_hashes": bloom.num_hashes,
        "count": bloom.count,
        "bits": np.packbits(bloom.bits).tobytes().hex(),
    }


def bloom_from_dict(payload: Mapping[str, object]) -> BloomFilter:
    num_bits = int(payload["num_bits"])  # type: ignore[arg-type]
    bloom = BloomFilter(num_bits, int(payload["num_hashes"]))  # type: ignore[arg-type]
    raw = bytes.fromhex(str(payload["bits"]))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:num_bits]
    bloom.bits = bits.astype(bool)
    bloom.count = int(payload["count"])  # type: ignore[arg-type]
    return bloom


def _node_to_dict(node: SemanticNode) -> Dict[str, object]:
    record: Dict[str, object] = {
        "node_id": node.node_id,
        "level": node.level,
        "unit_id": node.unit_id,
        "parent": node.parent.node_id if node.parent is not None else None,
        "children": [c.node_id for c in node.children],
        "hosted_on": node.hosted_on,
        "replica_hosts": list(node.replica_hosts),
        "file_count": int(node.file_count),
    }
    # Leaf summaries are primary state (they come from the partitioner
    # and the applied mutations); index-node summaries are derived and
    # recomputed bottom-up at restore.
    if node.is_leaf:
        record["mbr_lower"] = (
            [float(x) for x in node.mbr.lower] if node.mbr is not None else None
        )
        record["mbr_upper"] = (
            [float(x) for x in node.mbr.upper] if node.mbr is not None else None
        )
        record["semantic_vector"] = (
            [float(x) for x in node.semantic_vector]
            if node.semantic_vector is not None
            else None
        )
        record["bloom"] = (
            bloom_to_dict(node.bloom) if node.bloom is not None else None
        )
    return record


def manifest_from_store(
    store: Any, *, wal_seq: int, segments: Dict[str, Dict[str, object]]
) -> Dict[str, object]:
    """Build the manifest payload for a store whose overlay is drained."""
    engine = store.engine
    lsi = store.lsi
    return {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "wal_seq": int(wal_seq),
        "config": config_to_dict(store.config),
        "schema": schema_to_dict(store.schema),
        "num_units": len(store.cluster.servers),
        "index_lower": [float(x) for x in store.index_lower],
        "index_upper": [float(x) for x in store.index_upper],
        "center": [float(x) for x in engine.center],
        "thresholds": [float(x) for x in store.tree.thresholds],
        "lsi": {
            "rank": int(lsi.rank),
            "u": np.asarray(lsi.u, dtype=np.float64).tolist(),
            "singular_values": np.asarray(
                lsi.singular_values, dtype=np.float64
            ).tolist(),
        },
        "tree": {
            "root": store.tree.root.node_id,
            "nodes": [_node_to_dict(n) for n in store.tree.nodes],
        },
        "segments": segments,
    }


def _restore_tree(
    payload: Mapping[str, object],
    thresholds: List[float],
    max_fanout: int,
    *,
    quarantined_units: Set[int],
    bloom_bits: int,
    bloom_hashes: int,
) -> SemanticRTree:
    records: List[Dict[str, object]] = list(payload["nodes"])  # type: ignore[arg-type]
    by_id: Dict[int, SemanticNode] = {}
    nodes: List[SemanticNode] = []
    for rec in records:
        node = SemanticNode(
            int(rec["node_id"]),  # type: ignore[arg-type]
            int(rec["level"]),  # type: ignore[arg-type]
            unit_id=rec["unit_id"],  # type: ignore[arg-type]
        )
        node.hosted_on = rec["hosted_on"]
        node.replica_hosts = list(rec["replica_hosts"])  # type: ignore[arg-type]
        node.file_count = int(rec["file_count"])  # type: ignore[arg-type]
        if rec.get("semantic_vector") is not None:
            node.semantic_vector = np.asarray(
                rec["semantic_vector"], dtype=np.float64
            )
        if rec.get("mbr_lower") is not None:
            from repro.rtree.mbr import MBR

            node.mbr = MBR(
                np.asarray(rec["mbr_lower"], dtype=np.float64),
                np.asarray(rec["mbr_upper"], dtype=np.float64),
            )
        if rec.get("bloom") is not None:
            node.bloom = bloom_from_dict(rec["bloom"])  # type: ignore[arg-type]
        by_id[node.node_id] = node
        nodes.append(node)
    for rec in records:
        parent = by_id[int(rec["node_id"])]  # type: ignore[arg-type]
        for child_id in rec["children"]:  # type: ignore[attr-defined]
            parent.add_child(by_id[int(child_id)])
    root = by_id[int(payload["root"])]  # type: ignore[arg-type]
    leaves = {
        n.unit_id: n for n in nodes if n.is_leaf and n.unit_id is not None
    }
    # A quarantined group's rows are gone until WAL replay restores the
    # tail; its leaves answer as freshly-empty units (subset, never
    # wrong).  The semantic vector survives — it is partitioner state,
    # not row state — so routing of replayed inserts stays sensible.
    for unit_id in quarantined_units:
        leaf = leaves.get(unit_id)
        if leaf is None:
            continue
        leaf.mbr = None
        leaf.file_count = 0
        leaf.bloom = BloomFilter(bloom_bits, bloom_hashes)

    def _refresh(node: SemanticNode) -> None:
        for child in node.children:
            _refresh(child)
        node.refresh_from_children()

    _refresh(root)
    return SemanticRTree(root, nodes, leaves, thresholds, max_fanout)


def restore_store(
    manifest: Mapping[str, object],
    *,
    segments: Iterable[Segment],
    quarantined_groups: Set[int],
    segstore: Optional[Any] = None,
) -> SmartStore:
    """Reconstruct a :class:`SmartStore` from a manifest + open segments.

    ``segments`` are the validated open segments;
    ``quarantined_groups`` lists groups whose segments failed validation
    (their units restore empty and rely on WAL replay).  The returned
    store's servers are *cold* — nothing row-level has been decoded.
    """
    config = config_from_dict(dict(manifest["config"]))  # type: ignore[arg-type]
    schema = schema_from_dict(dict(manifest["schema"]))  # type: ignore[arg-type]
    num_units = int(manifest["num_units"])  # type: ignore[arg-type]
    thresholds = [float(x) for x in manifest["thresholds"]]  # type: ignore[union-attr]

    quarantined_units: Set[int] = set()
    segment_table: Mapping[str, Mapping[str, object]] = manifest["segments"]  # type: ignore[assignment]
    for gid_str, entry in segment_table.items():
        if int(gid_str) in quarantined_groups:
            for uid in dict(entry["units"]):  # type: ignore[arg-type]
                quarantined_units.add(int(uid))

    tree = _restore_tree(
        manifest["tree"],  # type: ignore[arg-type]
        thresholds,
        config.max_fanout,
        quarantined_units=quarantined_units,
        bloom_bits=config.bloom_bits,
        bloom_hashes=config.bloom_hashes,
    )

    cluster = ClusterSimulator(
        num_units,
        schema,
        cost_model=config.cost_model,
        seed=config.seed,
        bloom_bits=config.bloom_bits,
        bloom_hashes=config.bloom_hashes,
    )
    index_lower = np.asarray(manifest["index_lower"], dtype=np.float64)
    index_upper = np.asarray(manifest["index_upper"], dtype=np.float64)
    cluster.install_normalization(index_lower, index_upper)
    for unit_id, server in cluster.servers.items():
        server.residency = segstore
        leaf = tree.leaves.get(unit_id)
        if leaf is not None and leaf.bloom is not None:
            server.bloom = leaf.bloom.copy()
    for segment in segments:
        for unit_id, row_range in segment.units.items():
            bind_segment(cluster.server(unit_id), segment, row_range)

    lsi_payload: Mapping[str, object] = manifest["lsi"]  # type: ignore[assignment]
    singular = np.asarray(lsi_payload["singular_values"], dtype=np.float64)
    lsi = LSIModel(
        rank=int(lsi_payload["rank"]),  # type: ignore[arg-type]
        u=np.asarray(lsi_payload["u"], dtype=np.float64),
        singular_values=singular,
        # vt is only consulted by offline corpus analysis, never by the
        # query path (fold_in uses u and the singular values).
        vt=np.zeros((len(singular), 0), dtype=np.float64),
    )

    versioning = VersioningManager(config.version_ratio)
    offline_router = OfflineRouter(
        tree, lazy_update_threshold=config.lazy_update_threshold
    )
    engine = QueryEngine(
        tree=tree,
        cluster=cluster,
        lsi=lsi,
        schema=schema,
        index_lower=index_lower,
        index_upper=index_upper,
        log_mask=schema.log_scale_mask(),
        center=np.asarray(manifest["center"], dtype=np.float64),
        versioning=versioning,
        offline_router=offline_router,
        mode=config.mode,
        versioning_enabled=config.versioning_enabled,
        search_breadth=config.search_breadth,
        cost_model=config.cost_model,
    )
    return SmartStore(
        config=config,
        schema=schema,
        cluster=cluster,
        tree=tree,
        partition=None,
        lsi=lsi,
        index_lower=index_lower,
        index_upper=index_upper,
        versioning=versioning,
        offline_router=offline_router,
        engine=engine,
    )
