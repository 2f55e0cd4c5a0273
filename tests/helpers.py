"""Shared helpers importable by individual test modules.

Kept separate from ``conftest.py`` so that test modules can ``import`` it
without relying on pytest's conftest module-name handling (which can clash
when several suites are collected in one run).
"""

from __future__ import annotations

import numpy as np

from repro.metadata.file_metadata import FileMetadata

#: The attribute values every record of a tie block shares.
TIE_ATTRS = {
    "size": 8192.0,
    "ctime": 2000.0,
    "mtime": 2100.0,
    "atime": 2200.0,
    "read_bytes": 4096.0,
    "write_bytes": 1024.0,
    "access_count": 7.0,
    "owner": 2.0,
}


def make_twins(n: int = 10) -> list:
    """``n`` records with identical attribute values: every distance ties
    exactly, so answers anchored on the block are pure tie-breaking."""
    return [
        FileMetadata(path=f"/ties/twin{i:02d}.dat", attributes=dict(TIE_ATTRS))
        for i in range(n)
    ]


def unit_of(files, unit_id: int = 0, bounds=None):
    """An in-memory storage unit holding ``files`` (``write_segment``'s
    input); ``bounds`` are ``(lower, upper)`` normalisation bounds."""
    from repro.cluster.node import StorageServer

    unit = StorageServer(unit_id)
    if bounds is not None:
        unit.set_normalization(*bounds)
    unit.add_files(files)
    return unit


def make_files(n: int = 60, seed: int = 0, clusters: int = 4) -> list:
    """A small, deterministic file population with obvious cluster structure."""
    rng = np.random.default_rng(seed)
    files = []
    for i in range(n):
        cluster = i % clusters
        base_time = 1000.0 * (cluster + 1)
        size = float(2 ** (10 + cluster) * rng.uniform(0.8, 1.2))
        files.append(
            FileMetadata(
                path=f"/data/proj{cluster}/file{i:04d}.dat",
                attributes={
                    "size": size,
                    "ctime": base_time + rng.uniform(0, 50),
                    "mtime": base_time + 60 + rng.uniform(0, 50),
                    "atime": base_time + 120 + rng.uniform(0, 50),
                    "read_bytes": size * rng.uniform(0.5, 1.5),
                    "write_bytes": size * rng.uniform(0.1, 0.4),
                    "access_count": float(rng.integers(1, 20)),
                    "owner": float(cluster),
                },
                extra={"cluster": cluster},
            )
        )
    return files


# ---------------------------------------------------------------------------- oracles
def pending_files(versioning, group_id, metrics=None) -> list:
    """One group's chain view: the latest inserts and modifies recorded
    there, charged one record scan per change in its chain."""
    if metrics is not None:
        metrics.record_scan(len(versioning._chains.get(group_id, ())))
    latest = (versioning._latest[fid][2] for fid in versioning._members.get(group_id, ()))
    return [change.file for change in latest if change.kind != "delete"]


def pending_distances(engine, files, attributes, query_norm) -> list:
    """Top-k distance of each record of ``files`` from the normalised query
    point, from the records' attribute dicts: their values on the queried
    attributes stacked, normalised and measured with one kernel each."""
    from repro.core.queries import _row_norms

    if not files:
        return []
    idx = list(engine.schema.indices(attributes))
    values = [[f.attributes.get(a, 0.0) for a in attributes] for f in files]
    normalised = engine.normalize_index_values(idx, engine.to_index_space(idx, values))
    return _row_norms(normalised - query_norm).tolist()


def scan_knn(server, query_norm, k, metrics=None, *, attr_indices) -> list:
    """A unit's top-k candidates as ``(distance, record)`` pairs: its
    ``knn_candidates`` with every candidate's record decoded."""
    distances, _, rows = server.knn_candidates(query_norm, k, metrics, attr_indices=attr_indices)
    return [(dist, server.record_at(row)) for dist, row in zip(distances, rows)]


def assert_summaries_match_nodes(tree, router=None, *, names=(), seed=0) -> None:
    """The derived summary tables against a per-node recompute.

    Every row of ``tree.summaries()`` must equal what the nodes say *now*,
    and every routing answer computed from the tables must equal the one
    the retained single-node methods (``BloomFilter.contains``,
    ``SemanticNode.intersects_subrange`` / ``min_distance_subrange``)
    give, bit for bit — including the number of probes charged.  With
    ``router`` (an ``OfflineRouter``) the stacked replicas are checked
    against the replica records the same way.
    """
    from repro.cluster.metrics import Metrics

    tables = tree.summaries()

    # --- rows: the object walk, node by node
    order, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    assert [n.node_id for n in tables.nodes] == [n.node_id for n in order]
    for row, node in enumerate(order):
        assert [tables.nodes[r] for r in tables.child_rows[row]] == list(node.children)
        expected = node.bloom.bits if node.bloom is not None else True
        assert np.array_equal(tables.bloom_bits[row], np.broadcast_to(expected, tables.bloom_bits[row].shape))

    parents = {l.parent.node_id: l.parent for l in tree.leaves.values() if l.parent}
    groups = sorted(parents.values(), key=lambda n: n.node_id) or [tree.root]
    assert tables.groups == groups and tree.first_level_groups() == groups

    assert len(tables.boxes) == len(order)
    for row, node in enumerate(order):
        assert bool(tables.boxes.present[row]) == (node.mbr is not None)
        if node.mbr is not None:
            assert np.array_equal(tables.boxes.lower[row], node.mbr.lower)
            assert np.array_equal(tables.boxes.upper[row], node.mbr.upper)
    assert [tables.nodes[r] for r in tables.group_rows] == groups
    for group in groups:
        leaves, rows = tables.leaves_of(group)
        assert leaves == group.descendant_leaves()
        assert [tables.nodes[r] for r in rows] == leaves

    # --- filename routing: hits, hit order and probes charged
    def reference_route(filename):
        hits, probes, stack = [], 0, [tree.root]
        while stack:
            node = stack.pop()
            probes += 1
            if node.bloom is not None and not node.bloom.contains(filename):
                continue
            if node.is_leaf:
                hits.append(node)
            else:
                stack.extend(node.children)
        return hits, probes

    for name in list(names) + ["no-such-file.bin"]:
        metrics = Metrics()
        hits = tree.route_filename(name, metrics)
        expected_hits, expected_probes = reference_route(name)
        assert hits == expected_hits
        assert metrics.bloom_probes == expected_probes
        assert metrics.memory_index_accesses == expected_probes

    # --- geometry: random windows and points over random attribute subsets
    boxed = [n.mbr for n in order if n.mbr is not None]
    if not boxed:
        return
    rng = np.random.default_rng(seed)
    lo = np.minimum.reduce([m.lower for m in boxed])
    hi = np.maximum.reduce([m.upper for m in boxed])
    dim = lo.shape[0]
    for _ in range(6):
        idx = sorted(rng.choice(dim, size=int(rng.integers(1, dim + 1)), replace=False).tolist())
        span = np.maximum(hi[idx] - lo[idx], 1.0)
        a = lo[idx] - 0.2 * span + rng.random(len(idx)) * 1.4 * span
        b = lo[idx] - 0.2 * span + rng.random(len(idx)) * 1.4 * span
        lower, upper = np.minimum(a, b), np.maximum(a, b)

        metrics = Metrics()
        assert tree.groups_for_range(idx, lower, upper, metrics) == [
            g for g in groups if g.intersects_subrange(idx, lower, upper)
        ]
        assert metrics.memory_index_accesses == len(groups)
        assert tables.boxes.intersects_subrange(idx, lower, upper).tolist() == [
            node.intersects_subrange(idx, lower, upper) for node in order
        ]
        if router is not None:
            metrics = Metrics()
            expected = [
                gid
                for gid, replica in router.replicas.items()
                if replica.mbr is not None
                and np.all(replica.mbr.lower[idx] <= upper)
                and np.all(lower <= replica.mbr.upper[idx])
            ]
            assert router.groups_for_range(idx, lower, upper, metrics) == expected
            assert metrics.memory_index_accesses == len(router.replicas)

        # MINDIST: the very floats, hence the very walk order
        mindists = tables.boxes.min_distance_subrange(idx, a, lo[idx], hi[idx])
        assert mindists.tolist() == [
            node.min_distance_subrange(idx, a, lo[idx], hi[idx]) for node in order
        ]
        mindists = mindists[tables.group_rows]
        assert [groups[r] for r in np.argsort(mindists, kind="stable")] == sorted(
            groups, key=lambda g: g.min_distance_subrange(idx, a, lo[idx], hi[idx])
        )


def route_by_loop(router, semantic_vector, metrics=None):
    """The per-replica routing loop ``OfflineRouter.target_group_for_vector``
    ran before its batched kernel: the kernel's oracle, ``(group id,
    similarity)``, one index access charged per replica."""
    from repro.cluster.metrics import Metrics

    metrics = metrics if metrics is not None else Metrics()
    query = np.asarray(semantic_vector, dtype=np.float64)
    q_norm = np.linalg.norm(query)
    best_gid = next(iter(router.replicas))
    best_sim = -np.inf
    for gid, replica in router.replicas.items():
        metrics.record_index_access()
        vec = replica.semantic_vector
        denom = q_norm * np.linalg.norm(vec)
        sim = float(np.dot(query, vec[: query.shape[0]]) / denom) if denom > 0 else 0.0
        if sim > best_sim:
            best_sim = sim
            best_gid = gid
    return best_gid, best_sim


def apply_changes_one_by_one(store, changes) -> int:
    """The per-change loop ``SmartStore.apply_changes`` ran before it
    planned one patch per unit: every change goes straight to the units
    (``add_file`` / ``remove_file``), then each touched leaf is refreshed
    and the listener told, as the batched drain does.  The drain's oracle."""
    touched = {}
    for change in changes:
        fid = change.file.file_id
        if change.kind in ("insert", "modify"):
            prev_unit = store._file_locations.get(fid)
            if prev_unit is not None:
                store.cluster.server(prev_unit).remove_file(fid)
                touched.setdefault(prev_unit, [])
            store.cluster.server(change.unit_id).add_file(change.file)
            store._file_locations[fid] = change.unit_id
            touched.setdefault(change.unit_id, []).append(change.file.filename)
            store._pending_insertions = max(0, store._pending_insertions - 1)
        else:
            removed = store.cluster.server(change.unit_id).remove_file(fid)
            owner = store._file_locations.pop(fid, None)
            if removed is None and owner is not None and owner != change.unit_id:
                store.cluster.server(owner).remove_file(fid)
                touched.setdefault(owner, [])
            if removed is not None or owner is not None:
                touched.setdefault(change.unit_id, [])
            store._pending_deletions = max(0, store._pending_deletions - 1)
    for unit_id, new_names in touched.items():
        server = store.cluster.server(unit_id)
        store.tree.refresh_leaf(
            unit_id, mbr=server.mbr(), file_count=len(server), new_filenames=new_names
        )
    if touched and store.on_units_touched is not None:
        store.on_units_touched(list(touched.keys()), [c.file.file_id for c in changes])
    return len(changes)
