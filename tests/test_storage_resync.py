"""Snapshot-shipping resync: divergent replicas are repaired by shipping
the primary's published segments, not by rebuilding the whole index.

The fallback repair (``_resync_rebuild``) re-indexes the primary's full
materialised population — O(corpus) of SVD/k-means per repair.  With
tiered storage on both ends the primary publishes a fresh snapshot and
the group ships the manifest plus whatever segments the member is
missing, then cold-starts the member from the copy.  These tests pin the
*choice* (ship counters up, rebuild counter still zero), the metrics
trail, and the fallback.
"""

from pathlib import Path

from repro.api.client import connect
from repro.api.spec import DeploymentSpec
from repro.core.smartstore import SmartStoreConfig
from repro.obs.metrics import get_registry
from repro.storage import StorageConfig, has_snapshot

from helpers import make_files


def _spec(tmp_path):
    return DeploymentSpec(
        topology="replicated",
        store=SmartStoreConfig(num_units=4, seed=0, search_breadth=64),
        replicas=2,
        wal_dir=str(tmp_path / "wal"),
        storage=StorageConfig(
            root=str(tmp_path / "snap"),
            resident_segments=64,
        ),
    )


def _diverge(group, member_id, file):
    """Plant a never-shipped record on one member (the ex-primary shape)."""
    member = group.members[member_id]
    with member.lock:
        member.pipeline.insert(file)


class TestSnapshotShipChosen:
    def test_resync_ships_instead_of_rebuilding(self, tmp_path):
        files = make_files(64, seed=1)
        registry = get_registry()
        ships_before = registry.counter("resync_snapshot_ship_total").value
        bytes_before = registry.counter("resync_snapshot_bytes_total").value

        client = connect(_spec(tmp_path), files[:60])
        group = client.store
        try:
            _diverge(group, 1, files[60])
            report = group.anti_entropy()
            assert report == {"checked": 2, "repaired": 1}

            # The choice under test: shipped, not rebuilt.
            assert group.snapshot_ships == 1
            assert group.rebuild_resyncs == 0
            assert group.snapshot_bytes > 0
            assert group.resyncs == 1

            # Metrics satellite: the registry counters moved too.
            assert (
                registry.counter("resync_snapshot_ship_total").value
                == ships_before + 1
            )
            assert (
                registry.counter("resync_snapshot_bytes_total").value
                == bytes_before + group.snapshot_bytes
            )

            # Repair actually converged, and the member now owns a real
            # snapshot root of its own (<root>/r1) it can cold-start from.
            prints = group.fingerprints()
            assert len(set(prints)) == 1 and None not in prints
            assert has_snapshot(Path(str(tmp_path / "snap")) / "r1")
        finally:
            client.close()

    def test_post_resync_writes_still_replicate(self, tmp_path):
        files = make_files(64, seed=2)
        client = connect(_spec(tmp_path), files[:56])
        group = client.store
        try:
            _diverge(group, 1, files[56])
            group.anti_entropy()
            assert group.snapshot_ships == 1

            for f in files[57:61]:
                client.insert(f)
            for member in group.members[1:]:
                group.pump(member)
            prints = group.fingerprints()
            assert len(set(prints)) == 1 and None not in prints
        finally:
            client.close()

    def test_second_resync_ships_incrementally(self, tmp_path):
        # Unchanged segments are skipped on the second ship: the bytes the
        # repeat repair moves stay below a fresh full copy's.
        files = make_files(72, seed=3)
        client = connect(_spec(tmp_path), files[:64])
        group = client.store
        try:
            _diverge(group, 1, files[64])
            group.anti_entropy()
            first = group.snapshot_bytes
            assert group.snapshot_ships == 1

            _diverge(group, 1, files[65])
            group.anti_entropy()
            second = group.snapshot_bytes - first
            assert group.snapshot_ships == 2
            assert group.rebuild_resyncs == 0
            assert 0 < second < first
        finally:
            client.close()


class TestRebuildFallback:
    def test_without_storage_falls_back_to_rebuild(self, tmp_path):
        # No segment store on either end: there is nothing to ship, so
        # the full rebuild from the primary's population runs.
        files = make_files(56, seed=4)
        spec = DeploymentSpec(
            topology="replicated",
            store=SmartStoreConfig(num_units=4, seed=0, search_breadth=64),
            replicas=2,
        )
        client = connect(spec, files[:52])
        group = client.store
        try:
            _diverge(group, 1, files[52])
            group.anti_entropy()
            assert group.snapshot_ships == 0
            assert group.rebuild_resyncs == 1
            prints = group.fingerprints()
            assert len(set(prints)) == 1 and None not in prints
        finally:
            client.close()


def test_spec_with_a_snapshot_policy_still_loads(tmp_path):
    payload = _spec(tmp_path).to_dict()
    payload["storage"]["snapshot_policy"] = "manual"  # a field older specs still carry
    assert DeploymentSpec.from_dict(payload) == _spec(tmp_path)
