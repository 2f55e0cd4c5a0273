"""A restart after a failover or a resync loses no acknowledged write.

A replica group's members each keep their own log, and a failover or a
resync leaves those logs different: the crashed primary's ends early, a
resynced member's restarts at the resync's watermark.  A restart must
pick the primary and the history from all of them (docs/INVARIANTS.md
§20).  Each case below drives one such history through ``connect``,
closes the client, connects again with the same spec and files, and
checks that every acknowledged insert is found, every acknowledged delete
stays gone, a record planted on one member only is gone, and the members
agree.
"""

import pytest

from repro.api import DeploymentSpec, connect
from repro.core.smartstore import SmartStoreConfig
from repro.replication import FaultInjector, ReplicaGroup
from repro.storage import StorageConfig
from repro.workloads.types import PointQuery

from helpers import make_files

CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)
SCENARIOS = ("crash_primary", "before_ship", "after_ship", "resync")


@pytest.fixture(scope="module")
def population():
    return make_files(80, clusters=4)


@pytest.fixture(scope="module")
def newcomers():
    return make_files(90, clusters=4, seed=5)[80:]


def _groups(store):
    return [store] if isinstance(store, ReplicaGroup) else store.replica_groups()


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("storage", [False, True], ids=["wal", "storage"])
@pytest.mark.parametrize("topology", ["replicated", "sharded_replicated"])
def test_restart_after_failover_keeps_every_acked_write(
    topology, storage, scenario, population, newcomers, tmp_path
):
    spec = DeploymentSpec(
        topology=topology,
        store=CONFIG,
        shards=2,
        replicas=1,
        wal_dir=str(tmp_path / "wal"),
        storage=StorageConfig(root=str(tmp_path / "snap")) if storage else None,
    )
    inserted, deleted, planted = newcomers[:3], population[5:7], newcomers[3:]
    with connect(spec, population) as client:
        faults = FaultInjector(client.store)
        if storage:
            client.checkpoint()
        client.insert(inserted[0])
        client.delete(deleted[0])
        if scenario == "crash_primary":
            faults.crash_primary()
        elif scenario == "resync":
            # A record only member 1 holds (a never-shipped write), repaired
            # by anti-entropy: a rebuild without storage, a snapshot ship
            # with it.  Either restarts member 1's log at the watermark.
            for group, file in zip(faults.groups, planted):
                member = group.members[1]
                with member.lock:
                    member.pipeline.insert(file)
            assert client.store.anti_entropy()["repaired"] == len(faults.groups)
        else:
            for group_id in range(len(faults.groups)):
                faults.fail_primary_at(group_id, scenario)
        client.insert(inserted[1])
        if scenario == "resync":
            faults.crash_primary()
        client.insert(inserted[2])
        client.delete(deleted[1])
        assert sum(g.failovers for g in faults.groups) >= 1

    with connect(spec, population) as client:
        for file in inserted:
            assert client.execute(PointQuery(file.filename)).found, file.path
        for file in deleted:
            assert not client.execute(PointQuery(file.filename)).found, file.path
        planted_ids = {f.file_id for f in planted}
        for group in _groups(client.store):
            prints = group.fingerprints()
            assert None not in prints and len(set(prints)) == 1
            for member in group.members:
                held = {f.file_id for f in member.pipeline.materialized_files()}
                assert not held & planted_ids
