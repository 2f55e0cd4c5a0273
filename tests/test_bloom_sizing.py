"""Bloom filters sized from the population they summarise.

A build resolves one filter width for its tree from the largest storage
unit (``bloom.sized_bits``) and every filter of the deployment — unit,
leaf, index unit, a unit that joins later, a leaf restored empty — has it.
Held here at a derived width above the paper's 1,024 bits:

* no false negative, ever, over insert / delete / modify streams,
  compaction with hot-group splits, ``reconfigure()`` and restores
  (filters are never rebuilt on delete, §5.4.1);
* a restored deployment's filters are bit-identical to the live ones;
* a build of <= 102 names per unit equals a ``bloom_bits=1024`` build bit
  for bit (the paper's configuration is unchanged);
* ``bloom_bits=None`` survives the config and spec round-trips, and an old
  spec carrying 1024 still loads as 1024.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DeploymentSpec
from repro.bloom import DEFAULT_BITS, sized_bits
from repro.core.queries import ReadContext
from repro.core.reconfig import insert_storage_unit
from repro.core.semantic_rtree import StorageUnitDescriptor
from repro.core.smartstore import SmartStore, SmartStoreConfig, config_from_dict, config_to_dict
from repro.ingest.compactor import CompactionPolicy
from repro.ingest.pipeline import IngestPipeline, recover_from_storage
from repro.ingest.wal import WriteAheadLog
from repro.metadata.file_metadata import FileMetadata
from repro.storage import SegmentStore
from repro.workloads.types import PointQuery

from helpers import assert_summaries_match_nodes, make_files

CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)
#: Up to 144 names per unit: a derived width above 1,024.
BASE = 720
#: Low enough that a few dozen correlated inserts split a group.
SPLITTING = CompactionPolicy(max_staged_per_group=8, hot_group_factor=1.5)


def filters(store):
    """Every filter of a deployment: each unit's own and each tree node's."""

    def key(bloom):
        return bloom.num_bits, bloom.num_hashes, bloom.count, bloom.bits.tobytes()

    units = {uid: key(server.bloom) for uid, server in store.cluster.servers.items()}
    nodes = {node.node_id: key(node.bloom) for node in store.tree.nodes}
    return units, nodes


def assert_one_width(store):
    width = store.config.bloom_bits
    assert all(server.bloom.num_bits == width for server in store.cluster)
    assert all(node.bloom.num_bits == width for node in store.tree.nodes)


def assert_no_false_negative(store, live):
    """Every applied name passes its unit's filter and the tree walk to that
    unit; every live name (applied or staged) is answered."""
    for f in store.files:
        unit_id = store._file_locations[f.file_id]
        assert store.cluster.server(unit_id).bloom.contains(f.filename)
        assert unit_id in {leaf.unit_id for leaf in store.tree.route_filename(f.filename)}
    for i, f in enumerate(live.values()):
        result = store.engine.execute(
            PointQuery(f.filename), ReadContext(home_unit=i % store.cluster.num_units)
        )
        assert f.file_id in {g.file_id for g in result.files}, f.filename


def hot_clones(store, files, n, prefix):
    """Records correlated with one of a multi-unit group's records: routing
    piles them into that group until compaction splits it."""
    group = next(g for g in store.tree.first_level_groups() if len(g.children) >= 2)
    units = set(group.descendant_unit_ids())
    template = next(f for f in files if store._file_locations[f.file_id] in units)
    out = []
    for i in range(n):
        attrs = dict(template.attributes)
        attrs["size"] *= 1.0 + 0.01 * i
        attrs["mtime"] += i
        out.append(FileMetadata(path=f"/data/{prefix}/h{i:04d}.dat", attributes=attrs))
    return out


@pytest.fixture(scope="module")
def files():
    return make_files(BASE + 60, clusters=3)


# ---------------------------------------------------------------------------- the rule
class TestTheSizingRule:
    def test_ten_bits_per_name_above_the_paper_floor_in_whole_words(self):
        assert sized_bits(0) == sized_bits(102) == DEFAULT_BITS == 1024
        assert sized_bits(103) == 1088  # 1,030 rounded up to 64-bit words
        assert sized_bits(1000) == 10048
        assert all(sized_bits(n) % 64 == 0 and sized_bits(n) >= 10 * n for n in range(0, 3000, 7))

    def test_a_build_resolves_one_width_from_its_largest_unit(self, files):
        store = SmartStore.build(files[:BASE], CONFIG)
        largest = max(len(server) for server in store.cluster)
        assert largest > 102
        assert store.config.bloom_bits == sized_bits(largest) > 1024
        assert_one_width(store)
        # The resolved int is an exact width: rebuilding with it changes nothing.
        again = SmartStore.build(files[:BASE], store.config)
        assert again.config == store.config
        assert filters(again) == filters(store)

    @given(n=st.integers(12, 300), units=st.integers(3, 12), seed=st.integers(0, 50))
    @settings(max_examples=12, deadline=None)
    def test_at_most_102_names_per_unit_builds_the_paper_filters(self, n, units, seed):
        population = make_files(n, seed=seed, clusters=3)
        config = SmartStoreConfig(num_units=units, seed=seed)
        derived = SmartStore.build(population, config)
        paper = SmartStore.build(population, replace(config, bloom_bits=1024))
        if max(len(server) for server in derived.cluster) <= 102:
            assert derived.config == paper.config
            assert filters(derived) == filters(paper)
        else:
            assert derived.config.bloom_bits > 1024


# ---------------------------------------------------------------------------- streams
@given(data=st.data())
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_no_false_negative_and_restore_is_bit_identical(tmp_path_factory, files, data):
    root = tmp_path_factory.mktemp("sizing")
    store = SmartStore.build(files[:BASE], CONFIG)
    width = store.config.bloom_bits
    assert width > 1024
    pipeline = IngestPipeline(store, WriteAheadLog(root / "store.wal"), policy=SPLITTING)
    pipeline.attach_storage(SegmentStore(root / "snap"))
    live = {f.file_id: f for f in files[:BASE]}
    spare = list(files[BASE:]) + hot_clones(store, files[:BASE], 40, "hot")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    kinds = ["mutate", "compact", "reconfigure", "restore"]
    # Every example takes each kind of step once, then wanders.
    steps = ["mutate", "compact", "mutate", "restore", "mutate", "reconfigure", "mutate"]
    steps += data.draw(st.lists(st.sampled_from(kinds), max_size=4), label="steps")
    try:
        for step in steps:
            if step == "mutate":
                for _ in range(int(rng.integers(4, 16))):
                    kind = ("insert", "insert", "delete", "modify")[int(rng.integers(4))]
                    ids = sorted(live)
                    if kind == "insert" and spare:
                        new = spare.pop()
                        pipeline.insert(new)
                        live[new.file_id] = new
                    elif kind == "delete" and len(ids) > 8:
                        pipeline.delete(live.pop(ids[int(rng.integers(len(ids)))]))
                    elif ids:
                        target = live[ids[int(rng.integers(len(ids)))]]
                        new = target.with_updates(mtime=target.get("mtime") * 1.25 + 1.0)
                        pipeline.modify(new)
                        live[new.file_id] = new
            elif step == "compact":
                pipeline.compactor.drain()
            elif step == "reconfigure":
                pipeline.store.reconfigure()
            else:
                pipeline.checkpoint()
                before = filters(pipeline.store)
                pipeline.close()
                pipeline, _ = recover_from_storage(
                    root / "snap", wal_path=root / "store.wal", policy=SPLITTING
                )
                assert pipeline.store.config.bloom_bits == width
                assert filters(pipeline.store) == before
            assert_one_width(pipeline.store)
            assert_no_false_negative(pipeline.store, live)
    finally:
        pipeline.close()


def test_compaction_splits_a_hot_group_at_the_derived_width(tmp_path, files):
    store = SmartStore.build(files[:BASE], CONFIG)
    pipeline = IngestPipeline(store, policy=SPLITTING)
    groups = len(store.tree.first_level_groups())
    hot = hot_clones(store, files[:BASE], 60, "hot")
    for f in hot:
        pipeline.insert(f)
    pipeline.compactor.drain()
    assert pipeline.compactor.stats.group_splits >= 1
    assert len(store.tree.first_level_groups()) > groups
    assert_one_width(store)
    assert_no_false_negative(store, {f.file_id: f for f in files[:BASE] + hot})
    pipeline.close()


# ---------------------------------------------------------------------------- joins
class TestAUnitTakesTheTreeWidth:
    def test_a_joining_unit_is_summarised_at_the_tree_width(self, files):
        store = SmartStore.build(files[:BASE], CONFIG)
        tree = store.tree
        donor = tree.leaves[0]
        names = [f"joined-{j:03d}.dat" for j in range(40)]
        insert_storage_unit(
            tree,
            StorageUnitDescriptor(
                unit_id=99,
                mbr=donor.mbr,
                centroid=store.cluster.server(0).centroid(),
                semantic_vector=donor.semantic_vector,
                filenames=names,
                file_count=len(names),
            ),
            rng=np.random.default_rng(0),
        )
        assert tree.leaves[99].bloom.num_bits == store.config.bloom_bits > 1024
        assert all(node.bloom.num_bits == store.config.bloom_bits for node in tree.nodes)
        assert all(99 in {leaf.unit_id for leaf in tree.route_filename(n)} for n in names)
        assert_summaries_match_nodes(tree, names=names[:5])

    def test_a_quarantined_leaf_restores_empty_at_the_tree_width(self, tmp_path, files):
        store = SmartStore.build(files[:BASE], CONFIG)
        pipeline = IngestPipeline(store, WriteAheadLog(tmp_path / "store.wal"))
        pipeline.attach_storage(SegmentStore(tmp_path / "snap"))
        pipeline.checkpoint()
        tail = files[BASE:]
        for f in tail:
            pipeline.insert(f)
        pipeline.close()
        victim = sorted((tmp_path / "snap" / "segments").iterdir())[0]
        victim.unlink()

        recovered, report = recover_from_storage(tmp_path / "snap", wal_path=tmp_path / "store.wal")
        try:
            assert report.groups_quarantined
            restored = recovered.store
            assert restored.config.bloom_bits == store.config.bloom_bits
            assert_one_width(restored)
            # The lost rows are gone (a subset, never a wrong answer); the
            # replayed tail is found wherever it landed.
            assert_no_false_negative(restored, {f.file_id: f for f in tail})
        finally:
            recovered.close()


# ---------------------------------------------------------------------------- round trips
class TestBloomBitsRoundTrips:
    def test_none_survives_the_config_and_spec_round_trips(self):
        config = SmartStoreConfig()
        assert config.bloom_bits is None
        payload = json.loads(json.dumps(config_to_dict(config)))
        assert payload["bloom_bits"] is None
        assert config_from_dict(payload) == config
        spec = DeploymentSpec(topology="sharded", shards=2, store=config)
        again = DeploymentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec and again.store.bloom_bits is None

    def test_an_old_spec_carrying_1024_loads_as_1024(self, files):
        payload = DeploymentSpec(topology="plain").to_dict()
        payload["store"]["bloom_bits"] = 1024
        spec = DeploymentSpec.from_dict(json.loads(json.dumps(payload)))
        assert spec.store.bloom_bits == 1024
        store = SmartStore.build(files[:BASE], replace(spec.store, num_units=6, seed=3))
        assert store.config.bloom_bits == 1024
        assert_one_width(store)

    def test_a_config_without_the_key_derives(self):
        payload = config_to_dict(SmartStoreConfig(bloom_bits=2048))
        del payload["bloom_bits"]
        assert config_from_dict(payload).bloom_bits is None
