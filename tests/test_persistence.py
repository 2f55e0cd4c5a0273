"""Tests for JSONL persistence and the segment snapshot on disk."""

import pytest

from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.metadata.attributes import DEFAULT_SCHEMA, AttributeSchema, AttributeSpec
from repro.persistence import (
    load_files,
    load_trace,
    save_files,
    save_trace,
    schema_from_dict,
    schema_to_dict,
)
from repro.storage import MANIFEST_NAME, SegmentStore, open_storage
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

from helpers import make_files


class TestSchemaSerialisation:
    def test_round_trip_default_schema(self):
        restored = schema_from_dict(schema_to_dict(DEFAULT_SCHEMA))
        assert restored == DEFAULT_SCHEMA

    def test_round_trip_custom_schema(self):
        schema = AttributeSchema(
            (
                AttributeSpec("size", log_scale=True, unit="bytes"),
                AttributeSpec("temperature", kind="behavioural", unit="K"),
            )
        )
        restored = schema_from_dict(schema_to_dict(schema))
        assert restored.names == ("size", "temperature")
        assert restored.spec("size").log_scale
        assert restored.spec("temperature").kind == "behavioural"


class TestFilesRoundTrip:
    def test_save_and_load(self, tmp_path):
        files = make_files(50)
        out = tmp_path / "population.jsonl"
        assert save_files(files, out) == 50
        restored = load_files(out)
        assert len(restored) == 50
        assert [f.file_id for f in restored] == [f.file_id for f in files]
        assert restored[0].attributes == files[0].attributes
        assert restored[0].extra == files[0].extra

    def test_wrong_format_rejected(self, tmp_path):
        files = make_files(5)
        trace_path = tmp_path / "trace.jsonl"
        save_trace(generate_trace(SyntheticTraceConfig(n_files=30, n_requests=30, n_projects=5, seed=1)), trace_path)
        with pytest.raises(ValueError):
            load_files(trace_path)

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            load_files(empty)

    def test_count_mismatch_detected(self, tmp_path):
        files = make_files(3)
        out = tmp_path / "broken.jsonl"
        save_files(files, out)
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:-1]) + "\n")  # drop one record
        with pytest.raises(ValueError):
            load_files(out)


class TestTraceRoundTrip:
    def test_save_and_load(self, tmp_path):
        trace = generate_trace(SyntheticTraceConfig(n_files=40, n_requests=200, n_projects=6, seed=2))
        out = tmp_path / "trace.jsonl"
        save_trace(trace, out)
        restored = load_trace(out)
        assert restored.name == trace.name
        assert len(restored.records) == len(trace.records)
        assert len(restored.files) == len(trace.files)
        assert restored.user_accounts == trace.user_accounts
        assert restored.records[0] == trace.records[0]
        assert restored.summary().total_requests == trace.summary().total_requests

    def test_wrong_format_rejected(self, tmp_path):
        files_path = tmp_path / "files.jsonl"
        save_files(make_files(3), files_path)
        with pytest.raises(ValueError):
            load_trace(files_path)


def publish(root):
    """Build a deployment and publish its segment snapshot under ``root``
    (what ``repro build --snapshot`` does)."""
    store = SmartStore.build(make_files(120, clusters=4), SmartStoreConfig(num_units=8, seed=9))
    segstore = SegmentStore(root)
    segstore.attach(store)
    manifest = segstore.publish_snapshot(store, wal_seq=0)
    segstore.close()
    return store, manifest


def placement(store):
    return {
        uid: sorted(server.file_ids().tolist())
        for uid, server in store.cluster.servers.items()
    }


class TestSnapshot:
    """The segment snapshot (``MANIFEST.json`` + segments) of a deployment."""

    def test_snapshot_contents(self, tmp_path):
        store, manifest = publish(tmp_path)
        assert manifest["num_units"] == 8
        assert manifest["config"]["num_units"] == 8
        assert sum(entry["count"] for entry in manifest["segments"].values()) == 120
        nodes = manifest["tree"]["nodes"]
        assert len(nodes) == len(store.tree.nodes)
        root_nodes = [n["node_id"] for n in nodes if n["parent"] is None]
        assert root_nodes == [manifest["tree"]["root"]]

    def test_round_trip(self, tmp_path):
        store, _ = publish(tmp_path)
        restored, _, report = open_storage(tmp_path)
        assert report.files_indexed == 120
        assert placement(restored) == placement(store)
        assert restored.schema == store.schema

    def test_rebuild_reproduces_layout(self, tmp_path):
        """Two builds of the same input publish byte-identical snapshots."""
        publish(tmp_path / "a")
        publish(tmp_path / "b")

        def contents(root):
            return {
                path.relative_to(root).as_posix(): path.read_bytes()
                for path in root.rglob("*")
                if path.is_file()
            }

        first = contents(tmp_path / "a")
        assert MANIFEST_NAME in first and len(first) > 1
        assert contents(tmp_path / "b") == first
