"""Segment version 2: values stored once, records rebuilt from their rows
(docs/INVARIANTS.md §12).

A v2 segment holds a row's schema values only in its attribute-major
matrix; the blob holds its path and a compact remainder (``extra`` and any
non-schema attributes), and a header table of attribute-key tuples keeps
each record's key order.  The contract:

* **round trip** — ``write_segment`` then ``Segment.records(rows)`` gives
  back the live records field for field, key order included, float
  values bit for bit, for any batch of rows;
* **carry** — a publish that copies rows out of older segments with other
  key tables writes the bytes of a full encode;
* **counted** — a cold point, range and top-k run no JSON for a record
  without a remainder and build only the records they return;
* **v1** — a root written by the version-1 code (``tests/fixtures/``)
  restores with a fresh build's answers, its first checkpoint writes v2
  only, and a second restart answers the same.
"""

import json
import math
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.storage.segment as segment_module
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest.pipeline import IngestPipeline, recover_from_storage
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.service.cache import result_fingerprint
from repro.storage import SEGMENT_VERSION, Segment, SegmentStore, write_segment
from repro.storage.segment import CarryIndex
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import make_files, unit_of

NAMES = DEFAULT_SCHEMA.names
FIXTURE = Path(__file__).parent / "fixtures" / "v1_root"
_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# ---------------------------------------------------------------------------- generated records
EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308]
values = st.floats(allow_nan=False) | st.sampled_from(EDGE_FLOATS)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False)
)
extras = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        json_scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    ),
    max_size=3,
)


@st.composite
def records(draw):
    """One record: a unicode path, an id at either end of int64 or between,
    every schema attribute plus maybe some others, in a drawn key order."""
    others = st.text(min_size=1, max_size=5).filter(lambda k: k not in NAMES)
    names = list(NAMES) + draw(st.lists(others, unique=True, max_size=2))
    order = draw(st.permutations(names)) if draw(st.booleans()) else names
    return FileMetadata(
        path="/" + draw(st.text(min_size=1, max_size=12)),
        attributes={name: draw(values) for name in order},
        file_id=draw(st.sampled_from([0, 2**63 - 1]) | st.integers(0, 2**63 - 1)),
        extra=draw(extras),
    )


def fields(f: FileMetadata):
    """Everything a record holds, order-sensitive, floats as ``float.hex``."""
    return (
        f.path,
        f.file_id,
        [(k, float(v).hex()) for k, v in f.attributes.items()],
        json.dumps(f.extra),
    )


def _write(path, units, carry=None):
    servers = [(uid, unit_of(files, uid)) for uid, files in units]
    return write_segment(path, 0, servers, DEFAULT_SCHEMA, carry)


# ---------------------------------------------------------------------------- round trip
class TestRoundTrip:
    @given(files=st.lists(records(), max_size=14), data=st.data())
    @example(
        files=[FileMetadata("/ü/名前.dat", dict.fromkeys(NAMES, -0.0), 0, {})],
        data=None,
    )
    @_SETTINGS
    def test_records_equal_the_live_ones(self, tmp_path, files, data):
        cut = len(files) // 2
        info = _write(tmp_path / "rt.seg", [(0, files[:cut]), (1, files[cut:])])
        segment = Segment.open(tmp_path / "rt.seg", expected_crc=info.data_crc)
        try:
            assert segment.version == SEGMENT_VERSION
            every = range(len(files))
            assert [fields(f) for f in segment.records(every)] == [fields(f) for f in files]
            if data is not None and files:
                rows = data.draw(st.lists(st.sampled_from(list(every)), max_size=20), label="rows")
                assert [fields(f) for f in segment.records(rows)] == [
                    fields(files[row]) for row in rows
                ]
            for row, f in enumerate(files):  # a name lookup compares the path bytes
                got = segment.named([row], f.filename)
                assert [fields(g) for g in got] == [fields(f)]
                assert segment.named([row], f.filename + "x") == []
        finally:
            segment.close()

    def test_a_shared_flat_extra_is_decoded_once_and_copied(self, tmp_path, monkeypatch):
        flat = {"project": 5, "tag": "a"}
        nested = {"tags": ["a"]}
        files = [
            FileMetadata(f"/p/{i}.dat", dict.fromkeys(NAMES, float(i)), i, dict(extra))
            for i, extra in enumerate([flat, flat, nested, nested, flat])
        ]
        _write(tmp_path / "x.seg", [(0, files)])
        segment = Segment.open(tmp_path / "x.seg")
        decoded = []
        decode = segment_module._decode_json
        monkeypatch.setattr(
            segment_module, "_decode_json", lambda text: decoded.append(text) or decode(text)
        )
        try:
            first = segment.records(range(5))
            assert len(decoded) == 3  # the flat extra once, the nested one per row
            again = segment.records([0, 2])
            assert len(decoded) == 4
            first[0].extra["project"] = 6
            first[2].extra["tags"].append("b")
            assert [f.extra for f in again] == [flat, nested]
            assert [first[i].extra for i in (1, 3, 4)] == [flat, nested, flat]
        finally:
            segment.close()

    def test_a_plain_record_stores_no_remainder(self, tmp_path):
        plain = FileMetadata("/a/b.dat", dict.fromkeys(NAMES, 1.0), 7)
        _write(tmp_path / "p.seg", [(0, [plain])])
        segment = Segment.open(tmp_path / "p.seg")
        try:
            assert segment.header["blob_len"] == len(b"/a/b.dat")
            assert segment.header["keys"] == [list(NAMES)]
        finally:
            segment.close()


# ---------------------------------------------------------------------------- carry
class TestCarryAcrossKeyTables:
    @given(
        files=st.lists(records(), min_size=1, max_size=12, unique_by=lambda f: f.file_id),
        data=st.data(),
    )
    @_SETTINGS
    def test_a_carried_publish_is_a_full_encode(self, tmp_path, files, data):
        """Rows copied out of two older segments, each with its own key
        table, into units cut and ordered differently, beside re-encoded
        rows: the bytes are those of encoding every live record."""
        old = [files[0::2], files[1::2]]
        sources = []
        for i, part in enumerate(old):
            _write(tmp_path / f"old{i}.seg", [(0, part)])
            sources.append(Segment.open(tmp_path / f"old{i}.seg"))
        try:
            ids = [f.file_id for f in files]
            changed = data.draw(st.sets(st.sampled_from(ids)), label="changed")
            live = [
                FileMetadata(f.path, dict(reversed(f.attributes.items())), f.file_id, f.extra)
                if f.file_id in changed
                else f
                for f in data.draw(st.permutations(files), label="order")
            ]
            cut = data.draw(st.integers(0, len(live)), label="cut")
            units = [(3, live[:cut]), (1, live[cut:])]
            carried = _write(tmp_path / "carried.seg", units, CarryIndex(sources, changed))
            full = _write(tmp_path / "full.seg", units)
            assert carried.rows_carried == len(files) - len(changed)
            assert (tmp_path / "carried.seg").read_bytes() == (tmp_path / "full.seg").read_bytes()
        finally:
            for source in sources:
                source.close()


# ---------------------------------------------------------------------------- counted
@pytest.fixture
def cold(tmp_path, monkeypatch):
    """A checkpointed store of records without a remainder, reopened cold;
    JSON documents decoded and records built by the segment are counted."""
    files = [FileMetadata(f.path, f.attributes) for f in make_files(96, seed=11, clusters=3)]
    store = SmartStore.build(files, SmartStoreConfig(num_units=6, seed=2, search_breadth=64))
    pipeline = IngestPipeline(store)
    pipeline.attach_storage(SegmentStore(tmp_path / "snap"))
    pipeline.checkpoint()
    pipeline.close()
    recovered, _ = recover_from_storage(tmp_path / "snap")
    counts = {"json": 0, "built": 0}
    decode, build = segment_module._decode_json, FileMetadata.from_fields

    def counted_decode(text):
        counts["json"] += 1
        return decode(text)

    def counted_build(*args):
        counts["built"] += 1
        return build(*args)

    monkeypatch.setattr(segment_module, "_decode_json", counted_decode)
    monkeypatch.setattr(FileMetadata, "from_fields", counted_build)
    try:
        yield recovered.store, files, counts
    finally:
        recovered.close()


class TestAColdReadBuildsOnlyWhatItReturns:
    def test_point(self, cold):
        store, files, counts = cold
        result = store.execute(PointQuery(files[40].filename))
        assert [f.path for f in result.files] == [files[40].path]
        assert counts == {"json": 0, "built": 1}

    def test_range(self, cold):
        store, files, counts = cold
        result = store.execute(RangeQuery(("size", "owner"), (0.0, 1.0), (1e9, 1.0)))
        assert 0 < len(result.files) < len(files)
        assert counts == {"json": 0, "built": len(result.files)}

    def test_topk(self, cold):
        store, files, counts = cold
        result = store.execute(TopKQuery(tuple(NAMES[:2]), (2048.0, 1500.0), 7))
        assert len(result.files) == 7
        assert result.metrics.as_dict()["units_visited"] > 1
        assert counts == {"json": 0, "built": 7}


# ---------------------------------------------------------------------------- v1 roots
CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)


def fixture_history():
    """What the fixture's writer did: build ``make_files(60)``, checkpoint
    (segment version 1), then log a tail it never checkpointed."""
    files = make_files(60)
    tail = [("insert", f) for f in make_files(64)[60:]]
    for i in (5, 22):
        f = files[i]
        attributes = {**f.attributes, "size": f.attributes["size"] * 2}
        tail.append(("modify", FileMetadata(f.path, attributes, f.file_id, dict(f.extra))))
    tail += [("delete", files[7]), ("delete", files[41])]
    return files, tail


def probes(files):
    return (
        [PointQuery(f.filename) for f in files[::7]]
        + [PointQuery(files[7].filename), PointQuery("/no/such.dat")]
        + [
            RangeQuery(("size", "owner"), (0.0, 0.0), (1e9, 1.0)),
            RangeQuery(tuple(NAMES), tuple([-1e308] * len(NAMES)), tuple([1e308] * len(NAMES))),
            TopKQuery(tuple(NAMES[:2]), (2048.0, 1500.0), 12),
            TopKQuery(tuple(NAMES), tuple(files[11].attributes.values()), 5),
        ]
    )


def versions(root):
    return {Segment.open(p).version for p in (root / "segments").glob("*.seg")}


class TestAVersion1Root:
    def test_restores_migrates_and_restarts(self, tmp_path):
        files, tail = fixture_history()
        fresh = IngestPipeline(SmartStore.build(files, CONFIG))
        for kind, f in tail:
            getattr(fresh, kind)(f)
        queries = probes(files + [f for _, f in tail])
        expected = [result_fingerprint(fresh.store.execute(q)) for q in queries]
        expected_files = sorted(
            (f.file_id, f.path, f.attributes) for f in fresh.materialized_files()
        )
        fresh.close()

        shutil.copytree(FIXTURE, tmp_path / "root")
        snap, wal = tmp_path / "root" / "snap", tmp_path / "root" / "store.wal"
        assert versions(snap) == {1}
        recovered, report = recover_from_storage(snap, wal_path=wal)
        try:
            assert report.wal_records_replayed == len(tail)
            assert [result_fingerprint(recovered.store.execute(q)) for q in queries] == expected
            assert sorted(
                (f.file_id, f.path, f.attributes) for f in recovered.materialized_files()
            ) == expected_files
            recovered.checkpoint()
            assert versions(snap) == {SEGMENT_VERSION}
            assert recovered.storage.stats()["rows_carried"] == 0  # v1 is never a source
        finally:
            recovered.close()

        again, report = recover_from_storage(snap, wal_path=wal)
        try:
            assert report.wal_records_replayed == 0
            assert [result_fingerprint(again.store.execute(q)) for q in queries] == expected
        finally:
            again.close()
