"""One storage unit, two row blocks, one answer (docs/INVARIANTS.md §12).

A :class:`StorageServer` scans whichever row block it holds.  The
contract: the same rows held as an in-memory block, as a cold segment
block, as a resident one, and as a segment block that took one add or one
remove give identical answers *and* charge identical ``Metrics`` — so a
restored deployment is byte-equivalent to the live one it was published
from, by construction rather than by promise.  What a segment block saves
is counted, never timed: records decoded per answer, units pinned.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.metrics import Metrics
from repro.cluster.node import MemoryRows, StorageServer
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest.pipeline import IngestPipeline, recover_from_storage
from repro.ingest.wal import WriteAheadLog
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.obs import MetricsRegistry, set_registry
from repro.storage import Segment, SegmentStore, write_segment
from repro.storage.lazy import SegmentRows, bind_segment
from repro.storage.segment import name_hash64
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import TIE_ATTRS, make_files, make_twins, unit_of

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
DIM = DEFAULT_SCHEMA.dimension


# ---------------------------------------------------------------------------- generated units
def _template(i):
    """Attribute values number ``i``: few templates, so records tie."""
    return {name: value + 97.0 * i for name, value in TIE_ATTRS.items()}


#: Index-space rows of the four templates, and the bounds they span.
TEMPLATE_INDEX = unit_of(
    [FileMetadata(path=f"/t{i}", attributes=_template(i)) for i in range(4)]
).index_matrix()
BOUNDS = (TEMPLATE_INDEX.min(axis=0), TEMPLATE_INDEX.max(axis=0))


@st.composite
def unit_contents(draw, min_size=0):
    """Records of one unit: unique paths, few distinct filenames (the same
    name in several directories) and few distinct attribute vectors."""
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3)),
            unique=True,
            min_size=min_size,
            max_size=18,
        )
    )
    return [
        FileMetadata(
            path=f"/d{directory}/name{name}.dat",
            attributes=_template(draw(st.integers(0, 3))),
        )
        for directory, name in keys
    ]


def _segment_unit(path, files):
    """``files`` published as a segment and bound to a fresh unit, cold.
    No segment store behind it: it stays cold until told otherwise."""
    write_segment(path, 0, [(0, unit_of(files))], DEFAULT_SCHEMA)
    segment = Segment.open(path)
    unit = StorageServer(0)
    unit.set_normalization(*BOUNDS)
    bind_segment(unit, segment, segment.units[0])
    return unit, segment


def _prints(files):
    return [None if f is None else (f.file_id, f.path, f.attributes) for f in files]


def _summary(unit):
    mbr, centroid = unit.mbr(), unit.centroid()
    return (
        len(unit),
        unit.space_bytes(),
        unit.file_ids().tolist(),
        None if mbr is None else (mbr.lower.tolist(), mbr.upper.tolist()),
        None if centroid is None else centroid.tolist(),
        unit.matrix().tobytes(),
        unit.index_matrix().tobytes(),
        unit.normalized_matrix().tobytes(),
    )


def _answers(unit, calls):
    """Every call's answer and the ``Metrics`` it charged."""
    out = []
    for kind, args, kwargs in calls:
        metrics = Metrics()
        got = getattr(unit, kind)(*args, metrics, **kwargs)
        if kind == "knn_candidates":
            got = (*got, _prints(unit.record_at(row) for row in got[2]))
        else:
            got = _prints(got)
        out.append((got, metrics.as_dict()))
    return out


def _calls(data, memory):
    """A drawn batch of scans and lookups against the rows ``memory`` holds:
    top-k with and without a mask over all and over some attributes (k
    drawn, and 3 so a tie block straddles the cut), ranges whose bounds sit
    exactly on attribute values, names that are shared, unique and absent."""
    subset = data.draw(
        st.lists(st.integers(0, DIM - 1), unique=True, min_size=1), label="attributes"
    )
    if len(memory) and data.draw(st.booleans(), label="query sits on a record"):
        anchor = memory.normalized_matrix()[data.draw(st.integers(0, len(memory) - 1))]
    else:
        anchor = np.asarray(data.draw(st.lists(st.floats(0, 1), min_size=DIM, max_size=DIM)))
    ids = sorted(memory.file_ids().tolist())
    masked = data.draw(st.lists(st.sampled_from(ids), unique=True) if ids else st.just([]))
    exclude = np.asarray(sorted(masked), dtype=np.int64)
    calls = []
    for k in (data.draw(st.integers(0, 20), label="k"), 3):
        for kwargs in ({}, {"exclude_ids": exclude}):
            calls.append(("knn_candidates", (anchor, k), kwargs))
            calls.append(
                ("knn_candidates", (anchor[subset], k), {"attr_indices": subset, **kwargs})
            )
    low, high = sorted(data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3))))
    calls.append(
        ("scan_range", (subset, TEMPLATE_INDEX[low, subset], TEMPLATE_INDEX[high, subset]), {})
    )
    calls.append(("scan_range", (list(range(DIM)), *BOUNDS), {}))
    for name in ("name0.dat", "name3.dat", "no-such-name.dat"):
        calls.append(("lookup_filename", (name,), {}))
    return calls


class TestEveryBlockGivesTheSameAnswers:
    @given(files=unit_contents(), data=st.data())
    @_SETTINGS
    def test_memory_cold_resident_and_writable_agree(self, tmp_path, files, data):
        memory = unit_of(files, bounds=BOUNDS)
        backed, segment = _segment_unit(tmp_path / "unit.seg", files)
        try:
            calls = _calls(data, memory)
            expected = (_summary(memory), _answers(memory, calls))
            # An empty row range is an empty in-memory block.
            assert isinstance(backed.rows, SegmentRows if files else MemoryRows)
            assert not files or not backed.rows.cached
            assert (_summary(backed), _answers(backed, calls)) == expected  # cold
            backed.rows.load()
            assert backed.rows.cached
            assert (_summary(backed), _answers(backed, calls)) == expected  # resident
            backed.rows.drop()
            assert not files or not backed.rows.cached
            assert (_summary(backed), _answers(backed, calls)) == expected  # evicted
            assert _prints(backed.files) == _prints(memory.files)
            assert backed.backing_segment() is None  # ... which made it writable
            assert (_summary(backed), _answers(backed, calls)) == expected
        finally:
            backed.rows = None  # lets go of the mapping
            segment.close()

    @given(files=unit_contents(min_size=1), extra=unit_contents(min_size=1), data=st.data())
    @_SETTINGS
    def test_a_segment_block_after_one_add_or_one_remove(self, tmp_path, files, extra, data):
        added = FileMetadata(path="/new" + extra[0].path, attributes=extra[0].attributes)
        victim = data.draw(st.sampled_from(files), label="removed")
        for mutate in (
            lambda unit: unit.add_file(added),
            lambda unit: unit.remove_file(victim.file_id),
            lambda unit: unit.remove_file(-1),  # not there: still one full decode
        ):
            memory = unit_of(files, bounds=BOUNDS)
            backed, segment = _segment_unit(tmp_path / "unit.seg", files)
            try:
                if data.draw(st.booleans(), label="resident first"):
                    backed.rows.load()
                assert _prints([mutate(backed)]) == _prints([mutate(memory)])
                assert backed.backing_segment() is None
                calls = _calls(data, memory)
                assert _summary(backed) == _summary(memory)
                assert _answers(backed, calls) == _answers(memory, calls)
                assert _prints(backed.files) == _prints(memory.files)
            finally:
                backed.rows = None  # lets go of the mapping
                segment.close()


# ---------------------------------------------------------------------------- masked top-k
class TestMaskedKnnScan:
    """``scan_knn(..., exclude_ids=mask)`` masks *before* the tie-stable
    cut and returns ``k``; the reference over-fetches ``k + |mask|`` and
    filters afterwards.  Both must agree — distance ties and fewer than
    ``k`` unmasked records included — on an in-memory unit and on a
    segment-backed unit while cold, resident and writable, and a cold
    unit decodes only the records it returns."""

    @pytest.fixture(scope="class")
    def units(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("masked-knn")
        # Twins tie on every distance.
        files = make_files(40, seed=8) + make_twins(10)
        live = unit_of(files)
        lower, upper = live.index_matrix().min(axis=0), live.index_matrix().max(axis=0)
        live.set_normalization(lower, upper)
        write_segment(root / "unit.seg", 0, [(0, live)], DEFAULT_SCHEMA)
        segment = Segment.open(root / "unit.seg")
        backed = StorageServer(0, DEFAULT_SCHEMA)
        backed.set_normalization(lower, upper)
        yield live, backed, segment, files
        backed.rows = None  # lets go of the mapping
        segment.close()

    @given(data=st.data())
    @_SETTINGS
    def test_masked_scan_equals_overfetch_then_filter(self, units, data):
        live, backed, segment, files = units
        ids = sorted(f.file_id for f in files)
        # Masks from nothing up to all but a couple of records (n_unmasked < k).
        masked = data.draw(
            st.lists(st.sampled_from(ids), unique=True, max_size=len(ids) - 2), label="masked"
        )
        k = data.draw(st.integers(1, 14), label="k")
        on_twins = data.draw(st.booleans(), label="query sits on the tie block")
        attr_idx = data.draw(
            st.lists(st.integers(0, DIM - 1), unique=True, min_size=1), label="attributes"
        )
        anchor = live.normalized_matrix()[-1 if on_twins else 0, attr_idx]
        exclude = np.asarray(sorted(masked), dtype=np.int64)

        def fingerprint(pairs):
            return [(dist, f.file_id, f.path) for dist, f in pairs]

        expected = [
            pair
            for pair in live.scan_knn(anchor, k + len(masked), attr_indices=attr_idx)
            if pair[1].file_id not in set(masked)
        ][:k]
        assert len(expected) == min(k, len(ids) - len(masked))

        def check(server):
            got = server.scan_knn(anchor, k, attr_indices=attr_idx, exclude_ids=exclude)
            assert fingerprint(got) == fingerprint(expected)

        check(live)
        bind_segment(backed, segment, segment.units[0])
        assert backed.backing_segment() is segment and not backed.rows.cached
        check(backed)  # cold: straight from the mapping
        assert len(backed.rows._decoded) == len(expected)  # decoded what it returned, no more
        backed.rows.load()
        assert backed.rows.cached
        check(backed)
        assert backed.files == files  # the read that makes it writable
        assert backed.backing_segment() is None
        check(backed)


# ---------------------------------------------------------------------------- counted, not timed
@pytest.fixture
def restarted(tmp_path, monkeypatch):
    """A checkpointed store reopened cold, with every record decode and
    every pin counted from the moment the root is opened."""
    files = make_files(96, seed=11, clusters=3) + make_twins(6)
    files.append(FileMetadata(path="/elsewhere/twin00.dat", attributes=files[0].attributes))
    store = SmartStore.build(files, SmartStoreConfig(num_units=6, seed=2, search_breadth=64))
    pipeline = IngestPipeline(store, WriteAheadLog(tmp_path / "store.wal"))
    pipeline.attach_storage(SegmentStore(tmp_path / "snap"))
    pipeline.checkpoint()
    pipeline.close()

    decoded = []
    record = Segment.record
    monkeypatch.setattr(
        Segment, "record", lambda self, row: decoded.append(row) or record(self, row)
    )
    previous = set_registry(MetricsRegistry())
    recovered, _ = recover_from_storage(tmp_path / "snap", wal_path=tmp_path / "store.wal")
    try:
        yield recovered, files, decoded
        # Reads never make a unit writable.
        assert recovered.storage.stats()["pins"] == 0
        assert recovered.storage._pin_counter.value == 0
        assert all(s.backing_segment() is not None for s in recovered.store.cluster if len(s))
    finally:
        recovered.close()
        recovered.storage.close()
        set_registry(previous)


class TestASegmentBlockDecodesOnlyWhatIsReturned:
    def test_cold_start_plus_one_point_query(self, restarted):
        pipeline, files, decoded = restarted
        assert decoded == []  # opening the root decoded nothing
        target = name_hash64("twin00.dat")
        result = pipeline.store.execute(PointQuery("twin00.dat"))
        assert sorted(f.path for f in result.files) == [
            "/elsewhere/twin00.dat",
            "/ties/twin00.dat",
        ]
        assert len(decoded) == sum(name_hash64(f.filename) == target for f in files) == 2
        assert pipeline.storage.stats()["faults"] == 0  # a lookup faults nothing in

    def test_a_range_decodes_exactly_its_hits(self, restarted):
        pipeline, files, decoded = restarted
        query = RangeQuery(("size", "owner"), (0.0, 1.0), (1e9, 1.0))
        result = pipeline.store.execute(query)
        assert 0 < len(result.files) < len(files)
        assert len(decoded) == len(result.files)
        assert pipeline.storage.stats()["faults"] > 0

    def test_a_topk_decodes_only_the_rows_the_engine_keeps(self, restarted):
        pipeline, files, decoded = restarted
        attrs = tuple(DEFAULT_SCHEMA.names[:2])
        result = pipeline.store.execute(TopKQuery(attrs, (2048.0, 1500.0), 7))
        assert len(result.files) == 7
        assert result.metrics.as_dict()["units_visited"] > 1  # candidates from several units
        assert len(decoded) == 7

    def test_population_reads_pin_nothing(self, restarted):
        pipeline, files, decoded = restarted
        store = pipeline.store
        assert store.file_count() == len(files) and decoded == []
        assert store.file_by_id(files[5].file_id).path == files[5].path
        assert len(decoded) == 1
        assert sorted(f.path for f in store.files) == sorted(f.path for f in files)
        assert sorted(f.path for f in pipeline.materialized_files()) == sorted(
            f.path for f in files
        )
