"""One storage unit, two row blocks, one answer (docs/INVARIANTS.md §12).

A :class:`StorageServer` scans whichever row block it holds.  The
contract: the same rows held as an in-memory block, as a cold segment
block, and as a segment block that took one add or one remove give
identical answers *and* charge identical ``Metrics`` — so a restored
deployment is byte-equivalent to the live one it was published from, by
construction rather than by promise.  A cold block is read as it is (a
top-k normalises the columns it queries from the mapping, per scan), and
its top-k distances are bit-identical to its in-memory form's.  What a
segment block saves is counted, never timed: records decoded per answer,
units pinned, segment-store lock acquisitions per read.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DeploymentSpec, connect
from repro.cluster.metrics import Metrics
from repro.cluster.node import MemoryRows, StorageServer
from repro.core.queries import ReadContext, live_candidates
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.ingest.pipeline import IngestPipeline, recover_from_storage
from repro.ingest.wal import WriteAheadLog
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.obs import MetricsRegistry, set_registry
from repro.storage import Segment, SegmentStore, StorageConfig, write_segment
from repro.storage.lazy import SegmentRows, bind_segment
from repro.storage.segment import name_hash64
from repro.workloads.generator import QueryWorkloadGenerator
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import TIE_ATTRS, make_files, make_twins, scan_knn, unit_of

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


_TEMPLATES = unit_of([FileMetadata(path=f"/t{i}", attributes=_template(i)) for i in range(4)])
#: Raw rows of the four templates (what a range window is written in).
TEMPLATE_RAW = np.ascontiguousarray(_TEMPLATES.matrix())
#: Index-space rows of the four templates, and the bounds they span.
TEMPLATE_INDEX = _TEMPLATES.index_matrix()
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
        if kind == "live_candidates":
            got = live_candidates(unit, *args, metrics, **kwargs)
        else:
            got = getattr(unit, kind)(*args, metrics, **kwargs)
        if kind in ("knn_candidates", "live_candidates"):
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
    calls = []
    for k in (data.draw(st.integers(0, 20), label="k"), 3):
        for kind, kwargs in (
            ("knn_candidates", {}),
            ("live_candidates", {"masked": frozenset(masked), "extra": len(masked)}),
        ):
            calls.append((kind, (anchor, k), {"attr_indices": range(DIM), **kwargs}))
            calls.append((kind, (anchor[subset], k), {"attr_indices": subset, **kwargs}))
    low, high = sorted(data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3))))
    calls.append(
        ("scan_range", (subset, TEMPLATE_RAW[low, subset], TEMPLATE_RAW[high, subset]), {})
    )
    calls.append(
        ("scan_range", (list(range(DIM)), TEMPLATE_RAW.min(axis=0), TEMPLATE_RAW.max(axis=0)), {})
    )
    for name in ("name0.dat", "name3.dat", "no-such-name.dat"):
        calls.append(("lookup_filename", (name,), {}))
    return calls


class TestEveryBlockGivesTheSameAnswers:
    @given(files=unit_contents(), data=st.data())
    @_SETTINGS
    def test_memory_cold_and_writable_agree(self, tmp_path, files, data):
        memory = unit_of(files, bounds=BOUNDS)
        backed, segment = _segment_unit(tmp_path / "unit.seg", files)
        try:
            calls = _calls(data, memory)
            expected = (_summary(memory), _answers(memory, calls))
            # An empty row range is an empty in-memory block.
            assert isinstance(backed.rows, SegmentRows if files else MemoryRows)
            assert (_summary(backed), _answers(backed, calls)) == expected  # cold
            assert backed.backing_segment() is (segment if files else None)
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
                assert _prints([mutate(backed)]) == _prints([mutate(memory)])
                assert backed.backing_segment() is None
                calls = _calls(data, memory)
                assert _summary(backed) == _summary(memory)
                assert _answers(backed, calls) == _answers(memory, calls)
                assert _prints(backed.files) == _prints(memory.files)
            finally:
                backed.rows = None  # lets go of the mapping
                segment.close()


class TestARetiredSegmentStaysReadable:
    def test_close_leaves_held_blocks_and_views_readable(self, tmp_path):
        """A publish closes the segments it retires while readers on other
        threads may still hold a block over one, mid-scan, with a view of
        its mapping: the close must not fail, and neither may they."""
        files = make_files(30, seed=4)
        memory = unit_of(files, bounds=BOUNDS)
        backed, segment = _segment_unit(tmp_path / "unit.seg", files)
        view = backed.matrix()  # a reader's column view, mid-scan
        segment.close()
        calls = [
            ("scan_range", (list(range(DIM)), view.min(axis=0), view.max(axis=0)), {}),
            ("lookup_filename", (files[3].filename,), {}),
        ]
        assert view.tobytes() == memory.matrix().tobytes()
        assert _answers(backed, calls) == _answers(memory, calls)


# ---------------------------------------------------------------------------- masked top-k
class TestMaskedKnnScan:
    """``live_candidates(..., masked=ids, extra=m)`` asks the unit for
    ``k + m`` and drops the masked ids before the cut at ``k``; the
    reference over-fetches ``k + |mask|`` and filters afterwards.  Both
    must agree — distance ties and fewer than ``k`` unmasked records
    included — on an in-memory unit and on a segment-backed unit while cold
    and once writable, and a cold unit decodes only the records it
    returns."""

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

        def fingerprint(pairs):
            return [(dist, f.file_id, f.path) for dist, f in pairs]

        expected = [
            pair
            for pair in scan_knn(live, anchor, k + len(masked), attr_indices=attr_idx)
            if pair[1].file_id not in set(masked)
        ][:k]
        assert len(expected) == min(k, len(ids) - len(masked))

        def check(server):
            distances, _, rows = live_candidates(
                server,
                anchor,
                k,
                None,
                attr_indices=attr_idx,
                masked=frozenset(masked),
                extra=len(masked),
            )
            got = [(dist, server.record_at(row)) for dist, row in zip(distances, rows)]
            assert fingerprint(got) == fingerprint(expected)

        check(live)
        bind_segment(backed, segment, segment.units[0])
        assert backed.backing_segment() is segment
        decoded = []
        records = Segment.records
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                Segment, "records", lambda self, rows: decoded.extend(rows) or records(self, rows)
            )
            check(backed)  # cold: straight from the mapping
        assert len(decoded) == len(expected)  # decoded what it returned, no more
        assert backed.files == files  # the read that makes it writable
        assert backed.backing_segment() is None
        check(backed)


# ---------------------------------------------------------------------------- cold top-k, to the bit
LOGGED = np.flatnonzero(DEFAULT_SCHEMA.log_scale_mask()).tolist()


@st.composite
def wide_rows(draw):
    """Attribute rows of one unit: wide-range values (negative ones
    included, which ``log1p(max(x, 0))`` floors) and repeated rows, so
    distances tie."""
    value = st.floats(-1e3, 1e12, allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(value, min_size=DIM, max_size=DIM), min_size=1, max_size=30))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=6))
    return rows + repeats


class TestAColdTopKIsItsWritableFormToTheBit:
    """A cold block normalises the columns a top-k queries from the mapping
    on every scan; its ``writable()`` form keeps a matrix normalised once.
    Both must return the same ``knn_candidates`` — distances compared as
    ``float.hex``, ids, rows and ``Metrics`` — over any attribute subset
    and order (log-scaled columns included), rows outside the installed
    bounds (the clip) and degenerate spans, any ``k``, with and without a
    mask and a ``within`` cut."""

    @given(rows=wide_rows(), data=st.data())
    @_SETTINGS
    def test_knn_candidates_agree_to_the_bit(self, tmp_path, rows, data):
        files = [
            FileMetadata(path=f"/w/{i}.dat", attributes=dict(zip(DEFAULT_SCHEMA.names, row)))
            for i, row in enumerate(rows)
        ]
        # Bounds spanned by a few rows only: the others fall outside them.
        index = unit_of(files).index_matrix()
        spanned = data.draw(
            st.lists(st.integers(0, len(files) - 1), unique=True, min_size=1), label="spanned"
        )
        bounds = (index[spanned].min(axis=0), index[spanned].max(axis=0))
        write_segment(tmp_path / "unit.seg", 0, [(0, unit_of(files))], DEFAULT_SCHEMA)
        segment = Segment.open(tmp_path / "unit.seg")
        unit = StorageServer(0)
        unit.set_normalization(*bounds)
        bind_segment(unit, segment, segment.units[0])
        ids = unit.file_ids().tolist()
        calls = []
        for _ in range(data.draw(st.integers(1, 4), label="calls")):
            attrs = data.draw(
                st.one_of(
                    st.lists(st.integers(0, DIM - 1), unique=True, min_size=1),
                    st.permutations(LOGGED),
                ),
                label="attributes",
            )
            query = data.draw(
                st.lists(st.floats(-0.5, 1.5), min_size=len(attrs), max_size=len(attrs)),
                label="query",
            )
            masked = data.draw(st.lists(st.sampled_from(ids), unique=True), label="masked")
            within = data.draw(st.one_of(st.none(), st.floats(0.0, 3.0)), label="within")
            k = data.draw(st.integers(0, len(files) + 2), label="k")
            calls.append((np.asarray(query), k, attrs, frozenset(masked), within))

        def answers():
            out = []
            for query, k, attrs, masked, within in calls:
                metrics = Metrics()
                distances, file_ids, local = live_candidates(
                    unit,
                    query,
                    k,
                    metrics,
                    attr_indices=attrs,
                    masked=masked,
                    extra=len(masked),
                    within=within,
                )
                out.append(
                    ([d.hex() for d in distances], file_ids, local, metrics.as_dict())
                )
            return out

        try:
            assert isinstance(unit.rows, SegmentRows)
            cold = answers()
            unit.rows = unit.rows.writable()
            assert answers() == cold
            # ... and the in-memory block holds the cold block's columns.
            columns = unit.rows.norm_columns(range(DIM))
            bind_segment(unit, segment, segment.units[0])
            assert [c.tobytes() for c in unit.rows.norm_columns(range(DIM))] == [
                c.tobytes() for c in columns
            ]
        finally:
            unit.rows = None  # lets go of the mapping
            segment.close()


# ---------------------------------------------------------------------------- normalised layout
class TestTheNormalisedMatrixIsAttributeMajor:
    """A top-k reads each queried attribute's normalised values as one
    contiguous vector: an in-memory block's maintained attribute-major
    matrix through every edit, a cold segment block's columns derived from
    the mapping per call.  The values are the row-major min-max formula's."""

    @staticmethod
    def check(unit):
        columns = unit.rows.norm_columns(range(DIM))
        assert all(column.flags.c_contiguous for column in columns)
        if isinstance(unit.rows, MemoryRows):
            assert unit.rows.norm.T.flags.c_contiguous
        norm = unit.normalized_matrix()
        lower, upper = BOUNDS
        span = upper - lower
        expected = (unit.index_matrix() - lower) / np.where(span > 0, span, 1.0)
        assert norm.tobytes() == np.clip(expected, 0.0, 1.0).tobytes()

    def test_memory_rows_through_every_edit(self):
        files = make_files(30, seed=4)
        unit = unit_of(files[:10], bounds=BOUNDS)
        self.check(unit)
        unit.add_files(files[10:])
        self.check(unit)
        for f in files[:29]:
            unit.remove_file(f.file_id)
        self.check(unit)
        unit.remove_file(files[29].file_id)
        assert len(unit) == 0
        self.check(unit)
        unit.add_file(files[0])  # empty and back
        unit.add_files(files[1:5])
        self.check(unit)
        unit.set_normalization(*BOUNDS)  # renormalise
        self.check(unit)

    def test_segment_rows_cold_and_resident(self, tmp_path):
        """Cold, and resident in memory once writable."""
        unit, segment = _segment_unit(tmp_path / "unit.seg", make_files(30, seed=4))
        try:
            assert isinstance(unit.rows, SegmentRows)
            self.check(unit)
            assert len(unit.files) == 30
            assert isinstance(unit.rows, MemoryRows)
            self.check(unit)
        finally:
            unit.rows = None  # lets go of the mapping
            segment.close()


# ---------------------------------------------------------------------------- raw layout
class TestTheRawMatrixIsAttributeMajor:
    """An in-memory block holds its raw rows attribute-major (``raw.T`` is
    C-contiguous, so a range scan reads each queried attribute as one
    vector) through every edit — a segment block once it is loaded into
    its writable form — and the values, raw and index-space, are the
    row-major ones."""

    @staticmethod
    def rows(files):
        """The row-major raw rows of ``files``."""
        return np.array([f.vector(DEFAULT_SCHEMA) for f in files]).reshape(-1, DIM)

    def check(self, unit, files):
        raw = unit.matrix()
        assert raw.shape == (len(files), DIM)
        assert raw.T.flags.c_contiguous
        expected = self.rows(files)
        assert raw.tobytes() == expected.tobytes()
        logged = np.array(DEFAULT_SCHEMA.log_scale_mask())
        expected[:, logged] = np.log1p(np.maximum(expected[:, logged], 0.0))
        index = unit.index_matrix()
        assert index.flags.c_contiguous
        assert index.tobytes() == expected.tobytes()

    def test_memory_rows_through_every_edit(self):
        files = make_files(30, seed=4)
        unit = unit_of(files[:10], bounds=BOUNDS)
        self.check(unit, files[:10])
        unit.add_files(files[10:])
        self.check(unit, files)
        for f in files[:29]:
            unit.remove_file(f.file_id)
        self.check(unit, files[29:])
        unit.remove_file(files[29].file_id)
        assert len(unit) == 0
        self.check(unit, [])
        unit.add_file(files[0])  # empty and back
        unit.add_files(files[1:5], self.rows(files[1:5]))  # rows handed in, row-major
        self.check(unit, files[:5])
        unit.set_normalization(*BOUNDS)  # renormalise
        self.check(unit, files[:5])

    def test_segment_rows_once_loaded(self, tmp_path):
        files = make_files(30, seed=4)
        unit, segment = _segment_unit(tmp_path / "unit.seg", files)
        try:
            assert isinstance(unit.rows, SegmentRows)  # cold: the mapping's attribute-major view
            assert unit.matrix().T.flags.c_contiguous
            assert unit.matrix().tobytes() == self.rows(files).tobytes()
            assert len(unit.files) == len(files)
            self.check(unit, files)
        finally:
            unit.rows = None  # lets go of the mapping
            segment.close()


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
    records = Segment.records
    monkeypatch.setattr(
        Segment, "records", lambda self, rows: decoded.extend(rows) or records(self, rows)
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
        stats = pipeline.storage.stats()  # read from the mapping: no residency asked
        assert stats["faults"] == 0 and stats["evictions"] == 0

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


class _CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self, lock):
        self.lock, self.taken = lock, 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


class TestARangeAsksForNoResidency:
    """No read asks the segment store for anything.  A range compares raw
    columns and a top-k normalises the columns it queries, both straight
    from a cold block's mapping: on a store cold-started with
    ``resident_segments=1`` (accepted, and ignored), a batch of ranges and
    top-ks — one over the whole population, so every group — faults,
    evicts and pins nothing, never takes the segment store's lock, leaves
    every unit cold, and answers, record for record, distance for distance
    and charge for charge, as the in-memory store it was published from."""

    def test_ranges_fault_nothing_and_match_the_built_store(self, tmp_path):
        files = make_files(96, seed=11, clusters=3) + make_twins(6)
        built = SmartStore.build(files, SmartStoreConfig(num_units=6, seed=2, search_breadth=64))
        pipeline = IngestPipeline(built, WriteAheadLog(tmp_path / "store.wal"))
        pipeline.attach_storage(SegmentStore(tmp_path / "snap"))
        pipeline.checkpoint()
        pipeline.close()
        workload = QueryWorkloadGenerator(files, seed=3)
        attrs = tuple(DEFAULT_SCHEMA.names[:2])
        queries = (
            workload.range_queries(12)
            + [RangeQuery(tuple(DEFAULT_SCHEMA.names), (0.0,) * DIM, (1e18,) * DIM)]
            + workload.topk_queries(8, k=7)
            + [TopKQuery(attrs, (2048.0, 1500.0), len(files))]
        )

        def answers(store):
            out = []
            for unit, query in enumerate(queries):
                result = store.execute(query, ReadContext(home_unit=unit % 6))
                out.append(
                    (
                        [(f.file_id, f.path, f.attributes) for f in result.files],
                        [float(d).hex() for d in result.distances or ()],
                        result.groups_visited,
                        result.complete,
                        result.metrics.as_dict(),
                    )
                )
            return out

        expected = answers(built)
        assert sum(len(files_) for files_, *_ in expected) > 2 * len(files)  # not vacuous
        recovered, _ = recover_from_storage(
            tmp_path / "snap", wal_path=tmp_path / "store.wal", resident_segments=1
        )
        try:
            storage = recovered.storage
            assert len(recovered.store.tree.first_level_groups()) > 1
            lock = storage._lock = _CountingLock(storage._lock)
            assert answers(recovered.store) == expected
            assert lock.taken == 0
            stats = storage.stats()
            assert (stats["faults"], stats["evictions"], stats["pins"]) == (0, 0, 0)
            assert storage._pin_counter.value == 0
            servers = [s for s in recovered.store.cluster if len(s)]
            assert servers and all(isinstance(s.rows, SegmentRows) for s in servers)
        finally:
            recovered.close()


class TestCountingFilesDecodesNothing:
    def test_restored_sharded_stats_decode_no_record(self, tmp_path, monkeypatch):
        files = make_files(96, seed=11, clusters=3)
        spec = DeploymentSpec(
            topology="sharded",
            shards=2,
            store=SmartStoreConfig(num_units=6, seed=2, search_breadth=64),
            wal_dir=str(tmp_path / "wal"),
            storage=StorageConfig(root=str(tmp_path / "snap")),
        )
        with connect(spec, files) as client:
            client.checkpoint()
        with connect(spec) as restored:
            decoded = []
            records = Segment.records
            monkeypatch.setattr(
                Segment, "records", lambda self, rows: decoded.extend(rows) or records(self, rows)
            )
            assert sum(restored.stats()["store"]["files_per_shard"]) == len(files)
            assert restored.store.file_count() == len(files)
            assert f"files={len(files)}," in repr(restored.store)
            assert decoded == []
