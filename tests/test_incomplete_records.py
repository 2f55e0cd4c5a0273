"""A record the schema cannot index is refused at the write path.

An insert or a modify whose record lacks a schema attribute used to be
logged and acknowledged on the single-store and replicated topologies,
after which every drain raised ``KeyError`` (the sharded router raised
the ``KeyError`` from its partitioner instead).  Now every topology,
locally and through ``RemoteClient``, raises one ``ValueError`` with one
message naming the missing attributes, before anything is logged, staged
or shipped: the epoch does not move, and the next good write takes
sequence number 1.  Extra attributes stay allowed.

A record with a NaN schema attribute is refused the same way, with a
message naming the file and the attribute, and so is a NaN row handed to
``SmartStore.build``: NaN would poison every MBR and shard summary it is
folded into (one NaN ``mtime`` once hid 32 of 60 files from a
whole-range query on ``sharded``).
"""

import math

import pytest

from repro.api import DeploymentSpec, connect
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.metadata.file_metadata import FileMetadata
from repro.server import serve_spec
from repro.workloads.types import PointQuery

from helpers import make_files

CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)
TOPOLOGIES = ("plain", "durable", "sharded", "replicated", "sharded_replicated")
BAD_PATH = "/data/proj0/bad.dat"
MESSAGE = {
    "missing": (
        f"file {BAD_PATH!r} is missing attribute(s) 'ctime', 'mtime', 'atime', "
        "'read_bytes', 'write_bytes', 'access_count', 'owner' required by the schema"
    ),
    "nan": f"file {BAD_PATH!r} has NaN attribute(s) 'mtime', which the schema cannot index",
}


def spec_for(topology: str, tmp_path) -> DeploymentSpec:
    kwargs = {"topology": topology, "store": CONFIG, "shards": 2, "replicas": 1}
    if topology == "durable":
        kwargs["wal_dir"] = str(tmp_path / "wal")
    return DeploymentSpec(**kwargs)


@pytest.fixture(scope="module")
def population():
    return make_files(60)


def incomplete(kind: str, defect: str, population) -> FileMetadata:
    """A record the schema cannot index: it lacks all but one attribute,
    or its ``mtime`` is NaN.  A modify names a live record."""
    file_id = None if kind == "insert" else population[3].file_id
    if defect == "missing":
        return FileMetadata(BAD_PATH, {"size": 1.0}, file_id=file_id)
    attributes = {**population[3].attributes, "mtime": math.nan}
    return FileMetadata(BAD_PATH, attributes, file_id=file_id)


def newcomer() -> FileMetadata:
    """A valid record carrying one attribute the schema does not name."""
    good = make_files(61)[-1]
    return FileMetadata(good.path, {**good.attributes, "colour": 3.0})


def refuse_then_write(client, kind: str, defect: str, population) -> None:
    """The refusal leaves no trace, and the next good write is seq 1."""
    epoch = client.epoch()
    with pytest.raises(ValueError) as info:
        getattr(client, kind)(incomplete(kind, defect, population))
    assert str(info.value) == MESSAGE[defect]
    assert client.epoch() == epoch
    assert not client.execute(PointQuery("bad.dat")).found

    good = newcomer()
    assert client.insert(good).receipt.seq == 1
    assert client.execute(PointQuery(good.filename)).found


def refused_before_the_log(topology, kind, defect, population, tmp_path) -> None:
    with connect(spec_for(topology, tmp_path), population) as client:
        refuse_then_write(client, kind, defect, population)
        pipeline = client.service.pipeline
        pipeline.compactor.drain()  # raised KeyError once a bad record was staged
        if topology == "durable":
            assert pipeline.wal.last_seq == 1


def refused_over_the_wire(topology, kind, defect, population, tmp_path) -> None:
    server = serve_spec(spec_for(topology, tmp_path), population)
    try:
        remote = connect(server.address)
        try:
            refuse_then_write(remote, kind, defect, population)
        finally:
            remote.close()
    finally:
        server.close()


@pytest.mark.parametrize("kind", ["insert", "modify"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_incomplete_record_is_refused_before_the_log(topology, kind, population, tmp_path):
    refused_before_the_log(topology, kind, "missing", population, tmp_path)


@pytest.mark.parametrize("kind", ["insert", "modify"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_incomplete_record_is_refused_over_the_wire(topology, kind, population, tmp_path):
    refused_over_the_wire(topology, kind, "missing", population, tmp_path)


@pytest.mark.parametrize("kind", ["insert", "modify"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_nan_record_is_refused_before_the_log(topology, kind, population, tmp_path):
    refused_before_the_log(topology, kind, "nan", population, tmp_path)


@pytest.mark.parametrize("kind", ["insert", "modify"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_nan_record_is_refused_over_the_wire(topology, kind, population, tmp_path):
    refused_over_the_wire(topology, kind, "nan", population, tmp_path)


def test_a_nan_row_is_refused_by_build(population):
    bad = incomplete("insert", "nan", population)
    with pytest.raises(ValueError) as info:
        SmartStore.build(population + [bad], CONFIG)
    assert str(info.value) == MESSAGE["nan"]
