"""Wire protocol: framing robustness, lossless codecs, error envelopes.

The properties this file gates:

* **framing never hangs and never lies** — random, truncated, oversized
  and garbage byte streams surface as :class:`ProtocolError` /
  :class:`ConnectionClosed` promptly (hypothesis-driven), and a server
  fed garbage answers with a clean error envelope and drops the
  connection without applying anything;
* **codecs are lossless** — queries, options, results, receipts, pages
  and whole response envelopes round-trip byte-identically (result
  fingerprints are preserved exactly), and a record block carries every
  record bit-exact: attribute key order, NaN payloads, signed zeros,
  subnormals, ids of any size, unicode paths and extras;
* **malformed record blocks are protocol errors** — in a result, a page
  or a mutation, never a crash and never a half-applied write;
* **errors cross the wire as themselves** — a tampered cursor presented
  remotely raises :class:`InvalidCursorError` exactly as it does
  locally, and a mutation interrupted by a protocol error is never
  half-applied.
"""

import base64
import math
import socket
import struct
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DeploymentSpec, RequestOptions, connect
from repro.api.cursor import InvalidCursorError
from repro.api.options import DeadlineExceededError, PartialResultError
from repro.api.response import Response, ResultPage
from repro.cluster.metrics import Metrics
from repro.core.queries import QueryResult
from repro.core.smartstore import SmartStoreConfig
from repro.ingest.pipeline import MutationReceipt
from repro.metadata.file_metadata import FileMetadata
from repro.server import RemoteClient, protocol
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    ProtocolError,
    RemoteError,
    WireCodec,
    error_envelope,
    raise_remote_error,
    read_frame,
    write_frame,
)
from repro.server.server import StoreServer, parse_address
from repro.service.admission import ServiceOverloadedError
from repro.service.cache import result_fingerprint
from repro.workloads.types import PointQuery, RangeQuery, TopKQuery

from helpers import make_files

CODEC = WireCodec("json")
CONFIG = SmartStoreConfig(num_units=6, seed=3, search_breadth=64)


def socket_pair():
    return socket.socketpair()


def feed(raw: bytes):
    """A connected socket whose peer sent exactly ``raw`` then closed."""
    a, b = socket.socketpair()
    a.sendall(raw)
    a.close()
    return b


# ---------------------------------------------------------------------------- framing
class TestFraming:
    def test_round_trip(self):
        a, b = socket_pair()
        write_frame(a, {"id": 1, "op": "ping"}, CODEC)
        assert read_frame(b, CODEC) == {"id": 1, "op": "ping"}
        a.close(), b.close()

    def test_zero_length_frame_rejected(self):
        sock = feed(struct.pack("!I", 0))
        with pytest.raises(ProtocolError, match="empty frame"):
            read_frame(sock, CODEC)
        sock.close()

    def test_oversized_length_rejected_before_payload(self):
        # A hostile 4 GiB length prefix with no payload behind it must be
        # rejected from the prefix alone — instantly, no allocation.
        sock = feed(struct.pack("!I", 0xFFFFFFFF))
        with pytest.raises(ProtocolError, match="exceeds"):
            read_frame(sock, CODEC)
        sock.close()

    def test_outgoing_oversize_rejected(self):
        a, b = socket_pair()
        with pytest.raises(ProtocolError, match="outgoing frame"):
            write_frame(a, {"blob": "x" * 64}, CODEC, max_frame_bytes=32)
        a.close(), b.close()

    def test_eof_is_connection_closed(self):
        sock = feed(b"")
        with pytest.raises(ConnectionClosed):
            read_frame(sock, CODEC)
        sock.close()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=st.binary(min_size=0, max_size=64))
    def test_random_bytes_never_hang(self, raw):
        """Arbitrary bytes produce a clean error (or a dict for the rare
        accidentally-valid frame) — never a hang, never a crash."""
        sock = feed(raw)
        sock.settimeout(2.0)
        try:
            payload = read_frame(sock, CODEC)
            assert isinstance(payload, dict)
        except (ProtocolError, ConnectionClosed):
            pass
        finally:
            sock.close()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cut=st.integers(min_value=0, max_value=30))
    def test_truncated_frames_surface_as_closed(self, cut):
        raw = struct.pack("!I", 31) + b"{" + b"x" * 30
        sock = feed(raw[: 4 + cut])
        sock.settimeout(2.0)
        with pytest.raises((ProtocolError, ConnectionClosed)):
            read_frame(sock, CODEC)
        sock.close()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=st.binary(min_size=1, max_size=64))
    def test_garbage_payload_is_protocol_error(self, raw):
        """A well-framed but undecodable payload is a ProtocolError unless
        the bytes happen to be a valid JSON object."""
        sock = feed(struct.pack("!I", len(raw)) + raw)
        sock.settimeout(2.0)
        try:
            assert isinstance(read_frame(sock, CODEC), dict)
        except ProtocolError:
            pass
        finally:
            sock.close()

    def test_codec_rejects_non_object_payload(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            CODEC.decode(b"[1,2,3]")

    def test_msgpack_codec_gated(self):
        with pytest.raises(ValueError, match="msgpack"):
            WireCodec("msgpack")
        with pytest.raises(ValueError, match="unknown codec"):
            WireCodec("xml")


# ---------------------------------------------------------------------------- codecs
def sample_result(files):
    metrics = Metrics()
    metrics.messages = 7
    metrics.units_visited = {0, 3}
    metrics.bloom_probes = 11
    return QueryResult(
        files=files[:3],
        metrics=metrics,
        latency=0.001234567890123,
        groups_visited=4,
        hops=2,
        found=True,
        distances=[0.125, 1.0 / 3.0, 2.7182818284590451],
        complete=False,
    )


class TestCodecs:
    @pytest.fixture(scope="class")
    def files(self):
        return make_files(20)

    def test_query_round_trip(self):
        for query in (
            PointQuery("/data/proj0/file0000.dat"),
            RangeQuery(("size", "mtime"), (0.0, 1e2), (1e9, 2e3)),
            TopKQuery(("size",), (1.0 / 3.0,), 5),
        ):
            assert protocol.query_from_wire(protocol.query_to_wire(query)) == query

    def test_query_from_wire_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            protocol.query_from_wire({"type": "warp"})
        with pytest.raises(ProtocolError):
            protocol.query_from_wire({"type": "range", "attributes": ["a"]})

    def test_options_round_trip(self):
        options = RequestOptions(
            deadline_s=0.25,
            on_deadline="fail",
            consistency="bounded",
            max_staleness=9,
            page_size=7,
            cursor="abc",
        )
        assert protocol.options_from_wire(protocol.options_to_wire(options)) == options
        assert protocol.options_to_wire(None) is None
        assert protocol.options_from_wire(None) is None

    def test_result_round_trip_preserves_fingerprint(self, files):
        result = sample_result(files)
        decoded = protocol.result_from_wire(protocol.result_to_wire(result))
        assert result_fingerprint(decoded) == result_fingerprint(result)
        assert decoded.distances == result.distances
        assert decoded.metrics.units_visited == result.metrics.units_visited
        assert decoded.complete is False

    def test_result_survives_json_serialisation(self, files):
        # The actual wire path: codec-encode the dict, decode, rebuild.
        result = sample_result(files)
        raw = CODEC.encode(protocol.result_to_wire(result))
        decoded = protocol.result_from_wire(CODEC.decode(raw))
        assert result_fingerprint(decoded) == result_fingerprint(result)

    def test_receipt_round_trip(self):
        receipt = MutationReceipt(
            seq=42, kind="modify", file_id=7, group_id=2, unit_id=5,
            known=True, latency=0.002,
        )
        assert protocol.receipt_from_wire(protocol.receipt_to_wire(receipt)) == receipt

    def test_response_round_trip_all_payloads(self, files):
        result = sample_result(files)
        for response in (
            Response(kind="query", latency_s=0.1, wall_s=0.2, result=result,
                     complete=False, deadline_expired=True,
                     attribution={"topology": "sharded", "shards": 2}),
            Response(kind="page", latency_s=0.1, wall_s=0.2,
                     page=ResultPage(files=files[:2], distances=[0.5, 0.75],
                                     index=3, cursor="tok", pinned=False)),
            Response(kind="mutation", latency_s=0.0, wall_s=0.0,
                     receipt=MutationReceipt(1, "insert", 9, 0, 1, False, 0.0)),
        ):
            decoded = protocol.response_from_wire(protocol.response_to_wire(response))
            assert decoded == response


# ---------------------------------------------------------------------------- record blocks
def bits(value):
    return struct.pack("<d", value)


def assert_records_exact(decoded, original):
    """``FileMetadata ==`` cannot see key order or tell NaN from NaN."""
    assert len(decoded) == len(original)
    for got, want in zip(decoded, original):
        assert (got.path, got.file_id, got.extra) == (want.path, want.file_id, want.extra)
        assert list(got.attributes) == list(want.attributes)
        assert [bits(v) for v in got.attributes.values()] == [
            bits(v) for v in want.attributes.values()
        ]


EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0],  # signalling NaN
    struct.unpack("<d", struct.pack("<Q", 0x7FF80000DEADBEEF))[0],  # NaN payload
    5e-324, -5e-324, 2.2250738585072009e-308,  # subnormals
    1.0 / 3.0, 1e308,
]
wire_floats = st.floats() | st.sampled_from(EDGE_FLOATS)
wire_ids = st.integers() | st.sampled_from([0, 2**63 - 1, -1, -(2**63), 2**64 + 7])
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False)
)
# A small shared pool of keys, drawn as dicts, gives records that share a
# key set in different orders; the free-text keys give unshared ones.
attribute_keys = (
    st.sampled_from(["size", "mtime", "atime", "owner", "größe"])
    | st.text(min_size=1, max_size=4)
)
wire_records = st.builds(
    FileMetadata,
    path=st.text(min_size=1, max_size=12),
    attributes=st.dictionaries(attribute_keys, wire_floats, max_size=6),
    file_id=wire_ids,
    extra=st.dictionaries(st.text(max_size=4), json_scalars, max_size=3),
)


def through_codec(payload):
    return CODEC.decode(CODEC.encode({"payload": payload}))["payload"]


class TestRecordBlock:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        files=st.lists(wire_records, max_size=8),
        distances=st.lists(wire_floats, max_size=8),
    )
    def test_round_trips_are_bit_exact(self, files, distances):
        result = QueryResult(
            files=files, metrics=Metrics(), latency=0.5, groups_visited=1,
            hops=0, found=bool(files), distances=distances,
        )
        decoded = protocol.result_from_wire(
            through_codec(protocol.result_to_wire(result))
        )
        assert_records_exact(decoded.files, files)
        assert list(map(bits, decoded.distances)) == list(map(bits, distances))

        page = ResultPage(files=files, distances=distances, index=2, cursor="c")
        decoded_page = protocol.page_from_wire(
            through_codec(protocol.page_to_wire(page))
        )
        assert_records_exact(decoded_page.files, files)
        assert list(map(bits, decoded_page.distances)) == list(map(bits, distances))

        for file in files[:1]:  # a mutate payload carries one record
            block = through_codec(protocol.records_to_wire([file]))
            assert_records_exact(protocol.records_from_wire(block), [file])

    def test_block_layout(self):
        files = [
            FileMetadata("/a", {"size": 1.0, "mtime": 2.0}, file_id=2**70),
            FileMetadata("/b", {"mtime": 3.0, "size": 4.0}, file_id=-5),
            FileMetadata("/c", {"size": 5.0, "mtime": 6.0}, file_id=0),
        ]
        block = through_codec(protocol.records_to_wire(files))
        assert block["paths"] == ["/a", "/b", "/c"]
        assert block["ids"] == [2**70, -5, 0]
        assert block["names"] == [["size", "mtime"], ["mtime", "size"]]
        assert block["schema"] == [0, 1, 0]
        assert struct.unpack("<6d", base64.b64decode(block["values"])) == (
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
        )


def good_block():
    return protocol.records_to_wire(make_files(3))


def malformed_blocks():
    """``(label, block)`` pairs, each one malformation of a good block."""
    cases = []

    def case(label, **changes):
        block = good_block()
        block.update(changes)
        cases.append((label, block))

    case("bad base64", values="not base64!")
    case("truncated float64", values=base64.b64encode(b"\0" * 20).decode())
    case("too few values", values=protocol._pack_floats([1.0] * 23))
    case("too many values", values=protocol._pack_floats([1.0] * 25))
    case("unequal columns", paths=["/only/one"])
    case("ids short", ids=[1, 2])
    case("names not a list", names="size")
    case("a names entry not a list", names=["size"])
    case("schema index out of range", schema=[0, 0, 1])
    case("negative schema index", schema=[0, 0, -1])
    case("schema not a list", schema=0)
    case("values not a string", values=[1.0])
    case("extra not a dict", extra=[{}, {}, "x"])
    case("empty path", paths=["", "/b", "/c"])
    block = good_block()
    del block["names"]
    cases.append(("missing column", block))
    return cases


MALFORMED = malformed_blocks()


class TestMalformedBlocks:
    @pytest.mark.parametrize("label,block", MALFORMED, ids=[c[0] for c in MALFORMED])
    def test_result_block_is_protocol_error(self, label, block):
        payload = protocol.result_to_wire(sample_result(make_files(3)))
        payload["files"] = block
        with pytest.raises(ProtocolError, match="malformed query result"):
            protocol.result_from_wire(through_codec(payload))

    @pytest.mark.parametrize("label,block", MALFORMED, ids=[c[0] for c in MALFORMED])
    def test_page_block_is_protocol_error(self, label, block):
        page = ResultPage(files=make_files(3), distances=[], index=0, cursor=None)
        payload = protocol.page_to_wire(page)
        payload["files"] = block
        with pytest.raises(ProtocolError, match="malformed result page"):
            protocol.page_from_wire(through_codec(payload))

    @pytest.mark.parametrize("distances", ["@@@@", "AAAA", 7])
    def test_bad_distances_are_protocol_errors(self, distances):
        payload = protocol.result_to_wire(sample_result(make_files(3)))
        payload["distances"] = distances
        with pytest.raises(ProtocolError):
            protocol.result_from_wire(payload)


# ---------------------------------------------------------------------------- error envelopes
class TestErrorEnvelopes:
    def test_known_errors_reraise_as_themselves(self):
        for exc in (
            InvalidCursorError("bad token"),
            DeadlineExceededError("too slow"),
            PartialResultError("shard down"),
            ServiceOverloadedError("full"),
            ProtocolError("bad frame"),
        ):
            envelope = error_envelope(3, exc)
            assert envelope == {
                "id": 3,
                "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
            with pytest.raises(type(exc)):
                raise_remote_error(envelope["error"])

    def test_unknown_error_becomes_remote_error(self):
        with pytest.raises(RemoteError) as info:
            raise_remote_error({"type": "WeirdInternalError", "message": "boom"})
        assert info.value.error_type == "WeirdInternalError"
        assert info.value.remote_message == "boom"


# ---------------------------------------------------------------------------- live server robustness
@pytest.fixture(scope="module")
def server():
    files = make_files(60)
    client = connect(DeploymentSpec(topology="plain", store=CONFIG), files)
    srv = StoreServer(client, max_in_flight=8, owns_client=True).start()
    yield srv
    srv.close()


def dial(server):
    host, port = parse_address(server.address)
    conn = socket.create_connection((host, port), timeout=10.0)
    conn.settimeout(10.0)
    return conn


def wait_for_network(server, counter, value, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    network = server.stats()["network"]
    while network[counter] < value and time.monotonic() < deadline:
        time.sleep(0.01)
        network = server.stats()["network"]
    return network


class TestServerRobustness:
    def test_parse_address(self):
        assert parse_address("tcp://127.0.0.1:7631") == ("127.0.0.1", 7631)
        for bad in ("127.0.0.1:1", "tcp://:1", "tcp://h", "tcp://h:x"):
            with pytest.raises(ValueError):
                parse_address(bad)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=st.binary(min_size=1, max_size=48))
    def test_garbage_bytes_get_error_envelope_then_close(self, server, raw):
        """Whatever bytes arrive, the server answers (an envelope or a
        clean close) promptly — it never hangs the connection."""
        conn = dial(server)
        try:
            conn.sendall(struct.pack("!I", len(raw)) + raw)
            try:
                reply = read_frame(conn, CODEC)
            except (ConnectionClosed, ProtocolError):
                return  # server dropped us cleanly — acceptable for garbage
            if reply.get("ok"):
                return  # bytes happened to be a valid request
            assert "error" in reply
        finally:
            conn.close()

    def test_oversized_declared_frame_rejected(self, server):
        conn = dial(server)
        try:
            conn.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
            reply = read_frame(conn, CODEC)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ProtocolError"
        finally:
            conn.close()

    def test_unknown_op_is_protocol_error_and_connection_survives(self, server):
        conn = dial(server)
        try:
            write_frame(conn, {"id": 1, "op": "teleport"}, CODEC)
            reply = read_frame(conn, CODEC)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ProtocolError"
            # Same connection still serves valid requests afterwards.
            write_frame(conn, {"id": 2, "op": "ping"}, CODEC)
            assert read_frame(conn, CODEC)["ok"] is True
        finally:
            conn.close()

    def test_protocol_version_mismatch_rejected(self, server):
        conn = dial(server)
        try:
            write_frame(conn, {"id": 1, "op": "hello", "protocol": 99}, CODEC)
            reply = read_frame(conn, CODEC)
            assert reply["ok"] is False
        finally:
            conn.close()

    def test_version_1_hello_is_refused_and_connection_survives(self, server):
        # Version 2 sends records as packed blocks; a version-1 client
        # would misread every result, so its hello is refused by name.
        conn = dial(server)
        try:
            write_frame(conn, {"id": 1, "op": "hello", "protocol": 1}, CODEC)
            reply = read_frame(conn, CODEC)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ProtocolError"
            assert "1" in reply["error"]["message"]
            assert str(protocol.PROTOCOL_VERSION) in reply["error"]["message"]
            assert protocol.PROTOCOL_VERSION == 2
            write_frame(conn, {"id": 2, "op": "epoch"}, CODEC)
            reply = read_frame(conn, CODEC)
            assert reply["ok"] is True and reply["id"] == 2
        finally:
            conn.close()

    @pytest.mark.parametrize("codec", ["json", "msgpack"])
    def test_hello_naming_a_codec_gets_an_ordinary_reply(self, server, codec):
        # Older clients name a codec in their hello.  JSON is the only one:
        # the reply names none, and the connection keeps serving JSON.
        conn = dial(server)
        try:
            hello = {"id": 1, "op": "hello", "protocol": protocol.PROTOCOL_VERSION}
            write_frame(conn, dict(hello, codec=codec), CODEC)
            reply = read_frame(conn, CODEC)
            assert reply["ok"] is True and reply["server"] == "repro"
            assert "codec" not in reply
            write_frame(conn, {"id": 2, "op": "epoch"}, CODEC)
            reply = read_frame(conn, CODEC)
            assert reply["ok"] is True and reply["id"] == 2
        finally:
            conn.close()

    def test_garbage_never_half_applies_a_mutation(self, server):
        """A frame that dies mid-parse must not reach the write path."""
        epoch_before = server.client.epoch()
        conn = dial(server)
        try:
            # A mutation envelope with an undecodable body: framing is
            # fine, JSON is not.
            conn.sendall(struct.pack("!I", 24) + b'{"op":"mutate","kind":"i')
            try:
                read_frame(conn, CODEC)
            except (ConnectionClosed, ProtocolError):
                pass
        finally:
            conn.close()
        assert server.client.epoch() == epoch_before

    def test_malformed_mutation_payload_not_applied(self, server):
        epoch_before = server.client.epoch()
        conn = dial(server)
        try:
            write_frame(
                conn, {"id": 5, "op": "mutate", "kind": "insert", "file": {"nope": 1}},
                CODEC,
            )
            reply = read_frame(conn, CODEC)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ProtocolError"
        finally:
            conn.close()
        assert server.client.epoch() == epoch_before

    @pytest.mark.parametrize("label,block", MALFORMED, ids=[c[0] for c in MALFORMED])
    def test_malformed_mutation_block_not_applied(self, server, label, block):
        epoch_before = server.client.epoch()
        conn = dial(server)
        try:
            write_frame(
                conn, {"id": 6, "op": "mutate", "kind": "insert", "file": block},
                CODEC,
            )
            reply = read_frame(conn, CODEC)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ProtocolError"
        finally:
            conn.close()
        assert server.client.epoch() == epoch_before

    def test_mutation_block_of_two_records_not_applied(self, server):
        epoch_before = server.client.epoch()
        conn = dial(server)
        try:
            block = protocol.records_to_wire(make_files(2, seed=9))
            write_frame(
                conn, {"id": 7, "op": "mutate", "kind": "insert", "file": block},
                CODEC,
            )
            reply = read_frame(conn, CODEC)
            assert reply["error"]["type"] == "ProtocolError"
        finally:
            conn.close()
        assert server.client.epoch() == epoch_before

    def test_reply_over_the_frame_limit_is_a_typed_error(self):
        """A reply too big for a frame is answered with a ProtocolError
        that points at page_size, counted as served, and the connection
        keeps serving."""
        files = make_files(200)
        client = connect(DeploymentSpec(topology="plain", store=CONFIG), files)
        srv = StoreServer(client, max_frame_bytes=4096, owns_client=True).start()
        try:
            remote = RemoteClient(srv.address)
            try:
                scan = RangeQuery(("size",), (0.0,), (1e12,))
                with pytest.raises(ProtocolError, match="page_size") as info:
                    remote.execute(scan)
                assert "4096" in str(info.value)
                assert len(remote._conns) == 1  # the connection went back to the pool
                assert remote.ping() is True
                # A handler accounts a request just after sending its reply,
                # so the ping's own count may still be on its way.
                network = wait_for_network(srv, "requests_served", 3)
                assert network["requests_served"] == 3  # hello, the range, ping
                assert network["protocol_errors"] == 1
                page = remote.execute(scan, RequestOptions(page_size=5)).page
                assert len(page.files) == 5
                assert len(remote._conns) == 1  # one connection served all four
            finally:
                remote.close()
        finally:
            srv.close()

    def test_max_in_flight_overload_envelope(self, files_server=None):
        """Requests beyond max_in_flight get ServiceOverloadedError."""
        files = make_files(40)
        client = connect(DeploymentSpec(topology="plain", store=CONFIG), files)
        srv = StoreServer(client, max_in_flight=1, owns_client=True).start()
        try:
            release = threading.Event()
            original = srv.client.execute

            def slow_execute(query, options=None):
                release.wait(5.0)
                return original(query, options)

            srv.client.execute = slow_execute
            c1, c2 = dial(srv), dial(srv)
            try:
                q = protocol.query_to_wire(PointQuery("/nope"))
                write_frame(c1, {"id": 1, "op": "execute", "query": q}, CODEC)
                # Give request 1 time to occupy the only slot.
                import time

                time.sleep(0.3)
                write_frame(c2, {"id": 2, "op": "execute", "query": q}, CODEC)
                reply2 = read_frame(c2, CODEC)
                assert reply2["ok"] is False
                assert reply2["error"]["type"] == "ServiceOverloadedError"
                release.set()
                assert read_frame(c1, CODEC)["ok"] is True
            finally:
                release.set()
                c1.close(), c2.close()
        finally:
            srv.close()


# ---------------------------------------------------------------------------- cursors over the wire
class TestRemoteCursors:
    @pytest.fixture(scope="class")
    def remote(self):
        files = make_files(80)
        client = connect(DeploymentSpec(topology="sharded", shards=2, store=CONFIG),
                         files)
        srv = StoreServer(client, owns_client=True).start()
        remote = connect(srv.address)
        yield remote
        remote.close()
        srv.close()

    QUERY = RangeQuery(("size",), (0.0,), (1e9,))

    def test_tampered_cursor_raises_invalid_cursor_error(self, remote):
        first = remote.execute(self.QUERY, RequestOptions(page_size=5))
        token = first.cursor
        assert token is not None
        tampered = token[:-4] + ("AAAA" if not token.endswith("AAAA") else "BBBB")
        with pytest.raises(InvalidCursorError):
            remote.execute(self.QUERY, RequestOptions(cursor=tampered))

    def test_cursor_for_wrong_query_rejected_remotely(self, remote):
        first = remote.execute(self.QUERY, RequestOptions(page_size=5))
        other = TopKQuery(("size",), (123.0,), 3)
        with pytest.raises(InvalidCursorError):
            remote.execute(other, RequestOptions(cursor=first.cursor))

    def test_garbage_cursor_rejected_remotely(self, remote):
        with pytest.raises(InvalidCursorError):
            remote.execute(self.QUERY, RequestOptions(cursor="!!not-base64!!"))
