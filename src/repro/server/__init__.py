"""The network front door: wire protocol, socket server, shard workers,
and the remote client.

One wire protocol (:mod:`repro.server.protocol`) serves two hops:

* **client ↔ front door** — :class:`~repro.server.server.StoreServer`
  serves the full unified-client API over TCP;
  :func:`~repro.server.remote.connect_remote` (or
  ``repro.api.connect("tcp://host:port")``) is the drop-in remote client;
* **front door ↔ shard workers** — when a spec declares
  ``execution="processes"``, :func:`~repro.server.worker.build_process_router`
  runs one worker *process* per shard and the router scatters to them
  over the same protocol, so scan-heavy work escapes the GIL and uses
  every core.
"""

from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    RemoteError,
    WireCodec,
)
from repro.server.remote import RemoteClient, connect_remote
from repro.server.server import StoreServer, parse_address, serve_spec
from repro.server.worker import RemoteShard, build_process_router, spawn_worker

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ConnectionClosed",
    "ProtocolError",
    "RemoteClient",
    "RemoteError",
    "RemoteShard",
    "StoreServer",
    "WireCodec",
    "build_process_router",
    "connect_remote",
    "parse_address",
    "serve_spec",
    "spawn_worker",
]
