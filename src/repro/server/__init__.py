"""The network front door: wire protocol, socket server and the remote
client.

:class:`~repro.server.server.StoreServer` serves the full unified-client
API over TCP in the wire protocol of :mod:`repro.server.protocol`;
:func:`~repro.server.remote.connect_remote` (or
``repro.api.connect("tcp://host:port")``) is the drop-in remote client.
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

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ConnectionClosed",
    "ProtocolError",
    "RemoteClient",
    "RemoteError",
    "StoreServer",
    "WireCodec",
    "connect_remote",
    "parse_address",
    "serve_spec",
]
