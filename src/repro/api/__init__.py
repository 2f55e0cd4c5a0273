"""The unified client API: one front door for every deployment shape.

``repro.api`` is the stable surface client code programs against; the
layers underneath (core store, ingest pipeline, shard router, replica
groups, query service) are implementation detail behind it:

``repro.api.spec``
    :class:`DeploymentSpec` — a declarative, JSON-round-trippable
    description of any of the five topologies (plain / durable / sharded
    / replicated / sharded+replicated).
``repro.api.client``
    :func:`connect` — build whatever a spec declares and return a
    :class:`Client` with a uniform surface: ``execute`` / ``submit`` /
    mutations / ``stats`` / ``close``.
``repro.api.options``
    :class:`RequestOptions` — per-request deadline (cooperative,
    partial-or-fail), consistency preference (primary / any_replica /
    bounded staleness) and pagination.
``repro.api.cursor``
    Opaque resumable cursors over the canonical, placement-independent
    result orders.
``repro.api.response``
    :class:`Response` / :class:`ResultPage` — the envelope every client
    call returns, shared by queries and mutations.
"""

from repro.api.client import Client, connect
from repro.api.cursor import Cursor, InvalidCursorError, query_fingerprint
from repro.api.options import (
    CONSISTENCY_LEVELS,
    DEADLINE_POLICIES,
    Deadline,
    DeadlineExceededError,
    PartialResultError,
    RequestOptions,
)
from repro.api.response import Response, ResultPage
from repro.api.spec import TOPOLOGIES, DeploymentSpec, load_spec, save_spec

__all__ = [
    "CONSISTENCY_LEVELS",
    "Client",
    "Cursor",
    "DEADLINE_POLICIES",
    "Deadline",
    "DeadlineExceededError",
    "DeploymentSpec",
    "InvalidCursorError",
    "PartialResultError",
    "RequestOptions",
    "Response",
    "ResultPage",
    "TOPOLOGIES",
    "connect",
    "load_spec",
    "query_fingerprint",
    "save_spec",
]
