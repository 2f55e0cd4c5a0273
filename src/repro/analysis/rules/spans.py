"""span-coverage: the hot-path stage catalog must stay traced.

PR 7's distributed tracing is only as good as its coverage: a stage that
silently loses its span disappears from every trace tree and from the
slow-query log's attribution.  This rule pins the catalog of stages that
*must* open a ``Tracer`` span — server op handlers, the scatter/worker
call sites, the replica read path, the WAL fsync — and fails when one of
them no longer contains a ``.span(`` call.

A catalog entry whose function has been renamed or removed is itself a
finding: the catalog is part of the invariant and must move with the
code.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.engine import FileContext, Finding, Project
from repro.analysis.rules.base import FUNCTION_NODES, Rule, call_name

# (relpath, qualified function name) pairs that must open a span.
_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("server/server.py", "StoreServer._execute"),
    ("server/server.py", "StoreServer._mutate"),
    ("server/worker.py", "_WorkerState._shard_query"),
    ("server/worker.py", "_WorkerState._shard_mutate"),
    ("shard/router.py", "ShardRouter._shard_call"),
    ("shard/reshard.py", "ReshardController._rebalance_locked"),
    ("shard/reshard.py", "ReshardController._split_locked"),
    ("replication/group.py", "ReplicaGroup.read"),
    ("service/service.py", "QueryService._execute_on_engine"),
    ("ingest/pipeline.py", "IngestPipeline._apply"),
    ("ingest/pipeline.py", "replay_tail"),
    ("ingest/wal.py", "WriteAheadLog.sync"),
    ("storage/store.py", "SegmentStore.fault_in"),
    ("storage/store.py", "SegmentStore._evict_locked"),
    ("storage/store.py", "SegmentStore.publish_snapshot"),
    ("replication/group.py", "ReplicaGroup._resync_snapshot"),
)


def _opens_span(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and call_name(node) == "span":
            return True
    return False


class SpanCoverageRule(Rule):
    name = "span-coverage"
    summary = "catalogued hot-path stages must open a Tracer span"

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        wanted = {qual for path, qual in _TARGETS if path == ctx.relpath}
        if not wanted:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, FUNCTION_NODES):
                continue
            qual = ctx.symbol_at(node.lineno)
            if qual not in wanted:
                continue
            wanted.discard(qual)
            if not _opens_span(node):
                yield ctx.finding(
                    self.name,
                    node,
                    f"'{qual}' is a catalogued traced stage but opens no "
                    "Tracer span",
                )
        for missing in sorted(wanted):
            yield ctx.finding(
                self.name,
                ctx.tree,
                f"catalogued traced stage '{missing}' not found in "
                f"{ctx.relpath}; update the span-coverage catalog",
            )
