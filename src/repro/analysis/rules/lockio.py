"""lock-discipline: no blocking I/O while holding a hot fine-grained lock.

The query service, shard router, socket server and ingest pipeline
all serialise hot paths on small critical sections.  Blocking inside one
(``fsync``, socket send/recv, ``subprocess``, ``sleep``, wire-frame I/O)
stalls every thread queued on that lock — the exact convoy the
per-request latency budget assumes cannot happen.

The rule flags blocking calls lexically inside ``with <lock>:`` blocks
in ``service/``, ``server/``, ``storage/``, ``bench/`` (the drills that
used to live in ``server/`` and ``storage/``), ``shard/router.py``,
``shard/reshard.py`` and ``ingest/pipeline.py``.  A lock is anything whose terminal name contains
``lock`` (plus the server's ``_drained`` condition, which shares the
server lock).  Nested function bodies are skipped — they run later,
usually on another thread.  ``Condition.wait`` is fine (it releases the
lock); deliberate fsync-under-lock designs carry a justified suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.engine import FileContext, Finding, Project
from repro.analysis.rules.base import Rule, body_calls, call_name, dotted_name

_SCOPED_DIRS = ("service/", "server/", "storage/", "bench/")
_SCOPED_FILES = {"shard/router.py", "shard/reshard.py", "ingest/pipeline.py"}

# Condition variables that alias a lock without 'lock' in their name.
_EXTRA_LOCK_NAMES = {"_drained"}

_BLOCKING_ATTRS = {
    "fsync",
    "sendall",
    "recv",
    "recv_into",
    "accept",
    "connect",
    "sleep",
    "read_frame",
    "write_frame",
}


def _is_lock_expr(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    else:
        return False
    return "lock" in name.lower() or name in _EXTRA_LOCK_NAMES


def _is_blocking(call: ast.Call) -> bool:
    name = call_name(call)
    if name in _BLOCKING_ATTRS:
        return True
    dotted = dotted_name(call.func)
    return dotted.startswith("subprocess.") or dotted.startswith("select.")


class LockDisciplineRule(Rule):
    name = "lock-discipline"
    summary = "no blocking I/O inside with-lock blocks on hot paths"

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        if not (
            ctx.relpath.startswith(_SCOPED_DIRS) or ctx.relpath in _SCOPED_FILES
        ):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            held: List[str] = []
            for item in node.items:
                expr = item.context_expr
                # `with lock_factory() as x` / `with self._lock:` both count;
                # unwrap a call so `with self._lock.acquire_timeout():` works.
                target = expr.func if isinstance(expr, ast.Call) else expr
                if _is_lock_expr(target):
                    held.append(dotted_name(target) or "lock")
            if not held:
                continue
            for call in body_calls(node):
                if _is_blocking(call):
                    yield ctx.finding(
                        self.name,
                        call,
                        f"blocking call '{call_name(call)}' while holding "
                        f"{', '.join(held)}",
                    )
