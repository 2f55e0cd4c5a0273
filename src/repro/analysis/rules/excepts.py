"""no-bare-except / no-swallow: failures in long-lived loops must leave
a trace.

The compactor thread, replication pumps and the server accept loop all
run forever; an exception swallowed there is a request that vanished with
no metric, no span tag, no log line.  Two rules:

* ``no-bare-except`` — a bare ``except:`` anywhere under ``src/repro``
  (it catches ``KeyboardInterrupt``/``SystemExit`` and masks shutdown).
* ``no-swallow`` — in the daemon-hosting packages, an
  ``except Exception``/``BaseException`` handler whose body is *only*
  ``pass``/``continue``/``...`` silently discards the failure.  Narrow
  handlers (``except OSError: pass`` on a close path) are deliberate and
  exempt; broad handlers that record something before moving on are
  fine.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Project
from repro.analysis.rules.base import Rule

# bench/ hosts the reader storm and the failure-counting phase loop that
# moved out of shard/ and replication/; a swallowed failure there would
# pass a "zero failed requests" gate it should fail.
_SWALLOW_SCOPES = ("server/", "service/", "replication/", "ingest/", "shard/", "bench/")
_BROAD = {"Exception", "BaseException"}


def _handler_names(handler: ast.ExceptHandler) -> Iterator[str]:
    node = handler.type
    if node is None:
        return
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    for elt in elts:
        if isinstance(elt, ast.Name):
            yield elt.id
        elif isinstance(elt, ast.Attribute):
            yield elt.attr


def _body_is_silent(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or ellipsis placeholder
        return False
    return True


class BareExceptRule(Rule):
    name = "no-bare-except"
    summary = "no bare 'except:' anywhere (masks interrupts and shutdown)"

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self.name,
                    node,
                    "bare 'except:' catches KeyboardInterrupt/SystemExit; "
                    "name the exceptions this path expects",
                )


class NoSwallowRule(Rule):
    name = "no-swallow"
    summary = (
        "broad except handlers in daemon packages must not silently "
        "discard the failure"
    )

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        if not ctx.relpath.startswith(_SWALLOW_SCOPES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not any(name in _BROAD for name in _handler_names(node)):
                continue
            if _body_is_silent(node):
                yield ctx.finding(
                    self.name,
                    node,
                    "broad exception silently swallowed; record it "
                    "(metric, span tag, log) or narrow the handler",
                )
