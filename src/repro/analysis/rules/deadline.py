"""deadline-propagation: cooperative deadlines must not be dropped.

A request's :class:`~repro.api.options.Deadline` rides in the
:class:`~repro.core.queries.ReadContext` that service -> router -> shard
-> replica -> engine forward whole (parameter ``ctx``); only below
``QueryEngine.execute`` does it travel as a bare ``deadline`` argument.
Any function that *receives* either carrier and then calls another
function that also accepts one must forward it — a silent drop turns a
bounded request into an unbounded one, and nothing else in the stack
notices.

Forwarding counts when the call passes the context — ``ctx`` itself,
``replace(ctx, ...)``, or a local derived from it — or its deadline: a
``deadline=`` keyword, a value *named* deadline (``self._query(...,
deadline, ...)``, ``ctx.deadline``, ``request.deadline``), or a
``**kwargs`` splat.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.analysis.engine import FileContext, Finding, Project
from repro.analysis.rules.base import (
    FunctionNode,
    Rule,
    call_name,
    functions,
    param_names,
)

# Names too generic to index: a method of this name accepting ``deadline``
# somewhere must not force every unrelated call of that name to forward.
_GENERIC_NAMES = {"read", "write", "get", "put", "send", "run", "close"}


def _takes_context(fn: FunctionNode) -> bool:
    """True when ``fn`` takes a read context: a parameter named ``ctx``
    whose annotation, if any, says ReadContext (``ctx`` also names lint
    and trace contexts, which are annotated as such)."""
    args = fn.args
    return any(
        arg.arg == "ctx"
        and (arg.annotation is None or "ReadContext" in ast.unparse(arg.annotation))
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    )


def _names(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _context_names(fn: FunctionNode) -> Set[str]:
    """``ctx`` plus every local assigned from an expression mentioning it
    (``shard_ctx = replace(ctx, ...)``), nested closures included."""
    derived = {"ctx"}
    grew = True
    while grew:
        grew = False
        for node in ast.walk(fn):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            if not _names(node.value) & derived:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id not in derived:
                    derived.add(target.id)
                    grew = True
    return derived


def _passes_deadline(call: ast.Call, contexts: Set[str]) -> bool:
    for kw in call.keywords:
        if kw.arg is None:  # **kwargs splat rides the deadline through
            return True
        if kw.arg == "deadline":
            return True
    for value in (*call.args, *(kw.value for kw in call.keywords)):
        if isinstance(value, ast.Name) and value.id == "deadline":
            return True
        if isinstance(value, ast.Attribute) and value.attr == "deadline":
            return True
        if contexts and _names(value) & contexts:
            return True
    return False


class DeadlinePropagationRule(Rule):
    name = "deadline-propagation"
    summary = (
        "functions receiving a deadline (or the ReadContext carrying it) "
        "must forward it to every callee that accepts one"
    )

    def __init__(self) -> None:
        self._accepting: Dict[str, Set[str]] = {}

    def prepare(self, project: Project) -> None:
        self._accepting = {}
        for ctx in project.files:
            for fn in functions(ctx.tree):
                if fn.name in _GENERIC_NAMES:
                    continue
                if "deadline" in param_names(fn) or _takes_context(fn):
                    self._accepting.setdefault(fn.name, set()).add(ctx.relpath)

    def check(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        for fn in functions(ctx.tree):
            takes_context = _takes_context(fn)
            if not takes_context and "deadline" not in param_names(fn):
                continue
            contexts = _context_names(fn) if takes_context else set()
            carrier = "read context" if takes_context else "deadline"
            # Closures included: a scatter callback captures the carrier
            # and is exactly where a per-shard call could drop it.
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                callee = call_name(call)
                if callee not in self._accepting:
                    continue
                if _passes_deadline(call, contexts):
                    continue
                yield ctx.finding(
                    self.name,
                    call,
                    f"call to deadline-accepting '{callee}' drops the "
                    f"{carrier} this function received",
                )
