"""Every module under ``src/repro`` has a reader outside itself.

A module is live when its dotted path, or one of its public top-level
names, appears in some Python file under ``src/repro``, ``benchmarks/`` or
``examples/`` other than the module itself and its own package
``__init__.py``.  Tests do not count: a module only its own tests import is
dead code with a test suite.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Set

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
READER_ROOTS = (SRC / "repro", REPO / "benchmarks", REPO / "examples")

#: Dotted-path prefixes that are live by a mechanism a text scan cannot see.
EXEMPT = {
    "repro.analysis.rules.": "rules/__init__ registers each rule module as a lint plug-in",
    "repro.analysis.lockorder": "a runtime lock-order witness that only the test suite installs",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _dotted(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _public_names(path: Path) -> Set[str]:
    names: Set[str] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def _readers() -> Dict[Path, str]:
    return {
        path: path.read_text(encoding="utf-8")
        for root in READER_ROOTS
        for path in sorted(root.rglob("*.py"))
    }


def dead_modules() -> List[str]:
    """Dotted paths of the non-exempt modules nothing outside them reads."""
    readers = _readers()
    tokens = {path: set(_IDENT.findall(text)) for path, text in readers.items()}
    dead = []
    for module in sorted((SRC / "repro").rglob("*.py")):
        if module.name in ("__init__.py", "__main__.py"):
            continue
        dotted = _dotted(module)
        if any(dotted.startswith(prefix) for prefix in EXEMPT):
            continue
        names = _public_names(module)
        own = {module, module.parent / "__init__.py"}
        if not any(
            dotted in text or names & tokens[path]
            for path, text in readers.items()
            if path not in own
        ):
            dead.append(dotted)
    return dead


def test_every_module_has_a_reader():
    assert dead_modules() == []
