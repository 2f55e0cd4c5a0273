"""Machine-readable drill artefacts: ``benchmarks/results/BENCH_<scenario>.json``.

Every ``python -m repro bench`` scenario writes one JSON document next
to its printed tables, so CI and regression tooling can diff runs
without parsing text:

.. code-block:: json

    {
      "format": "repro.bench-result",
      "bench": "shard",
      "version": "1.19.0",
      "timestamp": "2026-09-28T12:00:00+00:00",
      "git_rev": "abc1234",
      "config": {"mode": "full", "files": 1250, "...": "..."},
      "gates": {"4 shard(s): drained identical": true},
      "modeled": {"scatter_speedup": 3.7, "rows": [{"shards": 4, "shards_pruned": 9}]}
    }

``config`` is what the run was asked to do.  The two result blocks are
never mixed: ``gates`` holds the booleans the exit code asserts,
``modeled`` holds what is derived from the cost model and the run's
inputs — cost-model seconds, busy-makespan ratios and counts a given
seed fixes, so two runs of one revision write equal blocks.  Nothing
read off a clock is written; wall-clock figures live in
``benchmarks/perf``.  Values are coerced to plain JSON types best-effort
(numpy scalars unwrap, sets sort, everything else falls back to ``repr``).
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = ["BENCH_DIR_ENV", "bench_json_path", "write_bench_json"]

BENCH_FORMAT = "repro.bench-result"

#: Environment override for where artefacts land.  The test suite sets
#: this to a temporary directory (see ``tests/conftest.py``) so that
#: exercising ``repro bench`` can never clobber the checked-in official
#: results — only deliberate runs from the checkout write those.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

#: The one artefact location, relative to the working directory (the
#: repository root for CLI and CI runs).
RESULTS_DIR = "benchmarks/results"


@functools.lru_cache(maxsize=None)
def _git_rev() -> Optional[str]:
    """The working tree's short commit hash (``-dirty`` when it has
    uncommitted changes), or None outside a checkout.

    Read once per process: the code under drill was loaded at start-up,
    and the first artefact ``repro bench --all`` rewrites would otherwise
    stamp the other seven ``-dirty``.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--exclude", "*"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _jsonable(value: Any) -> Any:
    """Best-effort coercion to plain JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "as_dict"):
        return _jsonable(value.as_dict())
    return repr(value)


def bench_json_path(name: str) -> Path:
    """Where ``write_bench_json`` puts the artefact: ``$REPRO_BENCH_DIR``
    when set, else ``benchmarks/results/`` under the working directory."""
    return Path(os.environ.get(BENCH_DIR_ENV) or RESULTS_DIR) / f"BENCH_{name}.json"


def write_bench_json(
    name: str,
    config: Dict[str, Any],
    *,
    gates: Dict[str, bool],
    modeled: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one ``BENCH_<name>.json`` document; returns its path.

    Each document stamps the package version, the run's UTC timestamp
    and (when inside a checkout) the git revision it exercised.
    """
    from repro import __version__

    path = bench_json_path(name)
    document = {
        "format": BENCH_FORMAT,
        "bench": name,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": _git_rev(),
        "config": _jsonable(config),
        "gates": {str(k): bool(v) for k, v in gates.items()},
        "modeled": _jsonable(modeled or {}),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
