"""``--compare PREV.json``: one row per (end-to-end metric, workload).

A metric is *worse* when its median moved in the bad direction by more
than its bound, *better* when it moved the other way by more than the
bound, *within-bound* otherwise — unless the previous run's own spread
(inter-quartile distance over the median) is wider than the bound, in
which case the row is *unresolved*: the benchmark could not have told.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .catalog import END_TO_END

__all__ = ["compare", "comparable"]

Row = Tuple[str, str, float, float, float, float, float, str]


def comparable(prev: Dict[str, Any], cur: Dict[str, Any]) -> Optional[str]:
    """Why two results files cannot be compared (``None`` when they can).

    The inputs come from ``repro.workloads`` / ``repro.traces``, so a
    change there changes the fingerprint and must be seen, not averaged in.
    """
    for name, doc in (("previous", prev), ("current", cur)):
        if not doc.get("comparable", False):
            return f"the {name} run is stamped comparable: false (a --quick or partial run)"
    for workload, now in cur["workloads"].items():
        before = prev["workloads"].get(workload)
        if before is None:
            return f"the previous run has no workload {workload!r}"
        for key in ("input_sha256", "ops_per_pass", "passes"):
            if before[key] != now[key]:
                return f"{workload}: {key} differs ({before[key]!r} != {now[key]!r})"
    return None


def _spread_share(doc: Dict[str, Any]) -> float:
    spread = doc.get("spread")
    if not spread or not doc["value"]:
        return 0.0
    return abs(spread["q3"] - spread["q1"]) / abs(doc["value"])


def compare(prev: Dict[str, Any], cur: Dict[str, Any]) -> List[Row]:
    """Rows of ``(metric, workload, previous, current, previous spread,
    current spread, worsening, verdict)``; worsening is the share of the
    previous median by which the metric moved in its bad direction."""
    rows: List[Row] = []
    for workload, now in cur["workloads"].items():
        before = prev["workloads"][workload]
        for spec in END_TO_END:
            old = before["end_to_end"].get(spec.name)
            new = now["end_to_end"].get(spec.name)
            if old is None or new is None:
                continue
            a, b = float(old["value"]), float(new["value"])
            moved = (b - a) if spec.better == "lower" else (a - b)
            worsening = moved / abs(a) if a else (0.0 if moved == 0 else float("inf") * moved)
            bound = spec.bound or 0.0
            if _spread_share(old) > bound and bound > 0:
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "worse"
            elif worsening < -bound:
                verdict = "better"
            else:
                verdict = "within-bound"
            rows.append(
                (spec.name, workload, a, b, _spread_share(old), _spread_share(new), worsening, verdict)
            )
    return rows
