"""``--selftest``: the oracle against ``repro.eval.recall``, and the checks
against answers that are wrong on purpose.

The harness trusts the oracle with every verdict, so the oracle is held to
the repository's own brute-force ground truth on a 2,000-file corpus —
before and after a mutation stream — and each kind of wrong answer is
shown to raise ``failed`` or lower ``recall``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from repro.eval.recall import ground_truth_range, ground_truth_topk
from repro.workloads.generator import QueryWorkloadGenerator

from .catalog import END_TO_END, METRICS, PER_LAYER, WORKLOADS
from .inputs import TOPK_K, make_corpus, mutation_sets
from .oracle import Answer, Oracle, Tally

__all__ = ["run_selftest"]


def _ids(files: Any) -> np.ndarray:
    return np.sort(np.asarray([f.file_id for f in files], dtype=np.int64))


def _agree(oracle: Oracle, live: List[Any], generator: QueryWorkloadGenerator) -> List[str]:
    """Oracle answers vs the repository's brute force over ``live``."""
    problems: List[str] = []
    for query in generator.range_queries(100):
        if not np.array_equal(oracle.range(query), _ids(ground_truth_range(live, query))):
            problems.append(f"range disagrees on {query}")
    for query in generator.topk_queries(100, k=TOPK_K):
        want = ground_truth_topk(
            live, query, raw_lower=oracle.index_lower, raw_upper=oracle.index_upper
        )
        got, _ = oracle.topk(query)
        if not np.array_equal(np.sort(got), _ids(want)):
            problems.append(f"top-k disagrees on {query}")
    for query in generator.point_queries(100):
        want = _ids([f for f in live if f.filename == query.filename])
        if not np.array_equal(oracle.point(query), want):
            problems.append(f"point disagrees on {query}")
    return problems


def _wrong_answers(oracle: Oracle, live: List[Any], generator: QueryWorkloadGenerator) -> List[str]:
    """Each kind of deliberately wrong answer must be caught."""
    problems: List[str] = []
    outsider = live[0]

    query = next(q for q in generator.range_queries(50) if outsider.file_id not in oracle.range(q))
    tally = Tally()
    oracle.check(query, Answer(np.append(oracle.range(query), outsider.file_id)), tally)
    if tally.failed != 1 or tally.failed_ratio != 1.0:
        problems.append("a range answer holding a non-matching file did not raise failed_ratio")

    tally = Tally()
    oracle.check(query, Answer(oracle.range(query)[1:]), tally)
    if oracle.range(query).size and not tally.recall < 1.0:
        problems.append("a range answer missing a file did not lower recall")

    point = generator.point_queries(1, existing_fraction=1.0)[0]
    tally = Tally()
    oracle.check(point, Answer(np.empty(0, dtype=np.int64)), tally)
    if tally.failed != 1:
        problems.append("a point answer missing its file did not raise failed_ratio")

    topk = generator.topk_queries(1, k=TOPK_K)[0]
    ids, dists = oracle.topk(topk)
    everyone = oracle.live_ids()
    far = everyone[~np.isin(everyone, ids)][0]  # any live file outside the ideal set
    swapped = ids.copy()
    swapped[-1] = far
    tally = Tally()
    oracle.check(topk, Answer(swapped), tally)
    if not tally.recall < 1.0:
        problems.append("a top-k answer holding a far file did not lower recall")
    tally = Tally()
    oracle.check(topk, Answer(ids, distances=dists + 1e-3), tally)
    if tally.failed != 1:
        problems.append("top-k distances off by 1e-3 did not raise failed_ratio")

    tally = Tally()
    oracle.check(topk, Answer(ids, complete=False), tally)
    oracle.check(topk, Answer(ids, error="ServiceOverloadedError: refused"), tally)
    if tally.failed != 2:
        problems.append("an incomplete or refused answer did not raise failed_ratio")
    return problems


def _contract_problems(contract_path: Path) -> List[str]:
    """``BENCHMARK.json`` must name only catalogued metrics, with the
    catalogue's unit, direction and bound, and exactly the catalogue's
    workloads."""
    with contract_path.open("r", encoding="utf-8") as fh:
        contract: Dict[str, Any] = json.load(fh)
    problems: List[str] = []
    if [w["name"] for w in contract["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the catalogue")
    listed = contract["end_to_end"] + contract["per_layer"]
    for entry in listed:
        known = METRICS.get(entry["name"])
        if known is None:
            problems.append(f"BENCHMARK.json names unknown metric {entry['name']!r}")
        elif (known.unit, known.better) != (entry["unit"], entry["better"]) or entry.get(
            "bound", known.bound
        ) != known.bound:
            problems.append(f"BENCHMARK.json disagrees with the catalogue on {entry['name']!r}")
    missing = {m.name for m in END_TO_END + PER_LAYER} - {e["name"] for e in listed}
    if missing:
        problems.append(f"BENCHMARK.json leaves out {sorted(missing)}")
    return problems


def run_selftest(contract_path: Path) -> int:
    files, _ = make_corpus(0.8)  # 2,000 files
    generator = QueryWorkloadGenerator(files, seed=11)
    mutations = mutation_sets(files, 13, 200, 1)[0]
    oracle = Oracle(files, spare_rows=len(mutations))
    problems = _agree(oracle, list(files), generator)

    live = {f.file_id: f for f in files}
    for kind, file in mutations:
        oracle.apply(kind, file)
        if kind == "delete":
            live.pop(file.file_id, None)
        else:
            live[file.file_id] = file
    problems += _agree(oracle, list(live.values()), generator)
    problems += _wrong_answers(oracle, list(live.values()), generator)
    problems += _contract_problems(contract_path)

    for line in problems:
        print(f"SELFTEST FAILED: {line}")
    if not problems:
        print(
            f"selftest ok: oracle equals repro.eval.recall on {len(files)} files "
            f"(before and after {len(mutations)} mutations); wrong answers are caught; "
            "BENCHMARK.json matches the catalogue"
        )
    return 1 if problems else 0
