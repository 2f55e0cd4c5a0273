"""The one drill runner behind ``python -m repro bench``.

A *drill* is an exit-code-asserted correctness exercise of one layer of
the service stack (the scenario table in :mod:`repro.bench.scenarios`).
Wall-clock performance numbers live in ``benchmarks/perf/``; what is
asserted here is behaviour — every deployment shape answers
fingerprint-identically to an unsharded, unfailed, uncached baseline
while it is being mutated, resharded, killed or restarted.

This module owns everything the scenarios share:

* the corpus and the exhaustive-breadth store configuration;
* the probe set (point queries + a range/top-k mix) and the mutation mix;
* the three-phase ``probe -> mutate -> drain`` loop with per-phase
  fingerprints and failed-request counting, and its comparison against
  the baseline's run of the same loop;
* the gate table, the exit code and the ``BENCH_<scenario>.json`` writer.

A drill receives a :class:`Run`, records ``gates`` (booleans the exit
code asserts) and ``modeled`` (figures derived from the cost model and
the run's inputs: cost-model seconds, busy-makespan ratios and counts
that a given seed fixes) and formats nothing: the runner renders every
block.  Nothing read off a clock is published; the one clock in a drill
decides a gate (``storage``'s recovery race) and reports no seconds.
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.eval.reporting import format_table
from repro.eval.tracking import write_bench_json
from repro.ingest.pipeline import IngestPipeline
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.metadata.file_metadata import FileMetadata
from repro.service.cache import result_fingerprint
from repro.traces import make_trace
from repro.workloads.generator import QueryWorkloadGenerator

__all__ = [
    "PHASES",
    "PhaseRun",
    "Run",
    "Scenario",
    "Size",
    "fingerprints",
    "run_bench",
    "run_phases",
]

#: The three phases every mutated deployment is probed in.
PHASES = ("pre-mutation", "mutations in flight", "drained")

Mutation = Tuple[str, FileMetadata]


@dataclass(frozen=True)
class Size:
    """Corpus and workload sizing; every scenario has a quick and a full one."""

    profile: str
    scale: float
    seed: int
    units: int          # total storage-unit budget of every deployment
    queries: int        # probe queries per type (point / range / top-k)
    mutations: int = 0


@dataclass(frozen=True)
class Scenario:
    """One row of the scenario table."""

    name: str
    summary: str
    deployment: str
    #: The ``benchmarks/perf`` workload that carries this path's wall clock.
    perf_workload: str
    drill: Callable[["Run"], None]
    quick: Size         # what CI and the test suite run
    full: Size          # what regenerates the committed artefact
    #: Every gate the drill must report; the runner fails a run that
    #: drops one and rejects one that is not declared.
    gates: Tuple[str, ...]


@dataclass
class PhaseRun:
    """What one deployment did across the three phases."""

    prints: Dict[str, List[str]]
    failed: int             # requests (reads or writes) that raised
    busy: List[float]       # modeled busy seconds per shard ([total] unsharded)


class Run:
    """One scenario execution: shared inputs in, two result blocks out."""

    def __init__(self, scenario: Scenario, quick: bool, workdir: Path) -> None:
        self.scenario = scenario
        self.quick = quick
        self.size = size = scenario.quick if quick else scenario.full
        self.workdir = workdir      # scratch for WALs and segment roots
        self.files: List[FileMetadata] = make_trace(
            size.profile, size.scale, size.seed
        ).file_metadata()
        # Exhaustive search breadth: the gates compare deployments with
        # different physical layouts, so the bounded-breadth recall loss of
        # the paper's default configuration must not masquerade as a bug
        # in the layer under drill.
        self.store_config = SmartStoreConfig(
            num_units=size.units, seed=size.seed, search_breadth=max(64, size.units)
        )
        self.config: Dict[str, Any] = {}    # the drill's own constants, for the artefact
        self.gates: Dict[str, bool] = {}
        self.modeled: Dict[str, Any] = {}

    # ------------------------------------------------------------------ shared inputs
    def baseline(self) -> SmartStore:
        """A fresh unsharded store over the corpus (the reference layout)."""
        return SmartStore.build(self.files, self.store_config)

    def _generator(
        self, offset: int, files: Optional[Sequence[FileMetadata]]
    ) -> QueryWorkloadGenerator:
        corpus = self.files if files is None else list(files)
        return QueryWorkloadGenerator(corpus, DEFAULT_SCHEMA, seed=self.size.seed + offset)

    def probes(
        self,
        distribution: str = "zipf",
        files: Optional[Sequence[FileMetadata]] = None,
    ) -> Tuple[List[Any], List[Any]]:
        """``(point queries, range/top-k mix)`` over the corpus (or ``files``)."""
        generator = self._generator(1, files)
        n = self.size.queries
        points = generator.point_queries(n, existing_fraction=0.8)
        mix = generator.mixed_complex_queries(n, n, k=8, distribution=distribution)
        return points, mix

    def mutation_stream(
        self, offset: int = 2, files: Optional[Sequence[FileMetadata]] = None
    ) -> List[Mutation]:
        """The mutation mix (insert-heavy, a third deletes, a sixth
        modifies); pass the *live* ``files`` for a second stream so its
        deletes and modifies target files that still exist."""
        n = self.size.mutations
        n_del, n_mod = n // 3, n // 6
        stream: List[Mutation] = self._generator(offset, files).mutation_stream(
            n - n_del - n_mod, n_del, n_mod
        )
        return stream

    def reference(
        self,
        points: Sequence[Any],
        mix: Sequence[Any],
        mutations: Sequence[Mutation],
        phases: Sequence[str] = PHASES,
    ) -> Tuple[IngestPipeline, PhaseRun]:
        """Run the phase loop on the unsharded baseline behind a volatile
        pipeline; returns the pipeline (its store has the reference
        population) and the reference fingerprints."""
        pipeline = IngestPipeline(self.baseline())
        run = run_phases(pipeline.store, pipeline, points, mix, mutations, phases)
        if run.failed:
            raise RuntimeError("the baseline itself failed requests")
        return pipeline, run

    # ------------------------------------------------------------------ results
    def gate(self, name: str, ok: bool) -> bool:
        if name not in self.scenario.gates:
            raise RuntimeError(
                f"scenario {self.scenario.name!r} does not declare gate {name!r}"
            )
        self.gates[name] = bool(ok)
        return self.gates[name]

    def gate_phases(
        self,
        label: str,
        got: PhaseRun,
        reference: PhaseRun,
        phases: Sequence[str] = PHASES,
    ) -> bool:
        """One ``"<label>: <phase> identical"`` gate per phase."""
        identical = True
        for phase in phases:
            same = got.prints[phase] == reference.prints[phase]
            identical = self.gate(f"{label}: {phase} identical", same) and identical
        return identical


def fingerprints(target: Any, queries: Sequence[Any]) -> List[str]:
    return [result_fingerprint(target.execute(q)) for q in queries]


def run_phases(
    target: Any,
    mutator: Any,
    points: Sequence[Any],
    mix: Sequence[Any],
    mutations: Sequence[Mutation],
    phases: Sequence[str] = PHASES,
    *,
    on_midpoint: Optional[Callable[[], object]] = None,
) -> PhaseRun:
    """Drive one deployment through probe -> mutate -> probe -> drain -> probe.

    ``target`` answers ``execute(query)``; ``mutator`` quacks like an
    ingest pipeline (``insert``/``delete``/``modify`` + ``compactor``).
    ``on_midpoint`` fires halfway through the mutation stream (the
    replica drill kills every primary there).  Every request is
    attempted and a failure is counted rather than raised, because
    "zero failed requests" is itself a gate; a failed read fingerprints
    as ``FAILED`` and so also fails its phase's identity gate.
    """
    tracks_busy = hasattr(target, "shard_busy_seconds")
    out = PhaseRun(
        prints={},
        failed=0,
        busy=[0.0] * (len(target.shards) if tracks_busy else 1),
    )

    def read(query: Any) -> Any:
        try:
            return target.execute(query)
        except Exception:
            out.failed += 1
            return None

    def probe(phase: str) -> None:
        results = [read(q) for q in points]
        before = list(target.shard_busy_seconds) if tracks_busy else []
        for query in mix:
            result = read(query)
            results.append(result)
            if result is not None and not tracks_busy:
                out.busy[0] += result.latency
        for sid, busy in enumerate(before):
            out.busy[sid] += target.shard_busy_seconds[sid] - busy
        out.prints[phase] = [
            "FAILED" if r is None else result_fingerprint(r) for r in results
        ]

    probe(phases[0])
    midpoint = len(mutations) // 2
    for index, (kind, file) in enumerate(mutations):
        if on_midpoint is not None and index == midpoint:
            on_midpoint()
        try:
            getattr(mutator, kind)(file)
        except Exception:
            out.failed += 1
    probe(phases[1])
    mutator.compactor.drain()
    probe(phases[2])
    return out


# ---------------------------------------------------------------------------- rendering
def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.0f}" if abs(value) >= 100 else f"{value:.4g}"
    return "-" if value is None else str(value)


def _is_rows(value: Any) -> bool:
    return isinstance(value, list) and bool(value) and isinstance(value[0], dict)


def _render_block(title: str, block: Mapping[str, Any]) -> None:
    """Scalars as one statistic/value table, every list of row-dicts as
    its own table with the dict keys as named columns."""
    scalars = [[key, _cell(v)] for key, v in block.items() if not _is_rows(v)]
    if scalars:
        _print(format_table(["statistic", "value"], scalars, title=title))
    for key, value in block.items():
        if _is_rows(value):
            headers = list(value[0])
            rows = [[_cell(row.get(h)) for h in headers] for row in value]
            _print(format_table(headers, rows, title=f"{title}: {key}"))


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------- entry points
def run_scenario(scenario: Scenario, *, quick: bool) -> bool:
    """Run one scenario, print its blocks, write its artefact; True = all
    declared gates reported and true."""
    mode = "quick" if quick else "full"
    with tempfile.TemporaryDirectory(prefix=f"repro-drill-{scenario.name}-") as tmp:
        run = Run(scenario, quick, Path(tmp))
        _print(
            f"== bench {scenario.name} ({mode}): {len(run.files)} files, "
            f"{run.size.units} units — {scenario.deployment}"
        )
        scenario.drill(run)
    # A declared gate the drill never reported is a failed gate, not an
    # absent one: the exit code asserts the whole declared set.
    for name in scenario.gates:
        if name not in run.gates:
            run.gates[name] = False

    _render_block("modeled (cost model and run inputs)", run.modeled)
    gate_rows = [[name, "yes" if ok else "NO"] for name, ok in run.gates.items()]
    _print(format_table(["gate", "passed"], gate_rows, title=f"{scenario.name} gates"))
    path = write_bench_json(
        scenario.name,
        {"mode": mode, "files": len(run.files), **asdict(run.size), **run.config},
        gates=run.gates,
        modeled=run.modeled,
    )
    _print(f"[bench json written to {path}]")
    return all(run.gates.values())


def run_bench(
    scenarios: Mapping[str, Scenario],
    names: Sequence[str],
    *,
    run_all: bool,
    list_only: bool,
    quick: bool,
) -> int:
    """``repro bench [SCENARIO...] [--all] [--list] [--quick]`` → exit code."""
    if list_only:
        rows = [
            [s.name, s.deployment, f"{len(s.gates)}", s.perf_workload, s.summary]
            for s in scenarios.values()
        ]
        _print(
            format_table(
                ["scenario", "deployment", "gates", "wall clock in benchmarks/perf",
                 "asserts"],
                rows,
                title="repro bench scenarios (python -m repro bench NAME... [--quick])",
            )
        )
        return 0
    if run_all:
        names = list(scenarios)
    unknown = [name for name in names if name not in scenarios]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {', '.join(unknown)}; choose from {', '.join(scenarios)}"
        )
    if not names:
        raise ValueError("name at least one scenario, or pass --all / --list")
    passed = [run_scenario(scenarios[name], quick=quick) for name in names]
    return 0 if all(passed) else 1
