"""Exit-code-asserted correctness drills: ``python -m repro bench``.

One scenario table (:mod:`repro.bench.scenarios`), one runner
(:mod:`repro.bench.runner`) and the scenario-specific drill bodies
(:mod:`repro.bench.drills`).  Wall-clock performance is measured by
``benchmarks/perf/``, not here.
"""

from repro.bench.runner import Scenario, Size, run_bench
from repro.bench.scenarios import SCENARIOS

__all__ = ["SCENARIOS", "Scenario", "Size", "run_bench"]
