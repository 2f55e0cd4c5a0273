"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section (``python -m repro experiments`` lists which).  Modules
follow the same pattern:

* session-scoped fixtures build the traces, SmartStore deployments and
  baseline systems once;
* each ``test_*`` function wraps the interesting operation in the
  ``benchmark`` fixture so ``pytest benchmarks/bench_*.py`` reports
  wall-clock timings;
* the reproduced rows/series themselves (the paper-shaped tables) are
  printed and also written to ``benchmarks/results/<name>.txt`` (see
  ``_bench_utils.record_result``) so they survive pytest's stdout
  capturing; ``EXPERIMENTS.md`` records the paper-vs-measured comparison.

The scales are deliberately reduced (thousands of files, hundreds of
queries) so the whole harness completes in minutes on a laptop; the
quantities that matter — relative latencies, hop distributions, recall
ordering, space ratios — are scale-stable.
"""

from __future__ import annotations

import pytest

from _bench_utils import NUM_UNITS, TRACE_SCALE
from repro.baselines import DBMSBaseline, RTreeBaseline
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.metadata.attributes import DEFAULT_SCHEMA
from repro.traces.eecs import eecs_trace
from repro.traces.hp import hp_trace
from repro.traces.msn import msn_trace
from repro.workloads.generator import QueryWorkloadGenerator


# ---------------------------------------------------------------------------- traces
@pytest.fixture(scope="session")
def msn_files():
    return msn_trace(scale=TRACE_SCALE, seed=29).file_metadata()


@pytest.fixture(scope="session")
def eecs_files():
    return eecs_trace(scale=TRACE_SCALE, seed=41).file_metadata()


@pytest.fixture(scope="session")
def hp_files():
    return hp_trace(scale=TRACE_SCALE, seed=17).file_metadata()


# ---------------------------------------------------------------------------- systems
@pytest.fixture(scope="session")
def msn_store(msn_files):
    return SmartStore.build(msn_files, SmartStoreConfig(num_units=NUM_UNITS, seed=1))


@pytest.fixture(scope="session")
def eecs_store(eecs_files):
    return SmartStore.build(eecs_files, SmartStoreConfig(num_units=NUM_UNITS, seed=2))


@pytest.fixture(scope="session")
def hp_store(hp_files):
    return SmartStore.build(hp_files, SmartStoreConfig(num_units=NUM_UNITS, seed=3))


@pytest.fixture(scope="session")
def msn_baselines(msn_files):
    return RTreeBaseline(msn_files, DEFAULT_SCHEMA), DBMSBaseline(msn_files, DEFAULT_SCHEMA)


@pytest.fixture(scope="session")
def eecs_baselines(eecs_files):
    return RTreeBaseline(eecs_files, DEFAULT_SCHEMA), DBMSBaseline(eecs_files, DEFAULT_SCHEMA)


# ---------------------------------------------------------------------------- workloads
@pytest.fixture(scope="session")
def msn_generator(msn_files):
    return QueryWorkloadGenerator(msn_files, DEFAULT_SCHEMA, seed=7)


@pytest.fixture(scope="session")
def eecs_generator(eecs_files):
    return QueryWorkloadGenerator(eecs_files, DEFAULT_SCHEMA, seed=11)


@pytest.fixture(scope="session")
def hp_generator(hp_files):
    return QueryWorkloadGenerator(hp_files, DEFAULT_SCHEMA, seed=13)
