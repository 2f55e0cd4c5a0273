"""A point query contacts the units that hold its name, not every unit.

Counted, not timed.  On a deployment of >= 300 names per unit the paper's
1,024-bit filters are ~90 % full and answer yes to most absent names, so a
point query is a broadcast with a hash in front.  The width a build derives
from its largest unit (``bloom.sized_bits``: 10 bits per name) keeps the
filters pruning: a present name visits <= 2 units on average (its home unit
and the one holding it), an absent name reaches <= 1 unit beyond its home,
and the filename is still hashed once per query.
"""

import hashlib

import numpy as np
import pytest

from repro.bloom import sized_bits
from repro.core.queries import ReadContext
from repro.core.smartstore import SmartStore, SmartStoreConfig
from repro.traces.msn import msn_trace
from repro.workloads.types import PointQuery

UNITS = 8
QUERIES = 300


@pytest.fixture(scope="module")
def files():
    return list(msn_trace(2.0, seed=5).file_metadata())


@pytest.fixture(scope="module")
def store(files):
    return SmartStore.build(files, SmartStoreConfig(num_units=UNITS, seed=3, search_breadth=64))


def plan(store, names):
    """Mean units visited, mean units visited beyond the home unit, and the
    answers, for ``names`` point-queried from rotating home units."""
    visited, remote, answers = [], [], []
    for i, name in enumerate(names):
        home = i % UNITS
        result = store.engine.execute(PointQuery(name), ReadContext(home_unit=home))
        visited.append(len(result.metrics.units_visited))
        remote.append(len(result.metrics.units_visited - {home}))
        answers.append({f.filename for f in result.files})
    return float(np.mean(visited)), float(np.mean(remote)), answers


def present_names(files):
    picks = np.random.default_rng(11).choice(len(files), QUERIES, replace=False)
    return [files[i].filename for i in picks.tolist()]


ABSENT = [f"absent-{i:05d}.bin" for i in range(QUERIES)]


def test_the_deployment_is_one_the_paper_width_cannot_prune(store):
    populations = [len(server) for server in store.cluster]
    assert min(populations) >= 300
    assert store.config.bloom_bits == sized_bits(max(populations)) > 1024


def test_a_present_name_visits_at_most_two_units(store, files):
    names = present_names(files)
    visited, _, answers = plan(store, names)
    assert all(name in got for name, got in zip(names, answers))
    assert visited <= 2.0


def test_an_absent_name_reaches_at_most_one_unit_beyond_its_home(store):
    _, remote, answers = plan(store, ABSENT)
    assert not any(answers)
    assert remote <= 1.0


def test_the_paper_width_broadcasts_on_the_same_population(files, store):
    """The gates above are not met by construction: at 1,024 bits the same
    population and queries visit several times as many units."""
    paper = SmartStore.build(
        files, SmartStoreConfig(num_units=UNITS, seed=3, search_breadth=64, bloom_bits=1024)
    )
    visited, _, _ = plan(paper, present_names(files))
    _, remote, _ = plan(paper, ABSENT)
    assert visited > 2.0 * plan(store, present_names(files))[0]
    assert remote > 1.0


def test_a_point_query_hashes_its_filename_once(store, files, monkeypatch):
    calls = []
    real_md5 = hashlib.md5

    def counting_md5(*args, **kwargs):
        calls.append(args)
        return real_md5(*args, **kwargs)

    store.execute(PointQuery(files[0].filename))  # tables are warm
    monkeypatch.setattr(hashlib, "md5", counting_md5)
    names = present_names(files)[:50] + ABSENT[:50]
    for name in names:
        store.execute(PointQuery(name))
    assert calls == [(name.encode("utf-8"),) for name in names]
