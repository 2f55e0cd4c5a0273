"""Tests for the cluster simulator."""

import numpy as np
import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.metadata.attributes import DEFAULT_SCHEMA

from helpers import make_files


class TestClusterSimulator:
    def test_server_creation(self):
        sim = ClusterSimulator(8)
        assert sim.num_units == 8
        assert sim.unit_ids() == list(range(8))
        assert len(list(sim)) == 8

    def test_invalid_unit_count(self):
        with pytest.raises(ValueError):
            ClusterSimulator(0)

    def test_random_home_unit_in_range(self):
        sim = ClusterSimulator(5, seed=1)
        homes = {sim.random_home_unit() for _ in range(50)}
        assert homes <= set(range(5))
        assert len(homes) > 1  # not stuck on one unit

    def test_total_files(self):
        sim = ClusterSimulator(3)
        files = make_files(12)
        for i, f in enumerate(files):
            sim.server(i % 3).add_file(f)
        assert sim.total_files() == 12

    def test_install_normalization_reaches_all_servers(self):
        sim = ClusterSimulator(4)
        files = make_files(8)
        for i, f in enumerate(files):
            sim.server(i % 4).add_file(f)
        lower = np.zeros(DEFAULT_SCHEMA.dimension)
        upper = np.full(DEFAULT_SCHEMA.dimension, 1e12)
        sim.install_normalization(lower, upper)
        for server in sim:
            server.normalized_matrix()  # must not raise

    def test_space_per_unit(self):
        sim = ClusterSimulator(2)
        for f in make_files(6):
            sim.server(0).add_file(f)
        space = sim.space_bytes_per_unit()
        assert space[0] > space[1]

    def test_seeded_home_choice_reproducible(self):
        a = ClusterSimulator(10, seed=5)
        b = ClusterSimulator(10, seed=5)
        assert [a.random_home_unit() for _ in range(10)] == [b.random_home_unit() for _ in range(10)]
