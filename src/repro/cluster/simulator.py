"""The cluster simulator: the storage servers of one deployment.

:class:`ClusterSimulator` is the stand-in for the paper's 60-node testbed.
It owns the storage servers and the random source used to pick "home units"
(queries are initially sent to a random storage unit, §2.2).  Costs are
charged per request, on the :class:`~repro.cluster.metrics.Metrics` each
read or mutation carries.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.bloom.bloom import DEFAULT_BITS, DEFAULT_HASHES
from repro.cluster.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.cluster.node import StorageServer
from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA

__all__ = ["ClusterSimulator"]


class ClusterSimulator:
    """A collection of simulated metadata servers.

    Parameters
    ----------
    num_units:
        Number of storage units / servers (60 in the paper's evaluation).
    schema:
        Attribute schema shared across the deployment.
    cost_model:
        Hardware cost constants used when reporting simulated latency.
    seed:
        Seed for the home-unit selection and any other randomised choice.
    """

    def __init__(
        self,
        num_units: int,
        schema: AttributeSchema = DEFAULT_SCHEMA,
        *,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        seed: Optional[int] = None,
        bloom_bits: int = DEFAULT_BITS,
        bloom_hashes: int = DEFAULT_HASHES,
    ) -> None:
        if num_units < 1:
            raise ValueError(f"num_units must be >= 1, got {num_units}")
        self.schema = schema
        self.cost_model = cost_model
        self.rng = np.random.default_rng(seed)
        self.servers: Dict[int, StorageServer] = {
            unit_id: StorageServer(
                unit_id, schema, bloom_bits=bloom_bits, bloom_hashes=bloom_hashes
            )
            for unit_id in range(num_units)
        }

    # ------------------------------------------------------------------ access
    @property
    def num_units(self) -> int:
        return len(self.servers)

    def server(self, unit_id: int) -> StorageServer:
        return self.servers[unit_id]

    def __iter__(self) -> Iterator[StorageServer]:
        return iter(self.servers.values())

    def unit_ids(self) -> List[int]:
        return sorted(self.servers.keys())

    def random_home_unit(self) -> int:
        """Pick the storage unit a user request is initially sent to."""
        ids = self.unit_ids()
        return int(ids[self.rng.integers(len(ids))])

    # ------------------------------------------------------------------ configuration
    def install_normalization(self, lower: np.ndarray, upper: np.ndarray) -> None:
        """Install deployment-wide normalisation bounds on every server."""
        for server in self.servers.values():
            server.set_normalization(lower, upper)

    # ------------------------------------------------------------------ accounting helpers
    def total_files(self) -> int:
        return sum(len(s) for s in self.servers.values())

    def space_bytes_per_unit(self) -> Dict[int, int]:
        """Bytes of metadata + local index state per server (Figure 7 input)."""
        return {uid: s.space_bytes(self.cost_model) for uid, s in self.servers.items()}
