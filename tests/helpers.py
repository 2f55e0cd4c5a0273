"""Shared helpers importable by individual test modules.

Kept separate from ``conftest.py`` so that test modules can ``import`` it
without relying on pytest's conftest module-name handling (which can clash
when several suites are collected in one run).
"""

from __future__ import annotations

import numpy as np

from repro.metadata.file_metadata import FileMetadata


#: The attribute values every record of a tie block shares.
TIE_ATTRS = {
    "size": 8192.0,
    "ctime": 2000.0,
    "mtime": 2100.0,
    "atime": 2200.0,
    "read_bytes": 4096.0,
    "write_bytes": 1024.0,
    "access_count": 7.0,
    "owner": 2.0,
}


def make_twins(n: int = 10) -> list:
    """``n`` records with identical attribute values: every distance ties
    exactly, so answers anchored on the block are pure tie-breaking."""
    return [
        FileMetadata(path=f"/ties/twin{i:02d}.dat", attributes=dict(TIE_ATTRS))
        for i in range(n)
    ]


def make_files(n: int = 60, seed: int = 0, clusters: int = 4) -> list:
    """A small, deterministic file population with obvious cluster structure."""
    rng = np.random.default_rng(seed)
    files = []
    for i in range(n):
        cluster = i % clusters
        base_time = 1000.0 * (cluster + 1)
        size = float(2 ** (10 + cluster) * rng.uniform(0.8, 1.2))
        files.append(
            FileMetadata(
                path=f"/data/proj{cluster}/file{i:04d}.dat",
                attributes={
                    "size": size,
                    "ctime": base_time + rng.uniform(0, 50),
                    "mtime": base_time + 60 + rng.uniform(0, 50),
                    "atime": base_time + 120 + rng.uniform(0, 50),
                    "read_bytes": size * rng.uniform(0.5, 1.5),
                    "write_bytes": size * rng.uniform(0.1, 0.4),
                    "access_count": float(rng.integers(1, 20)),
                    "owner": float(cluster),
                },
                extra={"cluster": cluster},
            )
        )
    return files


