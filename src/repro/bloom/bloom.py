"""MD5-based Bloom filter.

The construction follows the prototype described in §5.1: each key is hashed
with MD5, the 128-bit signature is split into four 32-bit words, and the
``k`` probe positions are derived from those words by double hashing
(``h_i = w0 + i * w1 + i^2 * w2 + w3``), a standard technique that preserves
Bloom-filter false-positive behaviour while requiring a single cryptographic
hash per key.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, List, Sequence

import numpy as np

__all__ = ["BloomFilter", "DEFAULT_BITS", "DEFAULT_HASHES"]

#: Prototype parameters from §5.1.
DEFAULT_BITS = 1024
DEFAULT_HASHES = 7


def _probe_positions(keys: Sequence[str], num_bits: int, num_hashes: int) -> np.ndarray:
    """:meth:`BloomFilter.positions` of many keys at once, as a
    ``(len(keys), num_hashes)`` array (the bulk-insert kernel).

    The sum ``w0 + i*w1 + i^2*w2 + w3`` stays below ``2^32 * (i^2 + i + 2)``,
    so ``uint64`` holds it exactly for any ``num_hashes`` below ``2^15``.
    """
    digests = b"".join(hashlib.md5(key.encode("utf-8")).digest() for key in keys)
    words = np.frombuffer(digests, dtype="<u4").reshape(-1, 4).astype(np.uint64)
    i = np.arange(num_hashes, dtype=np.uint64)
    raw = (words[:, 0] + words[:, 3])[:, None] + i * words[:, 1:2] + (i * i) * words[:, 2:3]
    return (raw % np.uint64(num_bits)).astype(np.intp)


class BloomFilter:
    """A fixed-size Bloom filter over string keys.

    Parameters
    ----------
    num_bits:
        Filter size ``m`` in bits (1024 in the paper's prototype).
    num_hashes:
        Number of probe positions ``k`` per key (7 in the prototype).
    """

    __slots__ = ("num_bits", "num_hashes", "bits", "count")

    def __init__(self, num_bits: int = DEFAULT_BITS, num_hashes: int = DEFAULT_HASHES) -> None:
        if num_bits < 8:
            raise ValueError(f"num_bits must be >= 8, got {num_bits}")
        if num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
        self.num_bits = int(num_bits)
        self.num_hashes = int(num_hashes)
        self.bits = np.zeros(self.num_bits, dtype=bool)
        self.count = 0  # number of keys added (including duplicates)

    # ------------------------------------------------------------------ hashing
    def positions(self, key: str) -> List[int]:
        """The ``num_hashes`` probe positions of ``key`` (one MD5): the
        digest's four little-endian 32-bit words ``w0..w3`` give position
        ``i`` as ``(w0 + i*w1 + i^2*w2 + w3) mod m``.

        A query hashes its key once and hands the positions to
        :meth:`contains_positions` of every filter with these parameters —
        or gathers them from a stacked bit matrix of such filters.
        """
        w0, w1, w2, w3 = struct.unpack("<4I", hashlib.md5(key.encode("utf-8")).digest())
        base, m = w0 + w3, self.num_bits
        return [(base + i * w1 + i * i * w2) % m for i in range(self.num_hashes)]

    # ------------------------------------------------------------------ updates
    def add(self, key: str) -> None:
        """Insert ``key`` into the filter."""
        self.bits[self.positions(key)] = True
        self.count += 1

    def add_many(self, keys: Iterable[str]) -> None:
        """Insert every key of an iterable (one vectorised bit update)."""
        keys = list(keys)
        if not keys:
            return
        self.bits[_probe_positions(keys, self.num_bits, self.num_hashes).ravel()] = True
        self.count += len(keys)

    # ------------------------------------------------------------------ queries
    def contains_positions(self, positions: Sequence[int]) -> bool:
        """Membership test for a key already hashed by :meth:`positions` of
        a filter with identical parameters."""
        return bool(self.bits[positions].all())

    def __contains__(self, key: str) -> bool:
        return self.contains_positions(self.positions(key))

    def contains(self, key: str) -> bool:
        """Membership test; false positives are possible, false negatives are not
        (for keys actually added to *this* filter)."""
        return key in self

    # ------------------------------------------------------------------ composition
    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR of two filters with identical parameters.

        This is how an index unit's filter is derived from its children
        (Figure 4): a key present in any child is present in the union.
        """
        self._check_compatible(other)
        merged = BloomFilter(self.num_bits, self.num_hashes)
        np.logical_or(self.bits, other.bits, out=merged.bits)
        merged.count = self.count + other.count
        return merged

    def union_inplace(self, other: "BloomFilter") -> None:
        """In-place union, used when rebuilding an index unit's filter."""
        self._check_compatible(other)
        np.logical_or(self.bits, other.bits, out=self.bits)
        self.count += other.count

    @classmethod
    def union_of(cls, filters: Iterable["BloomFilter"]) -> "BloomFilter":
        """Union of an arbitrary number of compatible filters."""
        filters = list(filters)
        if not filters:
            raise ValueError("cannot union zero Bloom filters")
        merged = cls(filters[0].num_bits, filters[0].num_hashes)
        for f in filters:
            merged.union_inplace(f)
        return merged

    def copy(self) -> "BloomFilter":
        clone = BloomFilter(self.num_bits, self.num_hashes)
        clone.bits = self.bits.copy()
        clone.count = self.count
        return clone

    def clear(self) -> None:
        """Remove every key (reset all bits)."""
        self.bits[:] = False
        self.count = 0

    def _check_compatible(self, other: "BloomFilter") -> None:
        if self.num_bits != other.num_bits or self.num_hashes != other.num_hashes:
            raise ValueError(
                "cannot combine Bloom filters with different parameters: "
                f"({self.num_bits}, {self.num_hashes}) vs ({other.num_bits}, {other.num_hashes})"
            )

    # ------------------------------------------------------------------ analytics
    def fill_ratio(self) -> float:
        """Fraction of bits currently set."""
        return float(self.bits.mean())

    def false_positive_probability(self) -> float:
        """Estimated false-positive probability given the current fill ratio.

        For a filter with fill ratio ``rho`` and ``k`` probes the chance a
        never-inserted key hits only set bits is ``rho ** k``.
        """
        return float(self.fill_ratio() ** self.num_hashes)

    def size_bytes(self) -> int:
        """Storage footprint of the bit array in bytes (for space accounting)."""
        return (self.num_bits + 7) // 8

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self.num_bits}, k={self.num_hashes}, "
            f"keys={self.count}, fill={self.fill_ratio():.3f})"
        )
