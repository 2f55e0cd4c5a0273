"""Bloom filters for filename-based point queries.

SmartStore embeds a Bloom filter in every storage unit (over the filenames
stored locally) and in every index unit (the bitwise union of the children's
filters, Figure 4).  A point query walks down the semantic R-tree along the
branches whose filters report a hit, which bounds the search to a handful of
units instead of the whole system (§3.3.3).

The prototype parameters of §5.1 are reproduced — 1024-bit filters, k = 7
hash probes derived from an MD5 digest — as the floor of
:func:`sized_bits`, which sizes a deployment's filters from its largest
storage unit so that they keep pruning at populations far above the
paper's ~60 names per unit.
"""

from repro.bloom.bloom import BloomFilter, DEFAULT_BITS, DEFAULT_HASHES, sized_bits

__all__ = ["BloomFilter", "DEFAULT_BITS", "DEFAULT_HASHES", "sized_bits"]
