"""Probabilistic data structures: Bloom filters, IBLTs, and their tuning.

Everything in this package is implemented from scratch:

* :class:`~repro.pds.bloom.BloomFilter` -- classic Bloom filter with the
  size/FPR relationship the paper uses (Eq. 2), plus the hash-splitting
  optimization of section 6.3.
* :class:`~repro.pds.iblt.IBLT` -- Invertible Bloom Lookup Table with
  subtraction and peeling decode, including the malformed-IBLT guard of
  section 6.1.
* :mod:`~repro.pds.hypergraph` -- the k-partite, k-uniform hypergraph
  model of IBLT decoding from section 4.1.
* :mod:`~repro.pds.param_search` -- Algorithm 1 (IBLT-Param-Search).
* :mod:`~repro.pds.param_table` -- precomputed optimal (c, k) tables and
  the conservative lookup used by the Graphene protocols.
* :mod:`~repro.pds.pingpong` -- ping-pong decoding of two sibling IBLTs
  (section 4.2).
"""

from repro.pds.bloom import BloomFilter, bloom_size_bytes, optimal_hash_count
from repro.pds.iblt import IBLT, DecodeResult
from repro.pds.param_table import IBLTParamTable, default_param_table
from repro.pds.pingpong import pingpong_decode

__all__ = [
    "BloomFilter",
    "bloom_size_bytes",
    "optimal_hash_count",
    "IBLT",
    "DecodeResult",
    "IBLTParamTable",
    "default_param_table",
    "pingpong_decode",
]
