"""Analysis: information-theoretic bounds and experiment drivers.

:mod:`~repro.analysis.theory` implements section 5.1 -- the
exact-description lower bound and the Theorem 4 comparison of Graphene
Protocol 1 against an optimal Bloom filter.  :mod:`~repro.analysis.experiments`
holds the Monte-Carlo drivers behind every figure reproduction, shared
by the benchmark harness, the examples and the integration tests.
"""

from repro.analysis.theory import (
    exact_membership_bound_bytes,
    graphene_protocol1_bytes,
    graphene_vs_bloom_gain_bits,
)

__all__ = [
    "exact_membership_bound_bytes",
    "graphene_protocol1_bytes",
    "graphene_vs_bloom_gain_bits",
]
