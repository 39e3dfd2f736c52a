"""Analytic size comparisons (paper section 5.1 and Theorem 4).

* The information-theoretic bound for describing an unordered
  ``n``-subset of ``m`` elements: ``ceil(log2 C(m, n))`` bits.
* Graphene Protocol 1's optimized size and its gain over a
  Bloom filter at the 1/(144 (m-n)) budget, which Theorem 4 proves is
  ``Omega(n log2 n)`` bits when the IBLT uses k >= 3 hash functions.
"""

from __future__ import annotations

import math

from repro.core.bounds import BETA_DEFAULT
from repro.core.params import GrapheneConfig, optimize_a
from repro.errors import ParameterError


def exact_membership_bound_bytes(n: int, m: int) -> float:
    """``ceil(log2 C(m, n))`` bits, in bytes: the exact-description floor."""
    if not 0 <= n <= m:
        raise ParameterError(f"need 0 <= n <= m, got n={n}, m={m}")
    if n == 0 or n == m:
        return 0.0
    bits = (math.lgamma(m + 1) - math.lgamma(n + 1)
            - math.lgamma(m - n + 1)) / math.log(2.0)
    return math.ceil(bits) / 8.0


def graphene_protocol1_bytes(n: int, m: int,
                             config: GrapheneConfig | None = None) -> int:
    """Protocol 1's optimized S + I size in bytes (Eq. 2 with real ceilings)."""
    plan = optimize_a(n, m, config or GrapheneConfig())
    return plan.total_bytes


def graphene_vs_bloom_gain_bits(n: int, m: int,
                                beta: float = BETA_DEFAULT,
                                cell_bytes: int = 12,
                                blocks_per_failure: int = 144) -> float:
    """Theorem 4's gap, evaluated exactly: Bloom-alone bits minus Graphene bits.

    Positive values mean Graphene is smaller.  The proof form of the
    difference is ``n (log2 n + log2(1 / (p tau)) - 1) - a r tau``
    with ``a = n / (r tau)``; here we evaluate the two protocols'
    actual cost models so finite-``n`` effects are visible too.
    """
    if m <= n:
        raise ParameterError(f"need m > n, got n={n}, m={m}")
    bloom_fpr = 1.0 / (blocks_per_failure * (m - n))
    bloom_bits = -n * math.log2(bloom_fpr)

    config = GrapheneConfig(beta=beta, cell_bytes=cell_bytes)
    plan = optimize_a(n, m, config)
    graphene_bits = 8.0 * plan.total_bytes
    return bloom_bits - graphene_bits
