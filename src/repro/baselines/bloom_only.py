"""The Bloom-filter-alone strawman of paper section 3 and Theorem 4.

A sender could encode the block as a single Bloom filter with FPR
``f = 1 / (144 (m - n))``, so a false transaction slips into a relayed
block only about once every 144 blocks (once a day in Bitcoin).  It
costs ``-n log2(f) / (8 ln 2)`` bytes -- already smaller than Compact
Blocks for any realistic mempool -- but Graphene Protocol 1 beats it by
``Omega(n log n)`` bits (Theorem 4), which
:func:`repro.analysis.theory.graphene_vs_bloom_gain` quantifies.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.pds.bloom import bloom_size_bytes

#: The paper's choice: one expected false transaction per 144 blocks.
DEFAULT_BLOCKS_PER_FAILURE = 144


def bloom_only_fpr(m: int, n: int,
                   blocks_per_failure: int = DEFAULT_BLOCKS_PER_FAILURE) -> float:
    """The FPR budget ``f = 1 / (144 (m - n))``."""
    if m <= n:
        return 1.0
    return min(1.0, 1.0 / (blocks_per_failure * (m - n)))


def bloom_only_bytes(n: int, m: int,
                     blocks_per_failure: int = DEFAULT_BLOCKS_PER_FAILURE) -> int:
    """Analytic size of the Bloom-only encoding."""
    if n < 0 or m < 0:
        raise ParameterError(f"n and m must be non-negative: {n}, {m}")
    return bloom_size_bytes(n, bloom_only_fpr(m, n, blocks_per_failure)) + 9
