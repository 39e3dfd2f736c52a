"""Transaction ordering (paper section 6.2).

Bloom filters and IBLTs reconcile *unordered* sets, but a Merkle root
commits to an *ordered* list.  Without an agreed order the sender must
ship one, costing ``n log2 n`` bits -- asymptotically more than Graphene
itself.  Bitcoin Cash eliminated this with a Canonical Transaction
Ordering (CTOR): sort by txid, which ``Block.assemble`` does.  This is
the cost model for shipping an explicit permutation instead, so
benchmarks can report Graphene with and without ordering overhead
(Fig. 13 includes it; the BCH deployment does not need it).
"""

from __future__ import annotations

import math


def ordering_info_bytes(n: int) -> int:
    """Bytes to encode an arbitrary order of ``n`` transactions.

    ``log2(n!) ~ n log2 n`` bits; we use the exact ``log2(n!)`` rounded
    up to whole bytes, the information-theoretic floor for shipping a
    permutation.  Deployed clients pay slightly more (they send explicit
    per-transaction indexes); this floor makes the comparison to CTOR
    conservative.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n < 2:
        return 0
    bits = math.lgamma(n + 1) / math.log(2.0)
    return math.ceil(bits / 8.0)
