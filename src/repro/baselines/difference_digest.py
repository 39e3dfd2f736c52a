"""Difference Digest (Eppstein et al. 2011): the IBLT-only alternative.

Section 5.3.2 compares Graphene Protocol 2 against this design: the
sender first announces ``n``; the receiver answers with a Flajolet-
Martin *strata estimator* -- ``ceil(log2(m - n))`` small IBLTs of 80
cells each, stratum ``i`` holding the elements whose hash has exactly
``i`` trailing zero bits -- from which the sender estimates the
symmetric difference ``d`` and replies with one IBLT of ``2 d`` cells
(doubling to absorb under-estimates).  "This approach is several times
more expensive than Graphene", which our bench reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.core.sizing import getdata_bytes, inv_bytes
from repro.errors import ParameterError
from repro.pds.iblt import DEFAULT_CELL_BYTES, IBLT
from repro.utils.hashing import DerivedHasher

#: Cells per stratum IBLT, per the paper's description of [23].
STRATUM_CELLS = 80

#: Hash functions per stratum / final IBLT (Eppstein et al. use 3-4).
STRATUM_K = 4


def _trailing_zeros(value: int, limit: int) -> int:
    if value == 0:
        return limit
    return min(limit, (value & -value).bit_length() - 1)


class StrataEstimator:
    """Flajolet-Martin strata estimator over 64-bit keys."""

    def __init__(self, num_strata: int, seed: int = 0,
                 cell_bytes: int = DEFAULT_CELL_BYTES):
        if num_strata < 1:
            raise ParameterError(
                f"num_strata must be >= 1, got {num_strata}")
        self.num_strata = num_strata
        self.seed = seed
        self._partition_hasher = DerivedHasher(1, seed=seed ^ 0x57A7)
        self.strata = [
            IBLT(STRATUM_CELLS, k=STRATUM_K, seed=seed + i,
                 cell_bytes=cell_bytes)
            for i in range(num_strata)
        ]

    def _stratum_of(self, key: int) -> int:
        word = self._partition_hasher.entry(key)[0][0]
        return _trailing_zeros(word, self.num_strata - 1)

    def insert_all(self, keys: Iterable[int]) -> None:
        # Bucket keys per stratum first so each IBLT takes one batch
        # update instead of per-key dispatch.
        buckets: list[list[int]] = [[] for _ in self.strata]
        for key in keys:
            buckets[self._stratum_of(key)].append(key)
        for stratum, bucket in zip(self.strata, buckets):
            if bucket:
                stratum.update(bucket)

    def serialized_size(self) -> int:
        return sum(s.serialized_size() for s in self.strata)

    def estimate_difference(self, other: "StrataEstimator") -> int:
        """Estimate |A xor B| by decoding strata from the deepest down.

        Standard estimator: walk strata from sparsest (deepest) to
        densest; as soon as stratum ``i`` fails to decode, return
        ``2^(i+1)`` times the count recovered in the strata above it.
        """
        if other.num_strata != self.num_strata:
            raise ParameterError("strata estimators must align")
        counted = 0
        for i in range(self.num_strata - 1, -1, -1):
            diff = self.strata[i].subtract(other.strata[i])
            result = diff.decode()
            if not result.complete:
                return max(1, counted * (2 ** (i + 1)))
            counted += len(result.local) + len(result.remote)
        return max(1, counted)


@dataclass
class DifferenceDigestOutcome:
    """Result of one Difference Digest relay."""

    success: bool
    total_bytes: int
    strata_bytes: int
    iblt_bytes: int
    estimate: int
    true_difference: int
    roundtrips: float = 2.5


class DifferenceDigestRelay:
    """Simulate the IBLT-only protocol of Eppstein et al.

    ``short_id_bytes`` matches Graphene's for a fair byte comparison.
    """

    def __init__(self, short_id_bytes: int = 8,
                 cell_bytes: int = DEFAULT_CELL_BYTES, seed: int = 0):
        self.short_id_bytes = short_id_bytes
        self.cell_bytes = cell_bytes
        self.seed = seed

    def relay(self, block: Block, receiver_mempool: Mempool,
              num_strata: Optional[int] = None) -> DifferenceDigestOutcome:
        n, m = block.n, len(receiver_mempool)
        block_keys = [tx.short_id(self.short_id_bytes) for tx in block.txs]
        pool_keys = [tx.short_id(self.short_id_bytes)
                     for tx in receiver_mempool]
        true_diff = len(set(block_keys) ^ set(pool_keys))

        if num_strata is None:
            num_strata = max(1, math.ceil(math.log2(max(2, abs(m - n) + 1))))
        receiver_strata = StrataEstimator(num_strata, seed=self.seed,
                                          cell_bytes=self.cell_bytes)
        receiver_strata.insert_all(pool_keys)
        sender_strata = StrataEstimator(num_strata, seed=self.seed,
                                        cell_bytes=self.cell_bytes)
        sender_strata.insert_all(block_keys)

        estimate = sender_strata.estimate_difference(receiver_strata)
        cells = max(STRATUM_K, 2 * estimate)
        final = IBLT(cells, k=STRATUM_K, seed=self.seed ^ 0xD1FF,
                     cell_bytes=self.cell_bytes)
        final.update(block_keys)
        mirror = IBLT(final.cells, k=STRATUM_K, seed=self.seed ^ 0xD1FF,
                      cell_bytes=self.cell_bytes)
        mirror.update(pool_keys)
        decode = final.subtract(mirror).decode()

        total = (inv_bytes() + getdata_bytes(m)
                 + receiver_strata.serialized_size()
                 + final.serialized_size())
        return DifferenceDigestOutcome(
            success=decode.complete, total_bytes=total,
            strata_bytes=receiver_strata.serialized_size(),
            iblt_bytes=final.serialized_size(),
            estimate=estimate, true_difference=true_diff)
