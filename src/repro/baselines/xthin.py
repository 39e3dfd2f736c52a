"""Xtreme Thinblocks (XThin), Bitcoin Unlimited's deployed protocol.

The receiver's getdata carries a Bloom filter of her whole mempool; the
sender answers with the block's transaction IDs shortened to 8 bytes
plus, proactively, every block transaction that misses the filter.
One round trip, but the Bloom filter grows with the receiver's mempool
("XThin's bandwidth increases with the size of the receiver's mempool,
which is likely a multiple of the block size").

``xthin_star_bytes`` is the paper's XThin* variant (Fig. 12): the
receiver-side Bloom filter cost removed, making the comparison to
Graphene Protocol 1 deliberately generous to XThin.

The steps are pure functions (the receiver's is Compact Blocks' short-ID
matcher), driven by :class:`XThinRelay` and :class:`~repro.net.node.Node`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.compact_blocks import match_short_ids
from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.core.sizing import getdata_bytes, inv_bytes
from repro.errors import ParameterError
from repro.pds.bloom import BloomFilter, bloom_size_bytes
from repro.utils.serialization import compact_size_len

#: Default FPR of the receiver's mempool filter.  BU tunes for about one
#: spurious push per block; 1/1000 is representative.
XTHIN_MEMPOOL_FPR = 0.001

#: XThin shortens transaction IDs to 8 bytes.
XTHIN_SHORT_ID_BYTES = 8


def xthin_star_bytes(n: int) -> int:
    """XThin* (Fig. 12): the sender-side cost only -- 8 bytes per txn."""
    if n < 0:
        raise ParameterError(f"n must be non-negative, got {n}")
    return 80 + compact_size_len(n) + XTHIN_SHORT_ID_BYTES * n


def xthin_bytes(n: int, m: int, fpr: float = XTHIN_MEMPOOL_FPR) -> int:
    """Analytic XThin cost: receiver Bloom of ``m`` txns + 8-byte ID list."""
    return bloom_size_bytes(m, fpr) + 9 + xthin_star_bytes(n)


def mempool_filter(mempool: Mempool,
                   fpr: float = XTHIN_MEMPOOL_FPR) -> BloomFilter:
    """Receiver: the Bloom filter of her whole mempool the getdata carries."""
    bloom = BloomFilter.from_fpr(max(1, len(mempool)), fpr, seed=0x7417)
    bloom.update_packed(mempool.columns().ids)
    return bloom


def send_xthinblock(block: Block, bloom: BloomFilter):
    """Sender: ``(short IDs, pushed)`` -- every transaction's 8-byte ID,
    and in full the transactions that miss the receiver's ``bloom``."""
    return (tuple(tx.short_id(XTHIN_SHORT_ID_BYTES) for tx in block.txs),
            tuple(block.columns.outside(bloom).txs))


@dataclass
class XThinOutcome:
    """Result of one XThin relay."""

    success: bool
    total_bytes: int
    bloom_bytes: int
    shortid_bytes: int
    pushed_tx_bytes: int = 0
    pushed_count: int = 0
    roundtrips: float = 1.5
    collisions: int = 0


@dataclass
class XThinRelay:
    """Simulate an XThin exchange against real data structures."""

    mempool_fpr: float = XTHIN_MEMPOOL_FPR

    def relay(self, block: Block, receiver_mempool: Mempool) -> XThinOutcome:
        bloom = mempool_filter(receiver_mempool, self.mempool_fpr)
        sids, pushed = send_xthinblock(block, bloom)
        # Any missing slot fails the thinblock -- a short ID two
        # transactions share included -- and the receiver falls back to
        # the full block (paper 6.1: the attack "always" defeats XThin).
        matched, missing, collisions = match_short_ids(
            sids, [*receiver_mempool, *pushed])
        bloom_cost = bloom.serialized_size()
        shortid_cost = xthin_star_bytes(block.n)
        return XThinOutcome(
            success=not missing and block.validate_candidate(matched),
            total_bytes=inv_bytes() + getdata_bytes(0) + bloom_cost
            + shortid_cost,
            bloom_bytes=bloom_cost, shortid_bytes=shortid_cost,
            pushed_tx_bytes=sum(tx.size for tx in pushed),
            pushed_count=len(pushed), collisions=collisions)
