"""Compact Blocks (BIP-152), the deployed baseline of the paper.

The sender replies to a plain getdata with the block header plus every
transaction ID shortened to 6 bytes (SipHash-keyed in deployment; the
paper's simulations use 8-byte IDs "in expectation of being applied to
large blocks and mempools", which we mirror via ``short_id_bytes``).
A receiver missing transactions requests them by *index into the
short-ID list* -- 1- or 3-byte indexes depending on block size, exactly
the accounting of section 5.3 -- costing one extra roundtrip.

The steps are pure functions, driven on loopback by
:class:`CompactBlocksRelay` and over simulated links by
:class:`~repro.net.node.Node`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction
from repro.core.sizing import MSG_HEADER_BYTES, getdata_bytes, inv_bytes
from repro.errors import ParameterError
from repro.utils.serialization import compact_size_len

#: BIP-152 sends an 8-byte nonce for the SipHash key derivation.
CMPCTBLOCK_NONCE_BYTES = 8


def index_width(n: int) -> int:
    """Bytes per repair index: 1 for small blocks, 3 for large (paper 5.3)."""
    if n < 0:
        raise ParameterError(f"n must be non-negative, got {n}")
    return 1 if n <= 0xFF else 3


def getblocktxn_bytes(n: int, missing: int) -> int:
    """The repair request for ``missing`` indexes into a block of ``n``."""
    return (MSG_HEADER_BYTES + compact_size_len(missing)
            + index_width(n) * missing)


def compact_blocks_bytes(n: int, short_id_bytes: int = 8,
                         missing: int = 0,
                         include_header: bool = True) -> int:
    """Analytic wire size of a Compact Blocks relay (repair txs excluded).

    ``missing`` transactions cost a getblocktxn message of per-index
    bytes; the transactions themselves are excluded, matching the
    accounting used for Figs. 14 and 17.
    """
    size = compact_size_len(n) + short_id_bytes * n + CMPCTBLOCK_NONCE_BYTES
    if include_header:
        size += 80
    if missing > 0:
        size += getblocktxn_bytes(n, missing)
    return size


def send_cmpctblock(block: Block, sid=Transaction.short_id,
                    short_id_bytes: int = 8):
    """Sender: ``(short IDs, prefilled, bytes)``.  The coinbase, which
    the receiver cannot have, is prefilled in full; the rest by ``sid``."""
    prefilled = tuple(tx for tx in block.txs if tx.is_coinbase)
    sids = tuple(sid(tx) for tx in block.txs if not tx.is_coinbase)
    return sids, prefilled, (compact_blocks_bytes(len(sids), short_id_bytes)
                             + sum(tx.size for tx in prefilled))


def send_blocktxn(block: Block, indexes) -> tuple:
    """Sender: the transactions at ``indexes`` of the short-ID list."""
    listed = [tx for tx in block.txs if not tx.is_coinbase]
    return tuple(listed[i] for i in indexes if i < len(listed))


def match_short_ids(sids, pool, sid=Transaction.short_id):
    """Receiver: ``(matched txs, missing indexes, collisions)`` of
    ``sids`` against ``pool``.  A short ID two pool transactions share
    is missing, in either order (Bitcoin Core: "two mempool txns match
    the short id, just request it"), and counts as one collision."""
    pool_by_sid: dict = {}
    collided: set = set()
    for tx in pool:
        key = sid(tx)
        if pool_by_sid.setdefault(key, tx).txid != tx.txid:
            collided.add(key)
    slots = [None if key in collided else pool_by_sid.get(key)
             for key in sids]
    missing = [idx for idx, tx in enumerate(slots) if tx is None]
    return [tx for tx in slots if tx is not None], missing, len(collided)


@dataclass
class CompactBlocksOutcome:
    """Result of one Compact Blocks relay."""

    success: bool
    total_bytes: int
    shortid_bytes: int
    repair_request_bytes: int = 0
    repair_tx_bytes: int = 0
    roundtrips: float = 1.5
    missing_count: int = 0
    collisions: int = 0


@dataclass
class CompactBlocksRelay:
    """Simulate BIP-152 relay against a receiver mempool.

    ``use_siphash`` keys short IDs per-connection like the real
    protocol, which is what limits the collision attack of section 6.1
    to one peer.
    """

    short_id_bytes: int = 8
    use_siphash: bool = False
    siphash_key: bytes = field(default_factory=lambda: os.urandom(16))

    def _sid(self, tx) -> int:
        if self.use_siphash:
            return tx.keyed_short_id(self.siphash_key, self.short_id_bytes)
        return tx.short_id(self.short_id_bytes)

    def relay(self, block: Block,
              receiver_mempool: Mempool) -> CompactBlocksOutcome:
        sids, prefilled, shortid_bytes = send_cmpctblock(
            block, self._sid, self.short_id_bytes)
        matched, missing, collisions = match_short_ids(
            sids, receiver_mempool, self._sid)
        repair = send_blocktxn(block, missing)
        request = getblocktxn_bytes(block.n, len(missing)) if missing else 0
        # A short-ID collision that matched the *wrong* mempool txn makes
        # the Merkle check fail; BIP-152 then falls back to a full block.
        return CompactBlocksOutcome(
            success=block.validate_candidate([*matched, *prefilled, *repair]),
            total_bytes=inv_bytes() + getdata_bytes(0) + shortid_bytes
            + request,
            shortid_bytes=shortid_bytes, repair_request_bytes=request,
            repair_tx_bytes=sum(tx.size for tx in repair),
            roundtrips=2.5 if missing else 1.5, missing_count=len(missing),
            collisions=collisions)
