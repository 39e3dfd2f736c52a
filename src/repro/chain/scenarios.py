"""Workload generators for every evaluation scenario in the paper.

Two scenario families cover all of section 5:

* :func:`make_block_scenario` -- a sender's block of ``n`` transactions
  and a receiver mempool that holds a *fraction* of the block plus
  *extra* unrelated transactions (the "mempool multiple" axis of
  Figs. 14-17).
* :func:`make_sync_scenario` -- two mempools of equal size ``n = m``
  sharing a given fraction of transactions (the mempool-synchronization
  experiments of Fig. 18).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.transaction import TransactionGenerator
from repro.errors import ParameterError


@dataclass(frozen=True)
class BlockScenario:
    """A block-relay experiment instance.

    Attributes
    ----------
    block:
        The sender's block (``n`` transactions).
    sender_mempool:
        The sender's mempool; always a superset of the block.
    receiver_mempool:
        The receiver's mempool: ``fraction`` of the block plus
        ``extra`` unrelated transactions.
    missing:
        Block transactions absent from the receiver's mempool.
    """

    block: Block
    sender_mempool: Mempool
    receiver_mempool: Mempool
    missing: tuple

    @property
    def n(self) -> int:
        return self.block.n

    @property
    def m(self) -> int:
        return len(self.receiver_mempool)


def make_block_scenario(n: int, extra: int, fraction: float = 1.0,
                        seed: int = 0,
                        mean_tx_size: int = 250) -> BlockScenario:
    """Build a block of ``n`` txns and a receiver holding part of it.

    Parameters
    ----------
    n:
        Transactions in the block.
    extra:
        Unrelated transactions in the receiver's mempool (the paper's
        "mempool multiple" times ``n``).
    fraction:
        Fraction of the block present in the receiver's mempool; 1.0 is
        the Protocol 1 regime (Fig. 1-Left), below 1.0 exercises
        Protocol 2 (Fig. 1-Right).
    """
    if n < 0 or extra < 0:
        raise ParameterError(f"n and extra must be non-negative: {n}, {extra}")
    if not 0.0 <= fraction <= 1.0:
        raise ParameterError(f"fraction must be in [0, 1], got {fraction}")
    gen = TransactionGenerator(seed=seed, mean_size=mean_tx_size)
    block_txs = gen.make_batch(n)
    extra_txs = gen.make_batch(extra)
    rng = random.Random(seed ^ 0x5CEA4A10)
    held_count = int(round(fraction * n))
    held = rng.sample(block_txs, held_count) if held_count < n else list(block_txs)
    held_ids = {tx.txid for tx in held}
    missing = tuple(tx for tx in block_txs if tx.txid not in held_ids)
    block = Block.assemble(block_txs)
    sender_mempool = Mempool(block_txs)
    receiver_mempool = Mempool(held)
    receiver_mempool.add_many(extra_txs)
    return BlockScenario(block=block, sender_mempool=sender_mempool,
                         receiver_mempool=receiver_mempool, missing=missing)


@dataclass(frozen=True)
class MempoolSyncScenario:
    """A mempool-synchronization experiment instance (m = n regime)."""

    sender_mempool: Mempool
    receiver_mempool: Mempool
    common: tuple
    sender_only: tuple
    receiver_only: tuple


def make_sync_scenario(n: int, fraction_common: float,
                       seed: int = 0,
                       mean_tx_size: int = 250) -> MempoolSyncScenario:
    """Two mempools of size ``n`` sharing ``fraction_common`` of content.

    Mirrors Fig. 18: the sender's mempool has ``n`` transactions, a
    fraction is common, and the receiver's mempool is "topped off with
    unrelated transactions so that m = n".
    """
    if n < 0:
        raise ParameterError(f"n must be non-negative, got {n}")
    if not 0.0 <= fraction_common <= 1.0:
        raise ParameterError(
            f"fraction_common must be in [0, 1], got {fraction_common}")
    gen = TransactionGenerator(seed=seed, mean_size=mean_tx_size)
    ncommon = int(round(fraction_common * n))
    common = gen.make_batch(ncommon)
    sender_only = gen.make_batch(n - ncommon)
    receiver_only = gen.make_batch(n - ncommon)
    sender = Mempool(common)
    sender.add_many(sender_only)
    receiver = Mempool(common)
    receiver.add_many(receiver_only)
    return MempoolSyncScenario(
        sender_mempool=sender, receiver_mempool=receiver,
        common=tuple(common), sender_only=tuple(sender_only),
        receiver_only=tuple(receiver_only))


def mempool_multiple_to_extra(n: int, multiple: float) -> int:
    """Convert the paper's x-axis "mempool multiple" into an extra count."""
    if multiple < 0:
        raise ParameterError(f"multiple must be non-negative, got {multiple}")
    return int(math.ceil(n * multiple))
