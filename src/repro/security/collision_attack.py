"""Manufactured short-ID collisions (paper 6.1).

The worst case: the block contains ``t1``; the receiver possesses ``t2``
whose ID collides with ``t1`` on the truncated 8 bytes, and neither peer
has seen the other transaction.  XThin and Compact Blocks match on short
IDs alone, so they *always* reconstruct the wrong transaction and fail
their Merkle check.  Graphene inserts **full 32-byte IDs** into both
Bloom filters, so the attack only succeeds if ``t2`` falsely passes S
*and* ``t1`` falsely passes R -- probability ``f_S * f_R``.

Brute-forcing a real 8-byte collision costs ~2^32 hash calls, so the
simulator *constructs* colliding transaction IDs directly (the
adversary's search is assumed done) and, for Graphene, measures the two
filter events against real Bloom filters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.baselines.compact_blocks import CompactBlocksRelay
from repro.baselines.xthin import XThinRelay
from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction, TransactionGenerator
from repro.core.params import GrapheneConfig, optimize_a
from repro.core.protocol2 import SPECIAL_CASE_FPR
from repro.pds.bloom import BloomFilter
from repro.utils.hashing import sha256


def craft_colliding_pair(seed: int = 0) -> tuple[Transaction, Transaction]:
    """Construct two distinct transactions sharing an 8-byte short ID."""
    rng = random.Random(seed)
    prefix = rng.getrandbits(64).to_bytes(8, "little")
    t1 = Transaction(txid=prefix + sha256(b"a" + prefix)[:24])
    t2 = Transaction(txid=prefix + sha256(b"b" + prefix)[:24])
    return t1, t2


@dataclass
class CollisionAttackResult:
    """Per-protocol outcome of one collision-attack trial."""

    xthin_failed: bool
    compact_blocks_failed: bool
    compact_blocks_siphash_failed: bool
    graphene_failed: bool
    t2_passed_s: bool
    t1_passed_r: bool
    fs: float
    fr: float

    @property
    def graphene_failure_probability(self) -> float:
        """The analytic failure rate the paper states: ``f_S * f_R``."""
        return self.fs * self.fr


def run_collision_attack(n: int = 200, extra: int = 200, seed: int = 0,
                         config: GrapheneConfig | None = None) -> CollisionAttackResult:
    """Stage the 6.1 worst case and observe each protocol.

    Builds a block containing ``t1`` and a receiver mempool containing
    ``t2`` (plus honest traffic), runs XThin and Compact Blocks for
    real, and evaluates Graphene's two filter events with real Bloom
    filters at the FPRs the protocols would choose.
    """
    config = config or GrapheneConfig()
    gen = TransactionGenerator(seed=seed)
    t1, t2 = craft_colliding_pair(seed=seed)

    honest = gen.make_batch(n - 1)
    block = Block.assemble(honest + [t1])
    receiver = Mempool(honest)          # receiver has the rest of the block
    receiver.add_many(gen.make_batch(extra))
    receiver.add(t2)                    # ...and the colliding transaction

    xthin = XThinRelay().relay(block, receiver)
    cb = CompactBlocksRelay(use_siphash=False).relay(block, receiver)
    cb_sip = CompactBlocksRelay(use_siphash=True).relay(block, receiver)

    # Graphene: S carries full IDs at f_S = a/(m-n); R carries full IDs
    # at f_R = b/(n - x*).  The attack needs both filters to err.
    m = len(receiver)
    plan_s = optimize_a(n, m, config)
    bloom_s = BloomFilter.from_fpr(n, plan_s.fpr, seed=seed ^ 0x51)
    bloom_s.update_packed(block.columns.ids)
    t2_passed_s = bool(bloom_s.contains_packed(t2.txid)[0])

    fr = min(1.0, max(SPECIAL_CASE_FPR, plan_s.fpr))
    bloom_r = BloomFilter.from_fpr(max(1, n), fr, seed=seed ^ 0x52)
    pool = receiver.columns()
    passed = pool.words[bloom_s.contains_packed(pool.ids)]
    bloom_r.update_packed(passed.tobytes())
    t1_passed_r = bool(bloom_r.contains_packed(t1.txid)[0])

    return CollisionAttackResult(
        xthin_failed=not xthin.success,
        compact_blocks_failed=not cb.success,
        compact_blocks_siphash_failed=not cb_sip.success,
        graphene_failed=t2_passed_s and t1_passed_r,
        t2_passed_s=t2_passed_s,
        t1_passed_r=t1_passed_r,
        fs=plan_s.fpr, fr=fr)
