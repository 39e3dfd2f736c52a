"""Mempool synchronization between two peers (paper 3.2.1).

Two nodes see different transaction streams (e.g. either side of a slow
intercontinental route).  Every round, fresh transactions arrive at
each, partially overlapping; the peers then reconcile with Graphene so
both hold the union.  The demo prints per-round reconciliation costs
against the naive alternative of shipping all transaction IDs.

Run:  python examples/mempool_sync_demo.py
"""

from __future__ import annotations

import random

from repro import Mempool, TransactionGenerator, synchronize_mempools

ROUNDS = 6
NEW_PER_ROUND = 400
SHARED_FRACTION = 0.7  # of each round's traffic reaches both peers


def main() -> None:
    gen = TransactionGenerator(seed=2)
    rng = random.Random(3)
    alice, bob = Mempool(), Mempool()

    print(f"{ROUNDS} rounds, {NEW_PER_ROUND} new txns/round, "
          f"{SHARED_FRACTION:.0%} seen by both\n")
    total_graphene = total_naive = 0
    for round_no in range(1, ROUNDS + 1):
        fresh = gen.make_batch(NEW_PER_ROUND)
        for tx in fresh:
            roll = rng.random()
            if roll < SHARED_FRACTION:
                alice.add(tx)
                bob.add(tx)
            elif roll < SHARED_FRACTION + (1 - SHARED_FRACTION) / 2:
                alice.add(tx)
            else:
                bob.add(tx)

        # The smaller mempool should act as sender (paper 3.2.1).
        sender, receiver = ((alice, bob) if len(alice) <= len(bob)
                            else (bob, alice))
        before_diff = len({t.txid for t in sender}
                          ^ {t.txid for t in receiver})
        result = synchronize_mempools(sender, receiver)
        assert result.success and result.synchronized

        naive = 32 * len(sender)  # ship every full txid
        total_graphene += result.cost.total()
        total_naive += naive
        print(f"  round {round_no}: diff={before_diff:4d} txns   "
              f"graphene={result.cost.total():7,} B "
              f"(protocol {result.protocol_used}, "
              f"{result.roundtrips} RTT)   naive-ids={naive:9,} B")

    print(f"\ntotals: graphene={total_graphene:,} B, "
          f"naive={total_naive:,} B "
          f"({total_graphene / total_naive:.1%} of naive)")

    # One late, high-fee transaction reaches alice alone.
    alice.add(gen.make(size=600, fee_rate=25.0))
    result = synchronize_mempools(bob, alice)
    assert result.success and result.synchronized
    print(f"one straggler: graphene={result.cost.total():,} B "
          f"(protocol {result.protocol_used})")
    assert {t.txid for t in alice} == {t.txid for t in bob}
    print(f"final synchronized mempool: {len(alice):,} transactions")


if __name__ == "__main__":
    main()
