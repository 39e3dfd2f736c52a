"""Edge cases: legal-but-extreme inputs across the whole stack."""

from __future__ import annotations

import pytest

from repro import (
    Block,
    BlockRelaySession,
    GrapheneConfig,
    Mempool,
    TransactionGenerator,
    make_block_scenario,
    synchronize_mempools,
)
from repro.core.params import optimize_a, optimize_b
from repro.core.protocol1 import build_protocol1, receive_protocol1


@pytest.fixture
def gen():
    return TransactionGenerator(seed=4242)


class TestTinyBlocks:
    def test_single_transaction_block(self, gen):
        tx = gen.make()
        block = Block.assemble([tx])
        receiver = Mempool([tx])
        receiver.add_many(gen.make_batch(10))
        outcome = BlockRelaySession().relay(block, receiver)
        assert outcome.success
        assert outcome.txs[0].txid == tx.txid

    def test_two_transaction_block(self, gen):
        txs = gen.make_batch(2)
        block = Block.assemble(txs)
        receiver = Mempool(txs)
        outcome = BlockRelaySession().relay(block, receiver)
        assert outcome.success

    def test_single_tx_block_receiver_missing_it(self, gen):
        tx = gen.make()
        block = Block.assemble([tx])
        receiver = Mempool(gen.make_batch(20))
        outcome = BlockRelaySession().relay(block, receiver)
        # Must terminate cleanly; success via P2 push is expected.
        assert outcome.protocol_used in (1, 2)
        if outcome.success:
            assert outcome.txs[0].txid == tx.txid


class TestEmptyReceivers:
    def test_empty_mempool_receiver(self, gen):
        block = Block.assemble(gen.make_batch(50))
        outcome = BlockRelaySession().relay(block, Mempool())
        # z = 0; Protocol 2 must push the entire block.
        if outcome.success:
            assert len(outcome.txs) == 50

    def test_empty_sender_sync(self, gen):
        sender = Mempool()
        receiver = Mempool(gen.make_batch(30))
        result = synchronize_mempools(sender, receiver)
        if result.success:
            assert len(sender) == 30  # received H


class TestHugeMempoolRatios:
    def test_mempool_50x_block(self, gen):
        scenario = make_block_scenario(n=100, extra=5000, fraction=1.0,
                                       seed=1)
        outcome = BlockRelaySession().relay(scenario.block,
                                            scenario.receiver_mempool)
        assert outcome.success
        # Still beats the 8n short-ID list despite the huge mempool.
        cost = outcome.cost
        assert (cost.bloom_s + cost.iblt_i + cost.bloom_r + cost.iblt_j
                + cost.bloom_f + cost.riblt) < 8 * 100 * 4

    def test_block_larger_than_claimed_mempool(self, gen):
        # Receiver understates m (claims 10, holds the full block):
        # the protocol must still terminate and not crash.
        txs = gen.make_batch(200)
        block = Block.assemble(txs)
        receiver = Mempool(txs)
        payload = build_protocol1(block.txs, 10, GrapheneConfig())
        result = receive_protocol1(payload, receiver, GrapheneConfig(),
                                   validate_block=block)
        assert result.decode_complete or not result.success


class TestOptimizerEdges:
    def test_optimize_a_one_extra_txn(self):
        plan = optimize_a(100, 101, GrapheneConfig())
        assert plan.total_bytes > 0
        assert plan.a in (0, 1)

    def test_optimize_b_z_zero(self):
        plan = optimize_b(z=0, missing_bound=50, ystar=0,
                          config=GrapheneConfig())
        assert plan.recover >= 1

    def test_optimize_a_massive_gap(self):
        # m - n = 10^6: the geometric candidate grid must stay fast.
        plan = optimize_a(100, 1_000_100, GrapheneConfig())
        assert plan.total_bytes > 0
        assert plan.fpr < 0.01


class TestDuplicateSubmissions:
    def test_block_with_duplicate_txids_collapses(self, gen):
        tx = gen.make()
        block = Block.assemble([tx, tx])
        # Canonical ordering keeps both entries; Merkle root is defined.
        assert block.n == 2

    def test_mempool_rejects_duplicates(self, gen):
        tx = gen.make()
        pool = Mempool([tx, tx])
        assert len(pool) == 1


class TestRepeatedRelaySameSession:
    def test_session_is_stateless_across_blocks(self, gen):
        session = BlockRelaySession()
        receiver = Mempool(gen.make_batch(100))
        for _ in range(3):
            txs = gen.make_batch(80)
            receiver.add_many(txs)
            outcome = session.relay(Block.assemble(txs), receiver)
            assert outcome.success
            receiver.remove_block([tx.txid for tx in txs])
