"""Cross-module integration tests: the full system working together."""

from __future__ import annotations

import pytest

from repro import (
    Block,
    BlockRelaySession,
    GrapheneConfig,
    Mempool,
    TransactionGenerator,
    make_block_scenario,
    make_sync_scenario,
    synchronize_mempools,
)
from repro.baselines.compact_blocks import CompactBlocksRelay
from repro.baselines.xthin import XThinRelay
from repro.net import Node, RelayProtocol, Simulator, connect_random_regular


class TestRelayAgainstBaselinesSameScenario:
    """All protocols run on identical scenarios and all must succeed."""

    @pytest.mark.parametrize("fraction", [1.0, 0.9])
    def test_all_protocols_reconstruct_block(self, fraction):
        sc = make_block_scenario(n=300, extra=300, fraction=fraction,
                                 seed=1000)
        graphene = BlockRelaySession().relay(sc.block, sc.receiver_mempool)
        cb = CompactBlocksRelay().relay(sc.block, sc.receiver_mempool)
        xthin = XThinRelay().relay(sc.block, sc.receiver_mempool)
        assert graphene.success and cb.success and xthin.success

    def test_size_ranking_matches_paper(self):
        # Graphene < Compact Blocks < XThin (with mempool filter), for a
        # 2000-txn block with mempool multiple 1.
        sc = make_block_scenario(n=2000, extra=2000, fraction=1.0, seed=1001)
        graphene = BlockRelaySession().relay(sc.block, sc.receiver_mempool)
        cb = CompactBlocksRelay().relay(sc.block, sc.receiver_mempool)
        xthin = XThinRelay().relay(sc.block, sc.receiver_mempool)
        assert graphene.total_bytes < cb.total_bytes < xthin.total_bytes

    def test_headline_ratio(self):
        # Paper: "for larger blocks, our protocol uses 12% of the
        # bandwidth of existing deployed systems"; our shape check is
        # one order of magnitude at n = 10000.
        sc = make_block_scenario(n=10_000, extra=10_000, fraction=1.0,
                                 seed=1002)
        graphene = BlockRelaySession().relay(sc.block, sc.receiver_mempool)
        cb = CompactBlocksRelay().relay(sc.block, sc.receiver_mempool)
        assert graphene.success
        ratio = graphene.total_bytes / cb.total_bytes
        assert ratio < 0.25


class TestRepeatedRelays:
    def test_hundred_blocks_all_succeed(self):
        session = BlockRelaySession()
        failures = 0
        for t in range(100):
            sc = make_block_scenario(n=120, extra=120, fraction=1.0,
                                     seed=2000 + t)
            if not session.relay(sc.block, sc.receiver_mempool).success:
                failures += 1
        # Protocol 1 failure target is 1/240; P2 catches the rest, so
        # end-to-end failures should be essentially absent.
        assert failures == 0

    def test_protocol2_fallback_rate_sane(self):
        session = BlockRelaySession()
        p2_used = 0
        for t in range(50):
            sc = make_block_scenario(n=120, extra=120, fraction=1.0,
                                     seed=3000 + t)
            outcome = session.relay(sc.block, sc.receiver_mempool)
            if outcome.protocol_used == 2:
                p2_used += 1
        assert p2_used <= 3  # P1 should almost always suffice when synced


class TestChainedWorkflow:
    def test_mine_relay_evict_sync(self):
        """A miniature full-node life cycle across two peers."""
        gen = TransactionGenerator(seed=42)
        shared = gen.make_batch(300)
        sender_pool = Mempool(shared)
        receiver_pool = Mempool(shared)
        receiver_pool.add_many(gen.make_batch(100))  # receiver extras

        # 1. Miner assembles a block from its mempool and relays it.
        block = Block.assemble(shared[:200])
        outcome = BlockRelaySession().relay(block, receiver_pool)
        assert outcome.success

        # 2. Both sides evict the confirmed transactions.
        sender_pool.remove_block(block.txids)
        receiver_pool.remove_block(block.txids)
        assert len(sender_pool) == 100
        assert len(receiver_pool) == 200

        # 3. New traffic arrives unevenly; mempool sync reconciles.
        sender_pool.add_many(gen.make_batch(100))
        result = synchronize_mempools(sender_pool, receiver_pool)
        assert result.success
        assert ({t.txid for t in sender_pool}
                == {t.txid for t in receiver_pool})


class TestNetworkEndToEnd:
    def test_ten_node_network_propagates_block(self):
        import random
        sim = Simulator()
        nodes = [Node(f"n{i}", sim, protocol=RelayProtocol.GRAPHENE)
                 for i in range(10)]
        connect_random_regular(nodes, degree=4, rng=random.Random(3))
        gen = TransactionGenerator(seed=7)
        txs = gen.make_batch(150)
        for node in nodes:
            node.mempool.add_many(txs)
        block = Block.assemble(txs)
        nodes[0].mine_block(block)
        sim.run()
        root = block.header.merkle_root
        assert all(root in node.blocks for node in nodes)
        # Everyone evicted the confirmed transactions.
        assert all(len(node.mempool) == 0 for node in nodes)


class TestConfigVariants:
    @pytest.mark.parametrize("cell_bytes", [8, 12, 16])
    def test_cell_width_variants_work(self, cell_bytes):
        config = GrapheneConfig(cell_bytes=cell_bytes)
        sc = make_block_scenario(n=200, extra=200, fraction=1.0, seed=4000)
        outcome = BlockRelaySession(config).relay(sc.block,
                                                  sc.receiver_mempool)
        assert outcome.success

    def test_sync_scenarios_across_sizes(self):
        for n, frac in ((100, 0.2), (500, 0.6), (1000, 0.9)):
            sc = make_sync_scenario(n=n, fraction_common=frac, seed=n)
            result = synchronize_mempools(sc.sender_mempool,
                                          sc.receiver_mempool)
            assert result.success, (n, frac)
            assert result.synchronized, (n, frac)
