"""Tests for engine-driven Graphene over the network simulator."""

from __future__ import annotations

import pytest

from repro.chain.block import Block
from repro.chain.transaction import TransactionGenerator
from repro.net.node import Node, RelayProtocol
from repro.net.simulator import Link, Simulator


def _pair(latency=0.01, bandwidth=10_000_000):
    sim = Simulator()
    a = Node("a", sim, protocol=RelayProtocol.GRAPHENE)
    b = Node("b", sim, protocol=RelayProtocol.GRAPHENE)
    a.connect(b, Link(latency=latency, bandwidth=bandwidth))
    return sim, a, b


class TestWireProtocol1:
    def test_synced_receiver_gets_block(self, txgen):
        sim, a, b = _pair()
        txs = txgen.make_batch(100)
        a.mempool.add_many(txs)
        b.mempool.add_many(txs)
        b.mempool.add_many(txgen.make_batch(100))
        block = Block.assemble(txs)
        a.mine_block(block)
        sim.run()
        assert block.header.merkle_root in b.blocks
        assert b.relay_failures == 0

    def test_single_graphene_message_suffices(self, txgen):
        sim, a, b = _pair()
        txs = txgen.make_batch(100)
        a.mempool.add_many(txs)
        b.mempool.add_many(txs)
        block = Block.assemble(txs)
        a.mine_block(block)
        sim.run()
        # inv + graphene_block from a; getdata from b: 1.5 roundtrips.
        assert a.peers[b].messages_sent == 2
        assert b.peers[a].messages_sent == 1


class TestWireProtocol2:
    def test_unsynced_receiver_recovers_via_p2(self, txgen):
        sim, a, b = _pair()
        txs = txgen.make_batch(200)
        a.mempool.add_many(txs)
        b.mempool.add_many(txs[:180])           # missing 10% of the block
        b.mempool.add_many(txgen.make_batch(200))
        block = Block.assemble(txs)
        a.mine_block(block)
        sim.run()
        assert block.header.merkle_root in b.blocks
        # The exchange took extra messages beyond inv/getdata/payload.
        assert a.peers[b].messages_sent >= 3

    def test_block_txs_land_in_blocks_not_duplicated(self, txgen):
        sim, a, b = _pair()
        txs = txgen.make_batch(150)
        a.mempool.add_many(txs)
        b.mempool.add_many(txs[:100])
        block = Block.assemble(txs)
        a.mine_block(block)
        sim.run()
        arrived = b.blocks[block.header.merkle_root]
        assert arrived.txids == block.txids


class TestMultiHop:
    def test_relay_chains_through_intermediate(self, txgen):
        sim = Simulator()
        nodes = [Node(f"n{i}", sim, protocol=RelayProtocol.GRAPHENE)
                 for i in range(3)]
        nodes[0].connect(nodes[1])
        nodes[1].connect(nodes[2])
        txs = txgen.make_batch(120)
        for node in nodes:
            node.mempool.add_many(txs)
        block = Block.assemble(txs)
        nodes[0].mine_block(block)
        sim.run()
        root = block.header.merkle_root
        assert root in nodes[2].blocks
        # The middle node re-served the block with its own engine.
        assert root in nodes[1].serving_engines or root in nodes[1].blocks

    def test_arrival_times_increase_along_path(self, txgen):
        sim = Simulator()
        nodes = [Node(f"n{i}", sim, protocol=RelayProtocol.GRAPHENE)
                 for i in range(4)]
        for x, y in zip(nodes, nodes[1:]):
            x.connect(y, Link(latency=0.05))
        txs = txgen.make_batch(80)
        for node in nodes:
            node.mempool.add_many(txs)
        block = Block.assemble(txs)
        nodes[0].mine_block(block)
        sim.run()
        root = block.header.merkle_root
        times = [node.block_arrival[root] for node in nodes]
        assert times == sorted(times)
        assert times[1] > times[0]


class TestFallback:
    def test_empty_mempool_receiver_still_gets_block(self, txgen):
        # Receiver with nothing: Protocol 2's special case (or the
        # full-block fallback) must still deliver the exact block.
        sim, a, b = _pair()
        txs = txgen.make_batch(60)
        a.mempool.add_many(txs)
        block = Block.assemble(txs)
        a.mine_block(block)
        sim.run()
        assert block.header.merkle_root in b.blocks
        arrived = b.blocks[block.header.merkle_root]
        assert arrived.txids == block.txids
