"""Tests for message-driven Compact Blocks and XThin over the simulator."""

from __future__ import annotations

import pytest

from repro.chain.block import Block
from repro.chain.transaction import TransactionGenerator
from repro.net.node import Node, RelayProtocol
from repro.net.simulator import Link, Simulator


def _pair(protocol):
    sim = Simulator()
    a = Node("a", sim, protocol=protocol)
    b = Node("b", sim, protocol=protocol)
    a.connect(b, Link(latency=0.01, bandwidth=10_000_000))
    return sim, a, b


class TestCompactBlocksWire:
    def test_synced_receiver_one_message(self, txgen):
        sim, a, b = _pair(RelayProtocol.COMPACT_BLOCKS)
        txs = txgen.make_batch(120)
        a.mempool.add_many(txs)
        b.mempool.add_many(txs)
        block = Block.assemble(txs)
        a.mine_block(block)
        sim.run()
        assert block.header.merkle_root in b.blocks
        # inv + cmpctblock only: no repair roundtrip happened.
        assert a.peers[b].messages_sent == 2

    def test_missing_txs_cost_extra_roundtrip(self, txgen):
        sim, a, b = _pair(RelayProtocol.COMPACT_BLOCKS)
        txs = txgen.make_batch(120)
        a.mempool.add_many(txs)
        b.mempool.add_many(txs[:100])  # missing 20
        block = Block.assemble(txs)
        a.mine_block(block)
        sim.run()
        assert block.header.merkle_root in b.blocks
        arrived = b.blocks[block.header.merkle_root]
        assert arrived.txids == block.txids
        # inv + cmpctblock + blocktxn from a; getdata + getblocktxn from b.
        assert a.peers[b].messages_sent == 3
        assert b.peers[a].messages_sent == 2

    def test_coinbase_prefilled(self, txgen):
        sim, a, b = _pair(RelayProtocol.COMPACT_BLOCKS)
        txs = txgen.make_batch(50)
        coinbase = txgen.make_coinbase()
        a.mempool.add_many(txs)
        b.mempool.add_many(txs)
        block = Block.assemble(txs + [coinbase])
        a.mine_block(block)
        sim.run()
        # The receiver never held the coinbase yet needed no repair.
        assert block.header.merkle_root in b.blocks
        assert a.peers[b].messages_sent == 2

    def test_compact_blocks_cheaper_than_full(self, txgen):
        totals = {}
        for protocol in (RelayProtocol.COMPACT_BLOCKS,
                         RelayProtocol.FULL_BLOCK):
            sim, a, b = _pair(protocol)
            txs = txgen.make_batch(200)
            a.mempool.add_many(txs)
            b.mempool.add_many(txs)
            a.mine_block(Block.assemble(txs))
            sim.run()
            totals[protocol] = a.total_bytes_sent()
        assert (totals[RelayProtocol.COMPACT_BLOCKS]
                < totals[RelayProtocol.FULL_BLOCK] / 5)


class TestXThinWire:
    def test_synced_receiver(self, txgen):
        sim, a, b = _pair(RelayProtocol.XTHIN)
        txs = txgen.make_batch(120)
        a.mempool.add_many(txs)
        b.mempool.add_many(txs)
        block = Block.assemble(txs)
        a.mine_block(block)
        sim.run()
        assert block.header.merkle_root in b.blocks

    def test_missing_txs_pushed_in_one_roundtrip(self, txgen):
        sim, a, b = _pair(RelayProtocol.XTHIN)
        txs = txgen.make_batch(120)
        a.mempool.add_many(txs)
        b.mempool.add_many(txs[:90])
        block = Block.assemble(txs)
        a.mine_block(block)
        sim.run()
        assert block.header.merkle_root in b.blocks
        arrived = b.blocks[block.header.merkle_root]
        assert arrived.txids == block.txids
        # inv + xthinblock: the push is proactive, no repair roundtrip.
        assert a.peers[b].messages_sent == 2
        assert b.peers[a].messages_sent == 1

    def test_xthin_bloom_rides_getdata(self, txgen):
        sim, a, b = _pair(RelayProtocol.XTHIN)
        txs = txgen.make_batch(50)
        a.mempool.add_many(txs)
        b.mempool.add_many(txs)
        b.mempool.add_many(txgen.make_batch(2000))  # fat mempool
        block = Block.assemble(txs)
        a.mine_block(block)
        sim.run()
        # Receiver-side bytes include the mempool Bloom filter.
        assert b.peers[a].bytes_sent > 2000  # ~2.3 KB filter

    def test_multihop_xthin(self, txgen):
        sim = Simulator()
        nodes = [Node(f"n{i}", sim, protocol=RelayProtocol.XTHIN)
                 for i in range(3)]
        nodes[0].connect(nodes[1])
        nodes[1].connect(nodes[2])
        txs = txgen.make_batch(80)
        for node in nodes:
            node.mempool.add_many(txs)
        block = Block.assemble(txs)
        nodes[0].mine_block(block)
        sim.run()
        assert block.header.merkle_root in nodes[2].blocks
