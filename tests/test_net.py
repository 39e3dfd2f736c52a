"""Tests for the event-driven network substrate."""

from __future__ import annotations

import pytest

from repro.chain.block import Block
from repro.errors import ParameterError
from repro.net.messages import NetMessage
from repro.net.node import Node, RelayProtocol
from repro.net.simulator import Link, Simulator
from repro.net.topology import (
    connect_clique,
    connect_line,
    connect_random_regular,
)


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        assert sim.run() == 5.0

    def test_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.pending == 1

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]

    def test_rejects_negative_delay(self):
        with pytest.raises(ParameterError):
            Simulator().schedule(-1.0, lambda: None)

    def test_rejects_past_absolute(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(ParameterError):
            sim.run()


class TestLink:
    def test_delivery_time_formula(self):
        link = Link(latency=0.1, bandwidth=1000)
        assert link.transmit_schedule(0.0, 500) == pytest.approx(0.6)

    def test_fifo_queueing(self):
        link = Link(latency=0.0, bandwidth=100)
        first = link.transmit_schedule(0.0, 100)   # finishes sending at 1.0
        second = link.transmit_schedule(0.0, 100)  # must wait for the first
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            Link(latency=-1)
        with pytest.raises(ParameterError):
            Link(bandwidth=0)


class TestNetMessage:
    def test_unknown_command_rejected(self):
        with pytest.raises(ParameterError):
            NetMessage("bogus", None, 10)

    def test_total_includes_envelope(self):
        msg = NetMessage("inv", None, 37)
        assert msg.total_size == 37 + 24


class TestNodeWiring:
    def test_no_self_peering(self):
        sim = Simulator()
        node = Node("x", sim)
        with pytest.raises(ParameterError):
            node.connect(node)


class TestBlockRelayOverNetwork:
    @pytest.mark.parametrize("protocol", list(RelayProtocol))
    def test_block_reaches_all_nodes(self, protocol, txgen):
        sim = Simulator()
        nodes = [Node(f"n{i}", sim, protocol=protocol) for i in range(4)]
        connect_line(nodes, latency=0.01)
        txs = txgen.make_batch(50)
        for node in nodes:
            node.mempool.add_many(txs)
        block = Block.assemble(txs)
        nodes[0].mine_block(block)
        sim.run()
        root = block.header.merkle_root
        assert all(root in node.blocks for node in nodes)

    def test_graphene_propagates_faster_than_full_blocks(self, txgen):
        results = {}
        for protocol in (RelayProtocol.GRAPHENE, RelayProtocol.FULL_BLOCK):
            sim = Simulator()
            nodes = [Node(f"n{i}", sim, protocol=protocol) for i in range(5)]
            connect_line(nodes, latency=0.02, bandwidth=200_000)
            txs = txgen.make_batch(400)
            for node in nodes:
                node.mempool.add_many(txs)
            block = Block.assemble(txs)
            nodes[0].mine_block(block)
            sim.run()
            results[protocol] = nodes[-1].block_arrival[
                block.header.merkle_root]
        assert (results[RelayProtocol.GRAPHENE]
                < results[RelayProtocol.FULL_BLOCK])

    def test_mempool_cleared_after_block(self, txgen):
        sim = Simulator()
        a = Node("a", sim)
        b = Node("b", sim)
        a.connect(b)
        txs = txgen.make_batch(20)
        a.mempool.add_many(txs)
        b.mempool.add_many(txs)
        a.mine_block(Block.assemble(txs))
        sim.run()
        assert len(b.mempool) == 0

    def test_block_outruns_its_transactions(self, txgen):
        """The paper 3.2 scenario: the block reaches a peer before 50 of
        its transactions do, so Protocol 1 cannot suffice -- yet the
        peer still reconstructs the exact block (Protocol 2 / pushed
        transactions)."""
        sim = Simulator()
        miner = Node("m", sim, protocol=RelayProtocol.GRAPHENE)
        peer = Node("p", sim, protocol=RelayProtocol.GRAPHENE)
        miner.connect(peer, Link(latency=0.01))

        base = txgen.make_batch(150)
        miner.mempool.add_many(base)
        peer.mempool.add_many(base)

        fresh = txgen.make_batch(50)
        miner.mempool.add_many(fresh)
        block = Block.assemble(base + fresh)
        miner.mine_block(block)
        sim.run(until=5.0)

        assert block.header.merkle_root in peer.blocks
        arrived = peer.blocks[block.header.merkle_root]
        assert arrived.txids == block.txids
        # The exchange needed more than the single P1 message.
        assert miner.stats[peer].messages_sent >= 3


class TestTopologies:
    def _nodes(self, count):
        sim = Simulator()
        return [Node(f"n{i}", sim) for i in range(count)]

    def test_clique_degree(self):
        nodes = self._nodes(5)
        connect_clique(nodes)
        assert all(len(node.peers) == 4 for node in nodes)

    def test_line_degree(self):
        nodes = self._nodes(5)
        connect_line(nodes)
        assert len(nodes[0].peers) == 1
        assert len(nodes[2].peers) == 2

    def test_random_regular_degree(self):
        import random
        nodes = self._nodes(20)
        connect_random_regular(nodes, degree=4, rng=random.Random(1))
        assert all(len(node.peers) == 4 for node in nodes)

    def test_small_network_falls_back_to_clique(self):
        nodes = self._nodes(3)
        connect_random_regular(nodes, degree=8)
        assert all(len(node.peers) == 2 for node in nodes)

    def test_rejects_bad_degree(self):
        with pytest.raises(ParameterError):
            connect_random_regular(self._nodes(5), degree=0)


class TestNetMessageIds:
    def test_msg_ids_monotonic_unique(self):
        a = NetMessage("inv", None, 1)
        b = NetMessage("inv", None, 1)
        assert b.msg_id > a.msg_id

    def test_negative_size_rejected(self):
        with pytest.raises(ParameterError):
            NetMessage("inv", None, -1)
