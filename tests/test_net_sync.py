"""Tests for mempool synchronization over the network simulator."""

from __future__ import annotations

import pytest

from repro.chain.scenarios import make_sync_scenario
from repro.chain.transaction import TransactionGenerator
from repro.core.mempool_sync import synchronize_mempools
from repro.core.params import GrapheneConfig
from repro.errors import ParameterError
from repro.net.node import Node
from repro.net.simulator import Link, Simulator


def _pair():
    sim = Simulator()
    a = Node("a", sim)
    b = Node("b", sim)
    a.connect(b, Link(latency=0.02, bandwidth=1_000_000))
    return sim, a, b


def _fill(a, b, shared, a_only, b_only, seed=3):
    gen = TransactionGenerator(seed=seed)
    common = gen.make_batch(shared)
    mine = gen.make_batch(a_only)
    theirs = gen.make_batch(b_only)
    a.mempool.add_many(common)
    a.mempool.add_many(mine)
    b.mempool.add_many(common)
    b.mempool.add_many(theirs)
    return common, mine, theirs


class TestSyncOverWire:
    def test_both_sides_reach_union(self):
        sim, a, b = _pair()
        _fill(a, b, 200, 40, 60)
        nonce = a.initiate_mempool_sync(b)
        sim.run()
        state = a.sync_result(nonce)
        assert state.done and state.succeeded
        assert ({t.txid for t in a.mempool}
                == {t.txid for t in b.mempool})
        assert len(a.mempool) == 300

    def test_identical_mempools_cheap(self):
        sim, a, b = _pair()
        _fill(a, b, 200, 0, 0)
        before = 0
        nonce = a.initiate_mempool_sync(b)
        sim.run()
        assert a.sync_result(nonce).succeeded
        # Only the request, P1 digest, and an empty push crossed.
        total = (a.peers[b].bytes_sent + b.peers[a].bytes_sent)
        assert total < 2000

    def test_disjoint_mempools(self):
        sim, a, b = _pair()
        _fill(a, b, 0, 80, 90)
        nonce = a.initiate_mempool_sync(b)
        sim.run()
        state = a.sync_result(nonce)
        assert state.succeeded
        assert len(a.mempool) == len(b.mempool) == 170

    def test_one_sided_divergence(self):
        sim, a, b = _pair()
        _fill(a, b, 150, 0, 50)  # only b has extras
        nonce = a.initiate_mempool_sync(b)
        sim.run()
        assert a.sync_result(nonce).succeeded
        assert len(a.mempool) == 200
        assert len(b.mempool) == 200

    def test_bytes_far_below_naive(self):
        sim, a, b = _pair()
        _fill(a, b, 2000, 50, 50)
        nonce = a.initiate_mempool_sync(b)
        sim.run()
        assert a.sync_result(nonce).succeeded
        naive = 32 * 2050  # shipping every txid one way
        total = a.peers[b].bytes_sent + b.peers[a].bytes_sent
        # Exclude the genuinely-transferred transaction payloads.
        tx_bytes = sum(t.size for t in a.mempool
                       if t.txid not in {x.txid for x in b.mempool})
        assert total - tx_bytes < naive

    def test_requires_peering(self):
        sim = Simulator()
        a = Node("a", sim)
        b = Node("b", sim)
        with pytest.raises(ParameterError):
            a.initiate_mempool_sync(b)

    def test_concurrent_syncs_with_two_peers(self):
        sim = Simulator()
        a = Node("a", sim)
        b = Node("b", sim)
        c = Node("c", sim)
        a.connect(b)
        a.connect(c)
        gen = TransactionGenerator(seed=9)
        common = gen.make_batch(100)
        for node in (a, b, c):
            node.mempool.add_many(common)
        b.mempool.add_many(gen.make_batch(30))
        c.mempool.add_many(gen.make_batch(40))
        n1 = a.initiate_mempool_sync(b)
        n2 = a.initiate_mempool_sync(c)
        sim.run()
        assert a.sync_result(n1).succeeded
        assert a.sync_result(n2).succeeded
        # a holds the union of everything.
        assert len(a.mempool) == 170

    def test_repeated_syncs_converge_network(self):
        # Three nodes in a line; pairwise syncs propagate everything.
        sim = Simulator()
        nodes = [Node(f"n{i}", sim) for i in range(3)]
        nodes[0].connect(nodes[1])
        nodes[1].connect(nodes[2])
        gen = TransactionGenerator(seed=10)
        for node in nodes:
            node.mempool.add_many(gen.make_batch(25))
        nodes[0].initiate_mempool_sync(nodes[1])
        sim.run()
        nodes[1].initiate_mempool_sync(nodes[2])
        sim.run()
        nodes[0].initiate_mempool_sync(nodes[1])
        sim.run()
        sets = [{t.txid for t in node.mempool} for node in nodes]
        assert sets[0] == sets[1] == sets[2]
        assert len(sets[0]) == 75


class TestP1PathWithMissing:
    def test_small_divergence_fetched_via_protocol1(self):
        # Receiver's mempool is a near-superset (extras push m > n), so
        # Protocol 1 decodes and the few missing txs go through the
        # sync_fetch short-ID path rather than Protocol 2.
        sim = Simulator()
        a = Node("a", sim)
        b = Node("b", sim)
        a.connect(b, Link(latency=0.01))
        gen = TransactionGenerator(seed=77)
        common = gen.make_batch(300)
        responder_only = gen.make_batch(3)
        a.mempool.add_many(common)                 # initiator
        a.mempool.add_many(gen.make_batch(100))    # extras -> m > n
        b.mempool.add_many(common)
        b.mempool.add_many(responder_only)         # b is the responder
        nonce = a.initiate_mempool_sync(b)
        sim.run()
        state = a.sync_result(nonce)
        assert state.succeeded
        for tx in responder_only:
            assert tx.txid in a.mempool
        # And b received a's extras via the H push.
        assert len(b.mempool) == len(a.mempool)


class TestOneRuleForH:
    """The pushed set H is read off the reconciled view alone -- what a
    receiver knows -- by the loopback and the simulated sync alike."""

    @pytest.mark.parametrize("protocol", [1, 3])
    @pytest.mark.parametrize("common", [0.2, 0.8, 0.95])
    def test_loopback_and_simulated_sync_push_the_same_h(self, protocol,
                                                         common):
        config = GrapheneConfig(protocol=protocol)
        for seed in range(3):
            sc = make_sync_scenario(200, common, seed=seed)
            sender = sc.sender_mempool.copy()
            before = set(sender.txids)
            result = synchronize_mempools(sender,
                                          sc.receiver_mempool.copy(), config)
            assert result.synchronized
            loopback_h = set(sender.txids) - before

            sim = Simulator()
            a = Node("a", sim, config=config)   # responder = sender
            b = Node("b", sim, config=config)   # initiator = receiver
            a.connect(b)
            a.mempool.add_many(sc.sender_mempool.transactions())
            b.mempool.add_many(sc.receiver_mempool.transactions())
            nonce = b.initiate_mempool_sync(a)
            sim.run()
            assert b.sync_result(nonce).succeeded
            assert set(a.mempool.txids) - before == loopback_h
            assert len(loopback_h) == result.sender_gained > 0
