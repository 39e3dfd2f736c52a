"""Tests for lossy links: dropped sends, sync repair, relay recovery."""

from __future__ import annotations

import pytest

from repro.chain.block import Block
from repro.chain.scenarios import make_block_scenario
from repro.core.sizing import MSG_HEADER_BYTES
from repro.errors import ParameterError
from repro.net.messages import NetMessage
from repro.net.node import Node
from repro.net.simulator import Link, Simulator


class TestLinkLoss:
    def test_rejects_bad_loss_rate(self):
        with pytest.raises(ParameterError):
            Link(loss_rate=1.0)
        with pytest.raises(ParameterError):
            Link(loss_rate=-0.1)

    def test_zero_loss_never_drops(self):
        link = Link()
        assert not any(link.drops() for _ in range(1000))

    def test_loss_rate_statistics(self):
        link = Link(loss_rate=0.3, loss_seed=1)
        dropped = sum(link.drops() for _ in range(5000))
        assert dropped == pytest.approx(1500, rel=0.15)

    def test_deterministic_by_seed(self):
        a = Link(loss_rate=0.5, loss_seed=7)
        b = Link(loss_rate=0.5, loss_seed=7)
        assert [a.drops() for _ in range(50)] == \
            [b.drops() for _ in range(50)]


class TestSendUnderLoss:
    """What a lossy link does to a node's sends, and what a wire mempool
    sync repairs afterwards."""

    def _lossy_pair(self, loss):
        sim = Simulator()
        a = Node("a", sim)
        b = Node("b", sim)
        a.connect(b,
                  Link(latency=0.01, loss_rate=loss, loss_seed=3),
                  Link(latency=0.01, loss_rate=loss, loss_seed=4))
        return sim, a, b

    def _send_blocks(self, a, b, txs):
        """Push each transaction to ``b`` as a one-transaction full
        block; return the bytes the sends were charged."""
        blocks = [Block.assemble([tx]) for tx in txs]
        for block in blocks:
            a._send(b, NetMessage("block", block, block.serialized_size()))
        return sum(block.serialized_size() + MSG_HEADER_BYTES
                   for block in blocks)

    def test_lossy_link_drops_a_share_of_sends(self, txgen):
        sim, a, b = self._lossy_pair(0.4)
        self._send_blocks(a, b, txgen.make_batch(300))
        sim.run()
        # With 40% loss, a substantial fraction never lands.
        assert 0 < len(b.blocks) < 300

    def test_sync_repairs_what_a_lossy_link_lost(self, txgen):
        sim, a, b = self._lossy_pair(0.4)
        txs = txgen.make_batch(300)
        a.mempool.add_many(txs)
        # b holds what a 40%-lossy link would have let through.
        b.mempool.add_many(tx for tx in txs if not a.peers[b].drops())
        missing_before = 300 - len(b.mempool)
        assert missing_before > 0

        # Heal the links for the repair pass (sync needs its own
        # messages through), then reconcile: b catches up completely.
        a.connect(b, Link(latency=0.01), Link(latency=0.01))
        nonce = b.initiate_mempool_sync(a)
        sim.run()
        assert b.sync_result(nonce).succeeded
        assert len(b.mempool) == 300

    def test_bytes_spent_even_on_drops(self, txgen):
        sim, a, b = self._lossy_pair(0.9)
        charged = self._send_blocks(a, b, txgen.make_batch(50))
        sim.run()
        assert len(b.blocks) < 50
        # The sender pays for lost traffic: every send is charged.
        assert a.total_bytes_sent() == charged


class TestBlockRelayUnderLoss:
    """Recovery properties of Graphene relay over lossy links.

    A lost message can hit any phase of the exchange; the recovery
    ladder (see repro.net.host) must either deliver the block or
    abandon it cleanly within the policy bounds.  The only permanently
    stranding loss is the announcement itself: with a single announcer
    a dropped inv leaves nothing to recover from (multi-peer
    topologies cover that case with redundant inv paths).
    """

    def _relay_once(self, loss, seed_fwd, seed_rev):
        sc = make_block_scenario(n=80, extra=80, fraction=1.0, seed=11)
        sim = Simulator()
        a = Node("a", sim)
        b = Node("b", sim)
        a.connect(b,
                  Link(latency=0.01, loss_rate=loss, loss_seed=seed_fwd),
                  Link(latency=0.01, loss_rate=loss, loss_seed=seed_rev))
        b.mempool.add_many(sc.receiver_mempool.transactions())
        a.mine_block(sc.block)
        sim.run(until=120.0)
        return sc.block.header.merkle_root, a, b

    def test_converges_or_leaves_bounded_trail(self):
        converged = 0
        for seed in range(12):
            root, a, b = self._relay_once(0.25, 2 * seed, 2 * seed + 1)
            if root in b.blocks:
                converged += 1
                # Telemetry trail matches the counters exactly.
                outcomes = [e.outcome for e in b.relay_telemetry[root]]
                assert outcomes.count("retry") == b.relay_retries
                assert outcomes.count("timeout") == b.relay_timeouts
            else:
                # Either the inv was the casualty (nothing ever started)
                # or the ladder ran out of rungs; both end with a
                # bounded trail, never an infinite retry loop.
                bound = b.recovery.max_retries
                assert b.relay_retries <= 2 * bound
                assert b.relay_timeouts <= 2 * (bound + 1)
        assert converged > 0  # the loss level leaves most runs savable

    def test_no_engine_left_behind(self):
        for seed in range(12):
            root, a, b = self._relay_once(0.25, 2 * seed, 2 * seed + 1)
            # Converged or abandoned, no fetch state may linger.
            assert b.pending_fetches == 0
            assert b._cb_pending == {}
            if root in b.blocks:
                assert root not in b.announced_roots

    def test_heavy_loss_relay_still_converges_when_inv_lands(self):
        recovered = 0
        for seed in range(10):
            root, a, b = self._relay_once(0.3, 100 + seed, 200 + seed)
            if root in b.blocks and b.relay_retries > 0:
                recovered += 1
        assert recovered > 0  # retries demonstrably rescued some runs
