"""One state machine, two transports: loopback/simulator relay parity.

The relay engines are the only Graphene implementation; the loopback
session and the network simulator merely move their messages.  These
tests pin the consequence: for the same scenario the two transports
produce byte-identical cost breakdowns, and the full fallback chain
(P1 decode failure -> Protocol 2 ping-pong -> short-id fetch ->
FAILED) is reachable and observable through the telemetry stream.
"""

from __future__ import annotations

import pytest

from repro.chain.scenarios import make_block_scenario
from repro.codec import encode_tx_list
from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
    ReceiverPhase,
)
from repro.core.session import BlockRelaySession
from repro.core.sizing import CostBreakdown
from repro.core.telemetry import total_wire_bytes
from repro.net import FaultInjector, Link, Node, Simulator
from repro.net.node import derive_loss_seed

# A 10%-lossy link pair whose first eight draws all survive: the link
# is genuinely consulted per message, but this particular relay fits
# in the surviving prefix, so the exchange completes without stalling.
_LOSSY = dict(loss_rate=0.1)
_SEED_FWD, _SEED_REV = 10, 11


def _relay_over_simulator(scenario, loss_rate=0.0):
    """Mirror a scenario onto two simulated nodes; return (rx, root)."""
    sim = Simulator()
    alpha = Node("alpha", sim)
    beta = Node("beta", sim)
    alpha.connect(beta,
                  Link(loss_rate=loss_rate, loss_seed=_SEED_FWD),
                  Link(loss_rate=loss_rate, loss_seed=_SEED_REV))
    beta.mempool.add_many(scenario.receiver_mempool.transactions())
    alpha.mine_block(scenario.block)
    sim.run()
    return beta, scenario.block.header.merkle_root


class TestCostParity:
    """Same seed => loopback and simulator account identical bytes."""

    def _assert_parity(self, fraction, seed, loss_rate=0.0):
        sc = make_block_scenario(n=120, extra=120, fraction=fraction,
                                 seed=seed)
        outcome = BlockRelaySession().relay(sc.block, sc.receiver_mempool)
        assert outcome.success

        sc2 = make_block_scenario(n=120, extra=120, fraction=fraction,
                                  seed=seed)
        rx, root = _relay_over_simulator(sc2, loss_rate=loss_rate)
        assert root in rx.blocks
        sim_cost = CostBreakdown.from_events(rx.relay_telemetry[root])
        assert sim_cost.as_dict() == outcome.cost.as_dict()
        assert outcome.total_bytes == sim_cost.total()
        assert outcome.total_bytes == \
            total_wire_bytes(rx.relay_telemetry[root])
        return outcome, rx.relay_telemetry[root]

    def test_protocol1_path(self):
        outcome, events = self._assert_parity(fraction=1.0, seed=7)
        assert outcome.protocol_used == 1
        assert [e.command for e in events] == \
            ["inv", "getdata", "graphene_block"]

    def test_full_fallback_chain_over_lossy_link(self):
        # fraction=0.4 at this seed escalates to Protocol 2, needs
        # ping-pong decoding AND a short-id repair fetch -- the whole
        # chain crosses a lossy (but surviving) simulated link.
        outcome, events = self._assert_parity(fraction=0.4, seed=2736,
                                              loss_rate=0.1)
        assert outcome.protocol_used == 2
        assert outcome.p2_used_pingpong
        assert outcome.fetched_count > 0
        commands = [e.command for e in events]
        assert commands == ["inv", "getdata", "graphene_block",
                            "graphene_p2_request", "graphene_p2_response",
                            "getdata_shortids", "block_txs"]
        by_cmd = {e.command: e for e in events}
        assert by_cmd["graphene_block"].outcome == "fallback"
        assert by_cmd["graphene_p2_response"].outcome == "fetch"
        assert by_cmd["block_txs"].outcome == "done"


class TestFallbackChainToFailed:
    """P1 fail -> P2 ping-pong -> fetch -> FAILED, step by step."""

    def test_truncated_repair_fails_validation(self):
        sc = make_block_scenario(n=120, extra=120, fraction=0.4, seed=2736)
        sender = GrapheneSenderEngine(sc.block)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool)

        action = receiver.start()
        action = receiver.handle(
            "graphene_block",
            sender.handle("getdata", action.message).message)
        assert receiver.p1_decode_failed
        assert receiver.phase is ReceiverPhase.WAIT_P2
        assert action.command == "graphene_p2_request"

        action = receiver.handle(
            "graphene_p2_response",
            sender.handle("graphene_p2_request", action.message).message)
        assert receiver.p2_used_pingpong
        assert receiver.phase is ReceiverPhase.WAIT_TXS
        assert action.command == "getdata_shortids"

        # Serve the repair fetch short one transaction: the candidate
        # block cannot pass Merkle validation and the relay gives up.
        reply = sender.handle("getdata_shortids", action.message)
        from repro.codec import decode_tx_list
        txs, _ = decode_tx_list(reply.message)
        assert len(txs) >= 1
        action = receiver.handle("block_txs", encode_tx_list(txs[:-1]))
        assert action.kind is ActionKind.FAILED
        assert receiver.phase is ReceiverPhase.FAILED
        assert receiver.telemetry[-1].outcome == "failed"

    def test_node_falls_back_to_full_block_on_failure(self):
        # The P1 -> P2 -> short-id path of TestCostParity, with the
        # repair answer held back until the request is out.
        sc = make_block_scenario(n=120, extra=120, fraction=0.4, seed=2736)
        sim = Simulator()
        alpha = Node("alpha", sim)
        beta = Node("beta", sim)
        alpha.connect(beta)
        beta.mempool.add_many(sc.receiver_mempool.transactions())
        alpha.inject_fault(beta, FaultInjector(
            drop_commands=frozenset({"block_txs"})))
        alpha.mine_block(sc.block)
        root = sc.block.header.merkle_root
        sim.run(until=1.0)  # getdata_shortids sent, its answer lost
        alpha.peers[beta].fault = None
        # Force the receiver's relay to fail through the host's frame
        # entry: a repair short of the block fails its Merkle check, and
        # the node must count the failure and refetch the full block.
        beta.host.on_frame(alpha.nid, "block_txs", root, encode_tx_list([]))
        sim.run()
        assert beta.relay_failures == 1
        assert root in beta.blocks
        assert beta.pending_fetches == 0


class TestLossSeedDerivation:
    """Default loss seeds derive from the endpoint pair, not a global."""

    def test_directions_get_distinct_seeds(self):
        sim = Simulator()
        a, b, c = (Node(x, sim) for x in "abc")
        a.connect(b, Link(loss_rate=0.2), Link(loss_rate=0.2))
        a.connect(c, Link(loss_rate=0.2), Link(loss_rate=0.2))
        seeds = {a.peers[b].loss_seed, b.peers[a].loss_seed,
                 a.peers[c].loss_seed, c.peers[a].loss_seed}
        assert len(seeds) == 4
        assert a.peers[b].loss_seed == derive_loss_seed("a", "b")
        assert b.peers[a].loss_seed == derive_loss_seed("b", "a")

    def test_explicit_seed_wins(self):
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        a.connect(b, Link(loss_rate=0.2, loss_seed=99))
        assert a.peers[b].loss_seed == 99

    def test_lossless_links_still_get_reproducible_seed(self):
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        a.connect(b)
        assert a.peers[b].loss_seed == derive_loss_seed("a", "b")
        assert not a.peers[b].drops()


class TestSyncNonces:
    """Per-node deterministic nonces (satellite of the relay refactor)."""

    def test_nonces_deterministic_and_distinct_across_nodes(self):
        def fresh_pair():
            sim = Simulator()
            a, b = Node("a", sim), Node("b", sim)
            a.connect(b)
            return sim, a, b

        sim1, a1, b1 = fresh_pair()
        sim2, a2, b2 = fresh_pair()
        n_a1 = a1.initiate_mempool_sync(b1)
        n_a2 = a2.initiate_mempool_sync(b2)
        assert n_a1 == n_a2  # same node id => same sequence, every run
        n_b1 = b1.initiate_mempool_sync(a1)
        assert n_b1 != n_a1  # different node ids never collide
        assert a1.initiate_mempool_sync(b1) == n_a1 + 1


@pytest.mark.parametrize("fraction,seed", [(0.5, 3), (0.9, 11)])
def test_more_parity_spots(fraction, seed):
    sc = make_block_scenario(n=150, extra=150, fraction=fraction, seed=seed)
    outcome = BlockRelaySession().relay(sc.block, sc.receiver_mempool)
    sc2 = make_block_scenario(n=150, extra=150, fraction=fraction, seed=seed)
    rx, root = _relay_over_simulator(sc2)
    assert root in rx.blocks
    assert CostBreakdown.from_events(rx.relay_telemetry[root]).as_dict() \
        == outcome.cost.as_dict()
