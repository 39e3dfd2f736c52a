"""Tests for the relay recovery ladder (repro.net.host.RelayHost).

Timeout timers, the retry -> full block -> alternate peer ladder,
fault injection, stale-state GC, and the acceptance chaos scenario:
a 20-node Graphene topology with 5% per-link loss must converge with
the recovery trail visible in telemetry.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import random

import pytest

from repro.chain.block import Block
from repro.chain.scenarios import make_block_scenario, make_sync_scenario
from repro.core.engine import (
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
)
from repro.core.params import GrapheneConfig
from repro.core.session import BlockRelaySession
from repro.core.sizing import CostBreakdown, getdata_bytes, inv_bytes
from repro.errors import ParameterError, ProtocolFailure
from repro.net import (
    FaultInjector,
    Link,
    NetMessage,
    Node,
    RecoveryPolicy,
    Simulator,
    connect_random_regular,
)
from repro.net import host as host_module
from repro.net.host import (
    RelayHost,
    STAGE_ENGINE,
    STAGE_FULLBLOCK,
    STAGE_REQUEST,
)
from repro.net.peer import (
    BlockServer,
    PeerConnection,
    PeerManager,
    encode_full_block,
)
from repro.obs import Tracer, WallClock
from tests.test_relay_host import RecordingDriver


def _graphene_pair(fault=None, scenario_seed=7, recovery=None):
    """Two peered nodes sharing a scenario's receiver mempool."""
    sc = make_block_scenario(n=100, extra=100, fraction=1.0,
                             seed=scenario_seed)
    sim = Simulator()
    a = Node("a", sim, recovery=recovery)
    b = Node("b", sim, recovery=recovery)
    a.connect(b)
    if fault is not None:
        a.inject_fault(b, fault)
    b.mempool.add_many(sc.receiver_mempool.transactions())
    return sim, a, b, sc


class TestSimulatorTimers:
    def test_cancelled_event_never_fires_nor_advances_clock(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(5.0, lambda: fired.append(1))
        sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.run()
        assert fired == []
        assert sim.now == 1.0          # clock stopped at the live event
        assert sim.events_processed == 1  # cancelled one never counted

    def test_run_clamps_clock_to_horizon_with_events_remaining(self):
        # Regression: the clock used to stop at the last processed
        # event when events remained beyond the horizon, so repeated
        # run(until=now + dt) calls advanced in lurches.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(10.0, lambda: None)
        assert sim.run(until=5.0) == 5.0
        assert sim.pending == 1

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        keep.cancel()
        assert sim.pending == 0


class TestFaultInjector:
    def test_drop_nth(self):
        fault = FaultInjector(drop_nth=frozenset({0, 2}))
        verdicts = [fault.should_drop(0.0, "inv") for _ in range(4)]
        assert verdicts == [True, False, True, False]
        assert fault.dropped == 2

    def test_drop_by_command(self):
        fault = FaultInjector(drop_commands=frozenset({"graphene_block"}))
        assert fault.should_drop(0.0, "graphene_block")
        assert not fault.should_drop(0.0, "inv")

    def test_blackhole_window(self):
        fault = FaultInjector(blackhole=(1.0, 3.0))
        assert not fault.should_drop(0.5, "inv")
        assert fault.should_drop(1.0, "inv")
        assert fault.should_drop(2.9, "inv")
        assert not fault.should_drop(3.0, "inv")

    def test_fault_does_not_perturb_seeded_loss_stream(self):
        clean = Link(loss_rate=0.5, loss_seed=7)
        faulted = Link(loss_rate=0.5, loss_seed=7,
                       fault=FaultInjector(drop_nth=frozenset({1, 3})))
        # Messages the fault lets through see the same loss verdicts
        # the clean link would give them, in order.
        clean_draws = [clean.drops() for _ in range(4)]
        survivors = [faulted.drops(0.0, "inv") for _ in range(6)]
        assert survivors[1] and survivors[3]  # fault-dropped
        passed = [v for i, v in enumerate(survivors) if i not in (1, 3)]
        assert passed == clean_draws


class TestDroppedMessagesOccupyLink:
    def test_busy_window_advances_on_drop(self):
        # Regression: a dropped message used to consume zero sender
        # bandwidth while PeerStats still charged its bytes.
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        link = Link(latency=0.0, bandwidth=100.0)
        a.connect(b, link)
        a.inject_fault(b, FaultInjector(drop_nth=frozenset({0})))
        a._send(b, NetMessage("block", None, 200))   # dropped
        assert link._busy_until > 0                  # NIC time was spent
        busy_after_drop = link._busy_until
        a._send(b, NetMessage("block", None, 200))   # delivered
        assert link._busy_until > busy_after_drop


class TestStrictShortIdRequests:
    def test_malformed_length_raises(self):
        sc = make_block_scenario(n=20, extra=0, fraction=1.0, seed=88)
        sender = GrapheneSenderEngine(sc.block)
        good = sc.block.txs[3].short_id().to_bytes(8, "little")
        with pytest.raises(ParameterError):
            sender.on_shortid_request(good + b"\x01")  # trailing byte

    def test_whole_multiples_still_served(self):
        sc = make_block_scenario(n=20, extra=0, fraction=1.0, seed=88)
        sender = GrapheneSenderEngine(sc.block)
        wanted = b"".join(tx.short_id().to_bytes(8, "little")
                          for tx in sc.block.txs[:3])
        from repro.codec import decode_tx_list
        txs, _ = decode_tx_list(sender.on_shortid_request(wanted).message)
        assert len(txs) == 3


class TestRecoveryPolicy:
    """A non-finite timing would run an exchange with no ladder (an
    infinite timer never fires) or on a NaN clock."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_timeout_base(self, value):
        with pytest.raises(ParameterError,
                           match="timeout_base must be finite"):
            RecoveryPolicy(timeout_base=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_backoff(self, value):
        with pytest.raises(ParameterError, match="backoff must be finite"):
            RecoveryPolicy(backoff=value)


class TestEngineRecoveryHooks:
    def test_reemit_repeats_last_request_and_charges_bytes(self):
        sc = make_block_scenario(n=50, extra=50, fraction=1.0, seed=3)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool)
        first = receiver.start()
        again = receiver.reemit_last_request()
        assert again.command == first.command
        assert again.message == first.message
        assert again.event.parts == first.event.parts
        assert again.event.outcome == "retry"

    def test_note_timeout_is_zero_byte_event(self):
        sc = make_block_scenario(n=50, extra=50, fraction=1.0, seed=3)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool)
        receiver.start()
        receiver.note_timeout()
        event = receiver.telemetry[-1]
        assert event.outcome == "timeout"
        assert event.wire_bytes == 0

    def test_reemit_before_any_request_raises(self):
        sc = make_block_scenario(n=50, extra=50, fraction=1.0, seed=3)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool)
        with pytest.raises(ProtocolFailure):
            receiver.reemit_last_request()

    def test_accepts_tracks_phase(self):
        sc = make_block_scenario(n=50, extra=50, fraction=1.0, seed=3)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool)
        assert not receiver.accepts("graphene_block")  # IDLE
        receiver.start()
        assert receiver.accepts("graphene_block")      # WAIT_P1
        assert not receiver.accepts("graphene_p2_response")


class TestRetryLadder:
    def test_lost_p1_payload_recovered_by_retry(self):
        # a -> b stream: inv (0), graphene_block (1).  Drop the P1
        # payload once; the receiver's timer must re-request it.
        fault = FaultInjector(drop_nth=frozenset({1}))
        sim, a, b, sc = _graphene_pair(fault=fault)
        a.mine_block(sc.block)
        sim.run()
        root = sc.block.header.merkle_root
        assert root in b.blocks
        assert b.relay_timeouts == 1
        assert b.relay_retries == 1
        outcomes = [e.outcome for e in b.relay_telemetry[root]]
        assert "timeout" in outcomes and "retry" in outcomes
        # Retry charged its bytes: two getdata events in the stream.
        cost = CostBreakdown.from_events(b.relay_telemetry[root])
        assert cost.getdata > 0

    def test_lost_getdata_recovered_by_retry(self):
        # b -> a stream: getdata is message 0.
        sim, a, b, sc = _graphene_pair()
        b.inject_fault(a, FaultInjector(drop_nth=frozenset({0})))
        a.mine_block(sc.block)
        sim.run()
        assert sc.block.header.merkle_root in b.blocks
        assert b.relay_retries == 1

    def test_engine_blackout_escalates_to_full_block(self):
        # Every engine payload from a is lost, but full blocks pass:
        # the ladder must climb to rung 2 and deliver.
        fault = FaultInjector(drop_commands=frozenset({"graphene_block"}))
        sim, a, b, sc = _graphene_pair(fault=fault)
        a.mine_block(sc.block)
        sim.run()
        root = sc.block.header.merkle_root
        assert root in b.blocks
        assert b.relay_timeouts > b.recovery.max_retries  # climbed rung 1
        assert b.pending_fetches == 0

    def test_dead_peer_fails_over_to_alternate_announcer(self):
        sc = make_block_scenario(n=100, extra=100, fraction=1.0, seed=7)
        sim = Simulator()
        a, b, c = Node("a", sim), Node("b", sim), Node("c", sim)
        a.connect(b)
        a.connect(c)
        b.connect(c)
        for node in (b, c):
            node.mempool.add_many(sc.receiver_mempool.transactions())
        # a's inv reaches c but every block payload a -> c is lost;
        # b (which hears the inv over a clean link) is the alternate.
        a.inject_fault(c, FaultInjector(
            drop_commands=frozenset({"graphene_block", "block"})))
        a.mine_block(sc.block)
        sim.run()
        root = sc.block.header.merkle_root
        assert root in c.blocks
        assert c.relay_timeouts > 0
        assert c.pending_fetches == 0

    def test_total_blackout_abandons_and_new_inv_restarts(self):
        fault = FaultInjector(
            drop_commands=frozenset({"graphene_block", "block"}))
        sim, a, b, sc = _graphene_pair(fault=fault)
        a.mine_block(sc.block)
        sim.run()
        root = sc.block.header.merkle_root
        assert root not in b.blocks           # sole announcer was dead
        assert b.pending_fetches == 0         # ...but nothing stranded
        assert root not in b.announced_roots
        # The link heals and a re-announces: the fetch starts over.
        a.peers[b].fault = None
        a._send(b, NetMessage("inv", ("block", root), 37))
        sim.run()
        assert root in b.blocks

    def test_late_reply_from_an_announcer_left_behind_is_shed(self):
        """dark answers after 5 s, bright after 1.5 s: the fetch climbs
        to rung 3 and restarts at bright before dark's reply to the
        first retry lands.  That reply must not feed bright's fresh
        engine; the block comes from bright, so the surviving path is
        one peer's, as on sockets."""
        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=55)
        sim = Simulator()
        policy = RecoveryPolicy(timeout_base=1, max_retries=1)
        dark, bright, leaf = (Node(name, sim, recovery=policy)
                              for name in ("dark", "bright", "leaf"))
        dark.connect(leaf)
        bright.connect(leaf)
        leaf.mempool.add_many(sc.receiver_mempool.transactions())
        tracer = Tracer(sim).attach(leaf)
        dark.mine_block(sc.block)
        bright.mine_block(sc.block)
        sim.run(until=0.07)  # both invs are in; no reply has left yet
        dark.peers[leaf].latency = 5.0
        bright.peers[leaf].latency = 1.5
        sim.run()
        root = sc.block.header.merkle_root
        assert root in leaf.blocks
        assert [(m.name, dict(m.detail)) for m in tracer.marks] == [
            ("escalate", {"why": "timeout", "peer": "dark"}),
            ("failover", {"to": "bright"}),
            ("done", {"origin": "bright"})]
        assert leaf.frames_shed >= 1
        loop = BlockRelaySession().relay(sc.block, sc.receiver_mempool)
        surviving = [(e.command, e.outcome)
                     for e in leaf.relay_telemetry[root][-5:]]
        assert surviving == [("inv", ""), ("getdata", ""),
                             ("getdata", "timeout"), ("getdata", "retry"),
                             ("graphene_block", loop.events[-1].outcome)]

    def test_retry_trail_is_bounded_by_policy(self):
        fault = FaultInjector(
            drop_commands=frozenset({"graphene_block", "block"}))
        policy = RecoveryPolicy(timeout_base=0.5, max_retries=2)
        sim, a, b, sc = _graphene_pair(fault=fault, recovery=policy)
        a.mine_block(sc.block)
        sim.run()
        # Two rungs (engine, fullblock), each max_retries resends plus
        # the timeout that moves past the rung.
        assert b.relay_retries <= 2 * policy.max_retries
        assert b.relay_timeouts <= 2 * (policy.max_retries + 1)


class TestStaleStateGC:
    def test_block_via_other_path_cancels_recovery(self, txgen):
        # b is mid-fetch from a (stalled); the full block then arrives
        # from c.  All fetch state must be evicted and no timeout fire.
        txs = txgen.make_batch(80)
        block = Block.assemble(txs)
        root = block.header.merkle_root
        sim = Simulator()
        a, b, c = Node("a", sim), Node("b", sim), Node("c", sim)
        a.connect(b)
        b.connect(c)
        b.mempool.add_many(txs)
        a.inject_fault(b, FaultInjector(
            drop_commands=frozenset({"graphene_block"})))
        a.blocks[root] = block  # a can serve but its payloads are lost
        a._send(b, NetMessage("inv", ("block", root), 37))
        sim.run(until=0.5)      # inv + getdata flow; P1 payload lost
        assert b.pending_fetches == 1
        assert root in b.announced_roots
        c.blocks[root] = block
        c._send(b, NetMessage("block", block, block.serialized_size()))
        sim.run()
        assert root in b.blocks
        assert b.pending_fetches == 0
        assert root not in b.announced_roots
        assert b.relay_timeouts == 0  # timer was cancelled, never fired

    def test_serving_engines_bounded(self, txgen, monkeypatch):
        monkeypatch.setattr(host_module, "SERVING_CAP", 2)
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        a.connect(b)
        for batch in range(4):
            txs = txgen.make_batch(10)
            for node in (a, b):
                node.mempool.add_many(txs)
            a.mine_block(Block.assemble(txs))
            sim.run()
        assert len(a.serving_engines) <= 2
        assert len(b.blocks) == 4

    def test_zero_loss_relay_cancels_every_timer_it_arms(self):
        """Recovery is invisible on a loss-free run: every timer the
        host arms is cancelled before it fires, nothing is counted or
        recorded, and the run reads the same with timers 10x longer."""
        results = []
        for timeout_base in (2.0, 20.0):
            sc = make_block_scenario(n=120, extra=120, fraction=0.5,
                                     seed=3)
            sim = Simulator()
            armed, fired = [], []
            schedule = sim.schedule

            def recording(delay, callback, schedule=schedule, armed=armed,
                          fired=fired):
                handle = schedule(
                    delay, lambda: (fired.append(handle), callback()))
                armed.append(handle)
                return handle

            sim.schedule = recording
            policy = RecoveryPolicy(timeout_base=timeout_base)
            a = Node("a", sim, recovery=policy)
            b = Node("b", sim, recovery=policy)
            a.connect(b)
            b.mempool.add_many(sc.receiver_mempool.transactions())
            a.mine_block(sc.block)
            sim.run()
            root = sc.block.header.merkle_root
            assert root in b.blocks
            assert len(armed) >= 2  # P1, then the P2 request
            assert all(handle.cancelled for handle in armed)
            assert fired == []
            events = b.relay_telemetry[root]
            assert not [e for e in events
                        if e.outcome in ("timeout", "retry")]
            for node in (a, b):
                assert node.relay_timeouts == node.relay_retries == 0
            cost = CostBreakdown.from_events(events)
            results.append((sim.now, a.total_bytes_sent(),
                            b.total_bytes_sent(), cost.as_dict()))
        assert results[0] == results[1]


class TestSyncRecovery:
    def test_lost_sync_round_recovered_by_retry(self):
        sc = make_sync_scenario(n=300, fraction_common=0.7, seed=5)
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        a.connect(b)
        a.mempool.add_many(sc.sender_mempool.transactions())
        b.mempool.add_many(sc.receiver_mempool.transactions())
        a.inject_fault(b, FaultInjector(drop_nth=frozenset({0})))
        union = ({t.txid for t in a.mempool} | {t.txid for t in b.mempool})
        nonce = b.initiate_mempool_sync(a)
        sim.run()
        state = b.sync_result(nonce)
        assert state.succeeded
        assert b.relay_retries == 1
        assert {t.txid for t in b.mempool} == union
        outcomes = [e.outcome for e in state.events]
        assert "timeout" in outcomes and "retry" in outcomes

    def test_dead_responder_abandons_sync(self):
        sc = make_sync_scenario(n=200, fraction_common=0.7, seed=5)
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        a.connect(b)
        a.mempool.add_many(sc.sender_mempool.transactions())
        a.inject_fault(b, FaultInjector(
            drop_commands=frozenset({"mempool_sync_p1"})))
        nonce = b.initiate_mempool_sync(a)
        sim.run()
        state = b.sync_result(nonce)
        assert state.done and not state.succeeded
        assert b.relay_timeouts == b.recovery.max_retries + 1

    #: (protocol, fault) -> (relay_timeouts, relay_retries, events,
    #: sha256 of the events' as_dict() list, span marks, done,
    #: succeeded, simulator.now), read off the private resend ->
    #: abandon ladder sync had before it moved onto recovery.on_timeout.
    #: "once" loses the first opening, "forever" every one, and
    #: "unpeered" also drops the peering after the first timeout -- the
    #: one case where a timeout is counted and no retry is.
    FINGERPRINT = {
        (1, "once"): (1, 1, 9, "7c812ab539dcbc39",
                      [("done", {"pushed": "90"})],
                      True, True, 2.397498999999999),
        (1, "forever"): (4, 3, 8, "c2f88c26a6d2b10a",
                         [("abandon", {"attempts": "3"})],
                         True, False, 30.0),
        (1, "unpeered"): (2, 1, 4, "524c4cbaafac3661",
                          [("abandon", {"attempts": "1"})],
                          True, False, 6.0),
        (3, "once"): (1, 1, 27, "30937110805d6200",
                      [("done", {"pushed": "90"})],
                      True, True, 3.301720999999998),
        (3, "forever"): (4, 3, 8, "a5b50fc49f60eed0",
                         [("abandon", {"attempts": "3"})],
                         True, False, 30.0),
        (3, "unpeered"): (2, 1, 4, "19b85a71bec85082",
                          [("abandon", {"attempts": "1"})],
                          True, False, 6.0),
    }

    @pytest.mark.parametrize("protocol,fault", sorted(FINGERPRINT))
    def test_sync_ladder_fingerprint(self, protocol, fault):
        sc = make_sync_scenario(n=300, fraction_common=0.7, seed=5)
        sim = Simulator()
        config = GrapheneConfig(protocol=protocol)
        a = Node("a", sim, config=config)
        b = Node("b", sim, config=config)
        a.connect(b)
        tracer = Tracer(sim).attach(a, b)
        a.mempool.add_many(sc.sender_mempool.transactions())
        b.mempool.add_many(sc.receiver_mempool.transactions())
        opening = {1: "mempool_sync_p1", 3: "mempool_sync_p3"}[protocol]
        a.inject_fault(b, FaultInjector(drop_nth=frozenset({0}))
                       if fault == "once" else
                       FaultInjector(drop_commands=frozenset({opening})))
        if fault == "unpeered":
            # Between the first timeout (t=2) and the second (t=6).
            sim.schedule(2.5, lambda: b.links.pop(a.nid))
        nonce = b.initiate_mempool_sync(a)
        sim.run()
        state = b.sync_result(nonce)
        events = [e.as_dict() for e in state.events]
        digest = hashlib.sha256(
            json.dumps(events, sort_keys=True).encode()).hexdigest()[:16]
        marks = [(m.name, dict(m.detail)) for m in tracer.marks]
        assert (b.relay_timeouts, b.relay_retries, len(events), digest,
                marks, state.done, state.succeeded, sim.now) \
            == self.FINGERPRINT[protocol, fault]


def _recorded(events):
    return [(e.command, e.phase, e.outcome, dict(e.parts)) for e in events]


#: Events a Graphene fetch's stream gains on the ladder: an engine's
#: opening (the inv it answers, its getdata), the engine's own timeout
#: and retry of that getdata, and the full-block rung's request, timeout
#: and retry.
OPENING = [("inv", "inv", "", {"inv": inv_bytes()}),
           ("getdata", "p1", "", {"getdata": getdata_bytes(0)})]
STALLED = ("getdata", "p1", "timeout", {})
RESENT = ("getdata", "p1", "retry", {"getdata": getdata_bytes(0)})
ANCHOR = ("getdata", "fetch", "", {"extra_getdata": getdata_bytes(0)})
TIMEOUT = ("getdata", "fetch", "timeout", {})
RETRY = ("getdata", "fetch", "retry", {"extra_getdata": getdata_bytes(0)})

#: An announcer that went away before the fetch reached it.
GONE = 2


def _host_at(stage, attempts, max_retries, graphene, announcers):
    """A host fetching one root announced by ``announcers`` (in arrival
    order), climbed to ``attempts`` resends on ``stage``.  A Graphene
    host opens at the engine rung, a baseline host at its own request;
    the full-block rung is entered through a decode failure."""
    sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=3)
    driver = RecordingDriver(sc.receiver_mempool, RecoveryPolicy(
        timeout_base=1.0, backoff=2.0, max_retries=max_retries))
    if not graphene:
        driver.host = RelayHost(driver, STAGE_REQUEST)
    driver.gone.add(GONE)
    root = sc.block.header.merkle_root
    for peer in announcers:
        driver.host.on_inv(peer, root)
    if stage == STAGE_FULLBLOCK:
        driver.host.decode_failed(0, root)
    for _ in range(attempts):
        driver.clock.fire()
    fetch = driver.host.fetches[root]
    assert (fetch.stage, fetch.attempts, fetch.peer) == (stage, attempts, 0)
    return driver, fetch


class TestLadderTable:
    """One timeout of a fetch on a :class:`~repro.net.host.RelayHost`,
    cell by cell: the recording driver and fake clock of
    ``tests/test_relay_host.py``, no simulator, no event loop.

    One row per ``(stage, attempts vs max_retries, alternates left)``
    cell: the driver verbs the timeout calls, the state it leaves the
    fetch in, the events its stream gains and what the host counts.
    ``announcers`` always opens with peer 0; :data:`GONE` announced and
    went away."""

    # stage, attempts, max_retries, Graphene host (a stream)?, announcers
    #   -> rung, (stage, attempts, peer, verbs), recorded,
    #      (timeouts, retries)
    TABLE = [
        # Engine rung: the engine records the timeout and the retry.
        (STAGE_ENGINE, 0, 2, True, [0, 1], "resend",
         (STAGE_ENGINE, 1, 0, [("send", 0, "getdata")]),
         [STALLED, RESENT], (1, 1)),
        (STAGE_ENGINE, 1, 2, True, [0, 1], "resend",
         (STAGE_ENGINE, 2, 0, [("send", 0, "getdata")]),
         [STALLED, RESENT], (1, 1)),
        (STAGE_ENGINE, 2, 2, True, [0, 1], "escalate",
         (STAGE_FULLBLOCK, 0, 0, [("full", 0)]), [STALLED, ANCHOR], (1, 0)),
        (STAGE_ENGINE, 0, 0, True, [0, 1], "escalate",
         (STAGE_FULLBLOCK, 0, 0, [("full", 0)]), [STALLED, ANCHOR], (1, 0)),
        # Compact Blocks / XThin opening rung: no engine, no stream.
        (STAGE_REQUEST, 0, 1, False, [0, 1], "resend",
         (STAGE_REQUEST, 1, 0, [("request", 0)]), None, (1, 1)),
        (STAGE_REQUEST, 1, 1, False, [0, 1], "escalate",
         (STAGE_FULLBLOCK, 0, 0, [("full", 0)]), None, (1, 0)),
        (STAGE_REQUEST, 0, 0, False, [0, GONE], "escalate",
         (STAGE_FULLBLOCK, 0, 0, [("full", 0)]), None, (1, 0)),
        # Full-block rung: the host records both events itself, and a
        # failover restarts the exchange on the root's one stream.
        (STAGE_FULLBLOCK, 0, 1, True, [0, 1], "resend",
         (STAGE_FULLBLOCK, 1, 0, [("full", 0)]), [TIMEOUT, RETRY], (1, 1)),
        (STAGE_FULLBLOCK, 0, 1, False, [0, 1], "resend",
         (STAGE_FULLBLOCK, 1, 0, [("full", 0)]), None, (1, 1)),
        (STAGE_FULLBLOCK, 1, 1, True, [0, 1], "failover",
         (STAGE_ENGINE, 0, 1, [("send", 1, "getdata")]),
         [TIMEOUT, *OPENING], (1, 0)),
        (STAGE_FULLBLOCK, 0, 0, True, [0, 1], "failover",
         (STAGE_ENGINE, 0, 1, [("send", 1, "getdata")]),
         [TIMEOUT, *OPENING], (1, 0)),
        (STAGE_FULLBLOCK, 1, 1, True, [0], "abandon",
         (STAGE_FULLBLOCK, 1, 0, []), [TIMEOUT], (1, 0)),
        (STAGE_FULLBLOCK, 1, 1, True, [0, GONE], "abandon",
         (STAGE_FULLBLOCK, 1, 0, []), [TIMEOUT], (1, 0)),
        (STAGE_FULLBLOCK, 0, 0, False, [0, GONE], "abandon",
         (STAGE_FULLBLOCK, 0, 0, []), None, (1, 0)),
    ]

    @pytest.mark.parametrize(
        "stage,attempts,max_retries,streamed,announcers,"
        "rung,after,recorded,counted", TABLE)
    def test_cell(self, stage, attempts, max_retries, streamed,
                  announcers, rung, after, recorded, counted):
        driver, fetch = _host_at(stage, attempts, max_retries, streamed,
                                 announcers)
        calls, start = len(driver.calls), len(fetch.stream or ())
        timeouts, retries = driver.relay_timeouts, driver.relay_retries
        driver.clock.fire()
        assert driver.calls[calls:] == after[3]
        assert (fetch.stage, fetch.attempts, fetch.peer) == after[:3]
        assert (driver.relay_timeouts - timeouts,
                driver.relay_retries - retries) == counted
        if streamed:
            assert _recorded(fetch.stream[start:]) == recorded
            assert all(e.direction == "sent"
                       for e in fetch.stream[start:] if e.command == "getdata")
        else:
            assert fetch.stream is None and recorded is None
        assert fetch.tried == ({0} if rung in ("failover", "abandon")
                               else set())
        assert driver.finished == ([(None, None, fetch)]
                                   if rung == "abandon" else [])
        assert (fetch.key in driver.host.fetches) == (rung != "abandon")

    def test_failover_skips_tried_announcers_in_arrival_order(self):
        """Rung 3 moves to the first announcer, in arrival order, that
        is alive and not yet tried -- p0 stays alive but is tried, the
        gone one is passed over -- and abandons with none left."""
        driver, fetch = _host_at(STAGE_ENGINE, 0, 0, True, [0, 3, GONE, 1])
        for peer, tried in ((3, {0}), (1, {0, 3})):
            driver.clock.fire()  # escalate
            driver.clock.fire()  # fail over
            assert (fetch.peer, fetch.tried) == (peer, tried)
        driver.clock.fire()
        driver.clock.fire()
        assert fetch.tried == {0, 1, 3}
        assert driver.finished == [(None, None, fetch)]
        assert [call for call in driver.calls if call[0] == "send"] == [
            ("send", 0, "getdata"), ("send", 3, "getdata"),
            ("send", 1, "getdata")]
        assert [mark for mark in driver.marks if mark[0] != "escalate"] == [
            ("failover", {"to": "p3"}), ("failover", {"to": "p1"}),
            ("abandon", {})]

    def test_decode_failed_entry_shares_the_escalation_step(self):
        """A decode failure enters rung 2 without a timeout: nothing more
        is counted as a timeout or retry, the backoff resets, the request
        is anchored, and the next timeout resends on that rung."""
        driver, fetch = _host_at(STAGE_ENGINE, 1, 1, True, [0, 1])
        start = len(fetch.stream)
        driver.host.decode_failed(0, fetch.key)
        assert (fetch.stage, fetch.attempts) == (STAGE_FULLBLOCK, 0)
        assert driver.calls[-1] == ("full", 0)
        assert (driver.relay_failures, driver.relay_timeouts,
                driver.relay_retries) == (1, 1, 1)
        assert _recorded(fetch.stream[start:]) == [ANCHOR]
        driver.clock.fire()
        assert driver.calls[-1] == ("full", 0)
        assert (fetch.stage, fetch.attempts) == (STAGE_FULLBLOCK, 1)
        assert _recorded(fetch.stream[start:]) == [ANCHOR, TIMEOUT, RETRY]
        assert CostBreakdown.from_events(fetch.stream).extra_getdata \
            == 2 * getdata_bytes(0)


class TestCrossDriverParity:
    """One fault schedule, both drivers of the ladder: first announcer
    black-holed on every request command, second healthy."""

    REQUESTS = ("getdata", "graphene_p2_request", "getdata_shortids",
                "getdata_block")
    POLICY = dict(max_retries=1)

    @staticmethod
    def _shape(events):
        return [(e.command, e.outcome, e.phase, dict(e.parts))
                for e in events]

    def _simulated(self):
        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=55)
        sim = Simulator()
        policy = RecoveryPolicy(**self.POLICY)
        dark, bright, leaf = (Node(name, sim, recovery=policy)
                              for name in ("dark", "bright", "leaf"))
        dark.connect(leaf)
        bright.connect(leaf)
        leaf.mempool.add_many(sc.receiver_mempool.transactions())
        # The simulator's full-block request is a getdata too.
        leaf.inject_fault(dark, FaultInjector(
            drop_commands=frozenset(self.REQUESTS)))
        tracer = Tracer(sim).attach(leaf)
        dark.mine_block(sc.block)    # dark's inv is first on the wire
        bright.mine_block(sc.block)
        sim.run()
        root = sc.block.header.merkle_root
        assert root in leaf.blocks
        return list(leaf.relay_telemetry[root]), tracer

    def _socketed(self):
        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=55)
        tracer = Tracer(WallClock())

        async def run():
            dark = BlockServer(sc.block, node_id="dark",
                               drop={c: 10 ** 9 for c in self.REQUESTS})
            bright = BlockServer(sc.block, node_id="bright")
            p1, p2 = await dark.start(), await bright.start()
            leaf = PeerManager(node_id="leaf", mempool=sc.receiver_mempool,
                               policy=RecoveryPolicy(
                                   timeout_base=0.1, backoff=1.5,
                                   **self.POLICY),
                               tracer=tracer)
            try:
                await leaf.connect("127.0.0.1", p1)
                await asyncio.sleep(0.05)  # dark's inv arrives first
                await leaf.connect("127.0.0.1", p2)
                return await leaf.fetch_next(timeout=15)
            finally:
                await leaf.close()
                await dark.close()
                await bright.close()

        return asyncio.run(run()), tracer

    def test_same_stream_same_marks_same_surviving_path(self):
        sim_events, sim_tracer = self._simulated()
        result, socket_tracer = self._socketed()
        assert result.success and result.failovers == 1
        assert self._shape(result.events) == self._shape(sim_events)
        assert [m.name for m in socket_tracer.marks] \
            == [m.name for m in sim_tracer.marks] \
            == ["escalate", "failover", "done"]
        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=55)
        loop = BlockRelaySession().relay(sc.block, sc.receiver_mempool)
        assert [e.as_dict() for e in result.surviving_events] \
            == [e.as_dict() for e in loop.events]
        assert self._shape(sim_events[-len(loop.events):]) \
            == self._shape(loop.events)

    def test_same_marks_same_counts(self):
        """One host, one mark shape: every detail and both ladder
        counts agree across the two clocks, not just the names."""
        sim_events, sim_tracer = self._simulated()
        result, socket_tracer = self._socketed()
        expected = [("escalate", {"why": "timeout", "peer": "dark"}),
                    ("failover", {"to": "bright"}),
                    ("done", {"origin": "bright"})]
        for tracer in (sim_tracer, socket_tracer):
            assert [(m.name, dict(m.detail)) for m in tracer.marks] \
                == expected
        outcomes = [e.outcome for e in sim_events]
        # Two rungs at dark, each one retry plus the timeout past it.
        assert (result.timeouts, result.retries) \
            == (outcomes.count("timeout"), outcomes.count("retry")) \
            == (4, 2)


class TestFullBlockRule:
    """A full block the node lacks is taken from any peer whose body
    hashes to its header's root -- on sockets as in the simulator
    (``TestStaleStateGC::test_block_via_other_path_cancels_recovery``)."""

    def test_unsolicited_block_from_a_second_connection_completes(self):
        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=55)
        root = sc.block.header.merkle_root
        tracer = Tracer(WallClock())

        async def push_block(reader, writer):
            conn = PeerConnection(reader, writer, "pusher")
            await conn.handshake()
            conn.send("block", encode_full_block(sc.block))
            await conn.drain()
            while await conn.read_frame() is not None:
                pass
            await conn.close()

        async def run():
            dark = BlockServer(sc.block, node_id="dark", drop={
                c: 10 ** 9 for c in TestCrossDriverParity.REQUESTS})
            dark_port = await dark.start()
            pusher = await asyncio.start_server(push_block, "127.0.0.1", 0)
            leaf = PeerManager(node_id="leaf", mempool=sc.receiver_mempool,
                               policy=RecoveryPolicy(timeout_base=30.0),
                               tracer=tracer)
            try:
                await leaf.connect("127.0.0.1", dark_port)
                await asyncio.sleep(0.05)  # the fetch opens at dark
                opened = leaf.announced_roots
                await leaf.connect("127.0.0.1",
                                   pusher.sockets[0].getsockname()[1])
                return opened, await leaf.fetch_next(timeout=5), leaf
            finally:
                await leaf.close()
                await dark.close()
                pusher.close()
                await pusher.wait_closed()

        opened, result, leaf = asyncio.run(run())
        assert list(opened) == [root]
        assert result.success and result.block.txids == sc.block.txids
        assert not result.escalated and not result.via_fullblock
        assert result.failovers == 0 and result.timeouts == 0
        assert leaf.pending_fetches == 0 and not leaf.announced_roots
        assert [(m.name, dict(m.detail)) for m in tracer.marks] \
            == [("done", {"origin": "pusher"})]


class TestChaosTopology:
    """Acceptance: 20 Graphene nodes, 5% per-link loss, all converge."""

    def test_twenty_node_lossy_topology_converges(self):
        sc = make_block_scenario(n=200, extra=200, fraction=1.0, seed=42)
        sim = Simulator()
        nodes = [Node(f"n{i:02d}", sim) for i in range(20)]
        connect_random_regular(nodes, degree=4, rng=random.Random(2024),
                               loss_rate=0.05)
        for node in nodes[1:]:
            node.mempool.add_many(sc.receiver_mempool.transactions())
        nodes[0].mine_block(sc.block)
        sim.run(until=120.0)
        root = sc.block.header.merkle_root
        missing = [n.node_id for n in nodes if root not in n.blocks]
        assert missing == []
        # The loss actually bit and recovery visibly repaired it.
        assert sum(n.relay_timeouts for n in nodes) > 0
        recovery_events = [
            e for n in nodes if root in n.relay_telemetry
            for e in n.relay_telemetry[root]
            if e.outcome in ("timeout", "retry")]
        assert recovery_events
        # And nothing was left stranded anywhere.
        assert sum(n.pending_fetches for n in nodes) == 0
        assert sum(len(n.announced_roots) for n in nodes) == 0
