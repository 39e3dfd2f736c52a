"""Protocol 3 end to end: the rateless exchange on every transport.

The tentpole claims, pinned here:

* a Protocol 3 relay decodes every scenario *without a difference
  estimate* -- there is no fallback branch to take, so ``protocol_used``
  stays 3 and no ``p2`` events ever appear;
* the exchange produces byte-identical CostBreakdowns and telemetry
  event streams across all three transports -- loopback, the network
  simulator, and a real localhost TCP socket -- exactly the parity
  contract Protocols 1 and 2 already honor;
* a stalled symbol stream is a timeout like any other: the recovery
  ladder re-emits the continuation request verbatim and the sender
  (whose stream is a pure function of the block) re-serves the same
  window byte-for-byte;
* hostile streams fail *cleanly*: a replayed batch, a desynchronized
  window, or a stream that runs past the receiver's cap all end in
  FAILED, never a wrong block and never an unbounded loop;
* where much of the block is missing the one continuation request
  carries filter R over Z and the answer the transactions that miss it
  (version 3): fewer bytes than the symbols-alone exchange on every
  relay, the same bytes wherever R does not pay, and hostile tails end
  as hostile streams do.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math

import pytest

from repro.chain.block import Block
from repro.chain.scenarios import make_block_scenario, make_sync_scenario
from repro.chain.transaction import TransactionGenerator
from repro.codec import (
    decode_bloom,
    decode_protocol3_request,
    decode_symbol_batch,
    decode_tx_list,
    encode_protocol3_payload,
    encode_protocol3_request,
    encode_symbol_batch,
)
from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
    ReceiverPhase,
    SENDER_STEPS,
)
from repro.core.params import GrapheneConfig
from repro.core.protocol3 import (
    GROWTH,
    MIN_BATCH,
    OVERHEAD,
    SEED_R,
    STREAM_CAP_FACTOR,
    SymbolBatch,
    begin_protocol3,
    build_protocol3,
    finish_protocol3,
    first_batch_size,
    ingest_symbols,
    next_batch_size,
    sender_stream_cap,
)
from repro.core.session import BlockRelaySession
from repro.core.sizing import (
    CostBreakdown,
    getdata_bytes,
    inv_bytes,
    p3_request_bytes,
    short_id_request_bytes,
)
from repro.errors import ParameterError, ProtocolFailure
from repro.pds.bloom import BloomFilter
from repro.pds.riblt import RIBLTEncoder, symbol_stream_bytes
from repro.net.host import RecoveryPolicy
from repro.net.node import Node
from repro.net.peer import BlockServer, fetch_block
from repro.net.simulator import Link, Simulator
from repro.net.transport import LoopbackTransport

CFG = GrapheneConfig(protocol=3)

#: Small timeouts so ladder tests stall in milliseconds, not seconds.
FAST = dict(timeout_base=0.15, backoff=1.5)


def _relay(scenario, config=CFG):
    return BlockRelaySession(config).relay(scenario.block,
                                           scenario.receiver_mempool)


class TestLoopbackRelay:
    @pytest.mark.parametrize("fraction,extra", [
        (1.0, 0), (1.0, 100), (0.98, 100), (0.9, 200), (0.75, 50),
    ])
    def test_decodes_without_estimate(self, fraction, extra):
        sc = make_block_scenario(n=150, extra=extra, fraction=fraction,
                                 seed=31)
        out = _relay(sc)
        assert out.success
        assert out.protocol_used == 3
        assert [tx.txid for tx in out.txs] == list(sc.block.txids)
        # The deleted failure branch: no P2 phase, no fallback outcome.
        assert all(e.phase != "p2" for e in out.events)
        assert all(e.outcome != "fallback" for e in out.events)

    def test_single_roundtrip_when_synced(self):
        sc = make_block_scenario(n=200, extra=120, fraction=1.0, seed=8)
        out = _relay(sc)
        assert out.success and out.roundtrips == 1.5
        assert out.cost.riblt > 0 and out.cost.iblt_i == 0

    def test_missing_txs_fetched_not_escalated(self):
        sc = make_block_scenario(n=200, extra=100, fraction=0.95, seed=9)
        out = _relay(sc)
        assert out.success and out.protocol_used == 3
        assert out.fetched_count == len(sc.missing)
        assert out.cost.fetched_tx_bytes > 0

    def test_tiny_block(self):
        sc = make_block_scenario(n=1, extra=5, fraction=1.0, seed=2)
        out = _relay(sc)
        assert out.success and out.roundtrips == 1.5

    def test_mempool_mode_sync(self):
        sc = make_sync_scenario(300, 0.9, seed=3)
        sender = GrapheneSenderEngine(txs=sc.sender_mempool.transactions(),
                                      config=CFG)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool, CFG,
                                          mode="mempool")
        final = LoopbackTransport(sender, receiver).run()
        assert final.kind is ActionKind.DONE
        got = {tx.txid for tx in receiver.reconciled}
        want = {tx.txid for tx in sc.sender_mempool}
        assert got == want


class TestTransportParity:
    """One scenario, three transports, identical analytic bytes."""

    def _scenario(self):
        return make_block_scenario(n=150, extra=150, fraction=0.96,
                                   seed=21)

    def test_socket_matches_loopback(self):
        sc = self._scenario()

        async def run():
            server = BlockServer(sc.block, CFG)
            port = await server.start()
            try:
                return await fetch_block("127.0.0.1", port,
                                         sc.receiver_mempool, CFG)
            finally:
                await server.close()

        result = asyncio.run(run())
        assert result.success and result.protocol_used == 3

        loop = _relay(self._scenario())
        assert json.dumps(result.cost.as_dict(), sort_keys=True) \
            == json.dumps(loop.cost.as_dict(), sort_keys=True)
        assert json.dumps([e.as_dict() for e in result.events]) \
            == json.dumps([e.as_dict() for e in loop.events])

    def test_simulator_matches_loopback(self):
        sc = self._scenario()
        sim = Simulator()
        a = Node("a", sim, config=CFG)
        b = Node("b", sim, config=CFG)
        a.connect(b, Link(latency=0.01, bandwidth=10_000_000))
        a.mempool.add_many(sc.block.txs)
        b.mempool.add_many(sc.receiver_mempool.transactions())
        a.mine_block(sc.block)
        sim.run()
        root = sc.block.header.merkle_root
        assert root in b.blocks
        assert b.blocks[root].txids == sc.block.txids

        sim_cost = CostBreakdown.from_events(b.relay_telemetry[root])
        loop = _relay(self._scenario())
        assert json.dumps(sim_cost.as_dict(), sort_keys=True) \
            == json.dumps(loop.cost.as_dict(), sort_keys=True)


    @pytest.mark.parametrize("fraction", [0.8, 0.95])
    def test_tailed_messages_match_on_every_transport(self, fraction):
        """Filter R in the request and the pushed list in the answer:
        loopback = simulator = socket, event for event -- and a lost
        ``graphene_p3_request``, re-emitted by the ladder, is served the
        identical answer."""
        def scenario():
            return make_block_scenario(n=200, extra=200, fraction=fraction,
                                       seed=11)

        loop = _relay(scenario())
        assert loop.success and loop.cost.bloom_r and loop.cost.pushed_tx_bytes
        want = json.dumps([e.as_dict() for e in loop.events])

        sc = scenario()
        sim = Simulator()
        a = Node("a", sim, config=CFG)
        b = Node("b", sim, config=CFG)
        a.connect(b, Link(latency=0.01, bandwidth=10_000_000))
        a.mempool.add_many(sc.block.txs)
        b.mempool.add_many(sc.receiver_mempool.transactions())
        a.mine_block(sc.block)
        sim.run()
        root = sc.block.header.merkle_root
        assert b.blocks[root].txids == sc.block.txids
        assert json.dumps([e.as_dict()
                           for e in b.relay_telemetry[root]]) == want

        async def fetch(drop):
            sc = scenario()
            server = BlockServer(sc.block, CFG, drop=drop)
            port = await server.start()
            try:
                return await fetch_block(
                    "127.0.0.1", port, sc.receiver_mempool, CFG,
                    policy=RecoveryPolicy(**FAST))
            finally:
                await server.close()

        result = asyncio.run(fetch(None))
        assert result.success and result.protocol_used == 3
        assert json.dumps([e.as_dict() for e in result.events]) == want

        lossy = asyncio.run(fetch({"graphene_p3_request": 1}))
        assert lossy.success and not lossy.escalated
        assert lossy.timeouts == 1 and lossy.retries == 1
        assert lossy.block.txids == sc.block.txids
        # Apart from the timeout mark and the retry, the same stream:
        # the second copy of the request drew the same answer.
        settled = [e.as_dict() for e in lossy.events
                   if e.outcome not in ("timeout", "retry")]
        assert json.dumps(settled) == want
        retry, = [e for e in lossy.events if e.outcome == "retry"]
        assert retry.command == "graphene_p3_request" \
            and retry.parts["bloom_r"] == loop.cost.bloom_r


def _pump(scenario, config=CFG):
    """One loopback relay by hand; returns ``(final action, receiver,
    requests)`` with every continuation request as ``(start, count,
    cap)``."""
    sender = GrapheneSenderEngine(scenario.block, config)
    receiver = GrapheneReceiverEngine(scenario.receiver_mempool, config)
    action = receiver.start()
    requests = []
    while action.kind is ActionKind.SEND:
        if action.command == "graphene_p3_request":
            start, count, _ = decode_protocol3_request(action.message)
            requests.append((start, count, receiver._p3_state.cap))
        side = sender if action.command in SENDER_STEPS else receiver
        action = side.handle(action.command, action.message)
    return action, receiver, requests


class TestOneContinuation:
    """The receiver sizes its continuation from the sweep: d = n - z + 2y
    is an identity and y <= a* with beta-assurance, so one request
    almost always finishes the stream."""

    def test_target_is_the_identity_at_the_fp_bound(self):
        sc = make_block_scenario(n=2000, extra=2000, fraction=0.95, seed=7)
        payload, _ = build_protocol3(sc.block.txs, len(sc.receiver_mempool),
                                     CFG)
        state = begin_protocol3(payload, sc.receiver_mempool, CFG)
        z = len(state.candidate_set)
        assert state.target == math.ceil(
            OVERHEAD * (payload.n - z + 2 * payload.recover))
        # The bound it stands on: what S let through beyond the block.
        held = len(sc.block.txs) - len(sc.missing)
        assert z - held <= payload.recover
        d = len(sc.missing) + (z - held)
        assert OVERHEAD * d <= state.target

    def test_one_request_finishes_the_benchmark_cell(self):
        """Seeded pin: 100 relays at (2 000, 2 000, 0.95), the shape
        ``rateless_p3_2000`` times.  All complete; at least 95 send at
        most one continuation request (98 measured; 0 at the parent,
        whose half-growth schedule takes three or four).  (Under either
        schedule a relay in a few thousand peels a key twice on a
        16-bit checksum coincidence and fails -- seed 40 049 does; the
        hundred below hold none.)"""
        one_or_none = 0
        for seed in range(100):
            sc = make_block_scenario(n=2000, extra=2000, fraction=0.95,
                                     seed=41_000 + seed)
            final, receiver, requests = _pump(sc)
            assert final.kind is ActionKind.DONE
            assert [tx.txid for tx in final.txs] == list(sc.block.txids)
            one_or_none += len(requests) <= 1
        assert one_or_none >= 95, one_or_none

    @pytest.mark.parametrize("n,fraction", [(2000, 0.8), (2000, 0.2),
                                            (200, 0.95), (200, 0.2)])
    def test_requests_stay_inside_both_fences(self, n, fraction):
        sc = make_block_scenario(n=n, extra=n, fraction=fraction, seed=11)
        final, receiver, requests = _pump(sc)
        assert final.kind is ActionKind.DONE and receiver.protocol_used == 3
        assert [tx.txid for tx in final.txs] == list(sc.block.txids)
        assert requests, "scenario must need a continuation round"
        for start, count, cap in requests:
            assert 1 <= count <= min(cap - start, 0xFFFF)
        # The sweep said how much was missing, so the stream is not
        # sipped: two requests at the very most.
        assert len(requests) <= 2

    @pytest.mark.parametrize("field,rounds", [("recover", None), ("n", 3)])
    def test_hostile_announcement_cannot_widen_a_request(self, field, rounds):
        """An opening announcing n = 10^7 or recover = 10^7 over a tiny
        S raises ``target`` as far as it likes; every request still
        sits inside ``cap - start`` and the u16 frame, and a stream that
        never decodes still ends at the cap.  (Announcing n also raises
        the cap -- to 8 * 10^7 symbols, which only a sender willing to
        ship 1.1 GB reaches -- so that case checks the first requests.)"""
        sc = make_block_scenario(n=12, extra=12, fraction=0.5, seed=3)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool, CFG)
        receiver.start()
        payload, _ = build_protocol3(sc.block.txs, len(sc.receiver_mempool),
                                     CFG)
        forged = dataclasses.replace(payload, **{field: 10 ** 7})
        action = receiver.handle(
            "graphene_p3_block",
            sc.block.header.serialize() + encode_protocol3_payload(forged))
        cap = receiver._p3_state.cap
        assert receiver._p3_state.target > 10 ** 7
        served = 0
        while action.kind is ActionKind.SEND and served != rounds:
            assert action.command == "graphene_p3_request"
            start, count, _ = decode_protocol3_request(action.message)
            assert start == receiver.p3_symbols
            assert 1 <= count <= min(cap - start, 0xFFFF)
            garbage = SymbolBatch(start=start, counts=[7] * count,
                                  key_sums=[0xDEAD] * count,
                                  check_sums=[1] * count)
            action = receiver.handle("graphene_p3_symbols",
                                     encode_symbol_batch(garbage))
            served += 1
        if rounds is None:
            assert action.kind is ActionKind.FAILED
            assert receiver.p3_symbols == cap
        else:
            assert count == 0xFFFF and action.kind is ActionKind.SEND


def _version2_flow(scenario):
    """Bytes, continuation requests and round trips of the version-2
    exchange on ``scenario`` -- symbols alone, no filter R -- computed
    from the public functions and the analytic message sizes.  (On the
    hundred pinned seeds below it equals the parent commit's relay byte
    for byte.)"""
    m = len(scenario.receiver_mempool)
    payload, stream = build_protocol3(scenario.block.columns, m, CFG)
    state = begin_protocol3(payload, scenario.receiver_mempool, CFG)
    total = inv_bytes() + getdata_bytes(m) + 1 + payload.wire_size()
    requests = 0
    while not state.decoder.complete:
        start = state.symbols
        count = min(next_batch_size(start, state.target), state.cap - start)
        ingest_symbols(state, SymbolBatch(start,
                                          *stream.window(start, count)))
        total += p3_request_bytes() + symbol_stream_bytes(count)
        requests += 1
    missing = finish_protocol3(state, CFG).missing_short_ids
    total += short_id_request_bytes(len(missing))
    return total, requests, 1 + requests + bool(missing)


def _round_trips(events) -> float:
    return sum(1 for e in events
               if e.command != "inv" and e.outcome != "timeout") / 2


class TestFilterR:
    """The one continuation names what it can before it codes what it
    must: R over Z in the request, the transactions that miss it in the
    answer, subtracted out of the symbols already held."""

    def test_the_benchmark_cell_is_pinned(self):
        """Seeded pin: the hundred ``(2000, 2000, 0.95)`` relays of
        ``TestOneContinuation``.  All complete, every one in exactly one
        continuation and three round trips, none spends more than the
        version-2 exchange on the same inputs, and the mean lands in
        5 152 +- 25 bytes (5 151.6 measured; version 2: 6 373.4)."""
        total = 0
        for seed in range(100):
            sc = make_block_scenario(n=2000, extra=2000, fraction=0.95,
                                     seed=41_000 + seed)
            final, receiver, requests = _pump(sc)
            assert final.kind is ActionKind.DONE
            assert [tx.txid for tx in final.txs] == list(sc.block.txids)
            assert len(requests) == 1
            cost = CostBreakdown.from_events(receiver.telemetry)
            old_bytes, _, old_trips = _version2_flow(sc)
            assert cost.total() <= old_bytes, seed
            assert _round_trips(receiver.telemetry) == 3 <= old_trips
            assert cost.bloom_r and cost.pushed_tx_bytes
            assert receiver.fetched_count < len(sc.missing)
            total += cost.total()
        assert 5127 <= total / 100 <= 5177, total / 100

    @pytest.mark.parametrize("n", [200, 2000])
    @pytest.mark.parametrize("fraction", [0.95, 0.8, 0.5])
    def test_r_rides_where_much_is_missing(self, n, fraction):
        sc = make_block_scenario(n=n, extra=n, fraction=fraction, seed=11)
        final, receiver, requests = _pump(sc)
        assert final.kind is ActionKind.DONE
        assert [tx.txid for tx in final.txs] == list(sc.block.txids)
        state = receiver._p3_state
        assert 0 < state.fpr_r < 1 and len(requests) == 1
        cost = CostBreakdown.from_events(receiver.telemetry)
        old_bytes, _, old_trips = _version2_flow(sc)
        assert cost.bloom_r > 0 and cost.total() < old_bytes
        assert _round_trips(receiver.telemetry) <= old_trips
        # Pushed and fetched partition what was missing: R's misses came
        # with the window, only its false positives are asked for.
        assert len(state.pushed) + receiver.fetched_count \
            == len(sc.missing)
        assert receiver.fetched_count < len(sc.missing) / 2
        # The window aims at what R cannot name, not at the difference.
        assert state.target_r < state.target

    @pytest.mark.parametrize("n", [200, 2000])
    @pytest.mark.parametrize("fraction", [1.0, 0.99])
    def test_r_stays_home_where_little_is(self, n, fraction):
        """No R: the exchange is version 2's, byte for byte."""
        for seed in (11, 12, 13):
            sc = make_block_scenario(n=n, extra=n, fraction=fraction,
                                     seed=seed)
            final, receiver, requests = _pump(sc)
            assert final.kind is ActionKind.DONE
            assert receiver._p3_state.fpr_r == 0
            cost = CostBreakdown.from_events(receiver.telemetry)
            assert cost.bloom_r == 0 and cost.pushed_tx_bytes == 0
            old_bytes, old_requests, old_trips = _version2_flow(sc)
            assert (cost.total(), len(requests),
                    _round_trips(receiver.telemetry)) \
                == (old_bytes, old_requests, old_trips)
            for event in receiver.telemetry:
                if event.command == "graphene_p3_request":
                    assert event.parts == {"getdata": p3_request_bytes()}

    @pytest.mark.parametrize("n", [200, 2000])
    @pytest.mark.parametrize("fraction", [0.2, 0.6, 0.95])
    def test_r_stays_home_on_mempool_sync(self, n, fraction):
        """z = n on Fig. 18's grid (S is degenerate at m = n), so the
        floor on what is missing is zero and R never pays: the sync rows
        of BENCH_P3.json stay where they are."""
        sc = make_sync_scenario(n, fraction, seed=11)
        payload, _ = build_protocol3(sc.sender_mempool.columns(),
                                     len(sc.receiver_mempool), CFG,
                                     prefill=())
        state = begin_protocol3(payload, sc.receiver_mempool, CFG)
        assert state.fpr_r == 0 and state.target_r == 0

    def test_a_sender_that_ignores_the_tail_costs_rounds_not_failure(self):
        """A version-2 sender answers the window and nothing else; the
        sweep's target still stands and the exchange completes."""
        sc = make_block_scenario(n=2000, extra=2000, fraction=0.8, seed=11)
        sender = GrapheneSenderEngine(sc.block, CFG)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool, CFG)
        action, requests = receiver.start(), []
        while action.kind is ActionKind.SEND:
            message = action.message
            if action.command == "graphene_p3_request":
                start, count, offset = decode_protocol3_request(message)
                requests.append((start, count, offset < len(message)))
                message = message[:offset]      # what version 2 parses
            side = sender if action.command in SENDER_STEPS else receiver
            action = side.handle(action.command, message)
        assert action.kind is ActionKind.DONE
        assert [tx.txid for tx in action.txs] == list(sc.block.txids)
        state = receiver._p3_state
        assert requests[0][2] and not any(r[2] for r in requests[1:])
        assert state.pushed == {} and 2 <= len(requests) <= 3
        assert requests[1][0] + requests[1][1] == state.target
        assert receiver.fetched_count == len(sc.missing)


class TestRecoveryLadder:
    """A stalled stream is a timeout; re-serving is byte-stable."""

    def test_dropped_continuation_is_retransmitted(self):
        sc = make_block_scenario(n=150, extra=150, fraction=0.9, seed=17)

        async def run():
            server = BlockServer(sc.block, CFG,
                                 drop={"graphene_p3_request": 1})
            port = await server.start()
            try:
                return await fetch_block(
                    "127.0.0.1", port, sc.receiver_mempool, CFG,
                    policy=RecoveryPolicy(**FAST))
            finally:
                await server.close()

        result = asyncio.run(run())
        assert result.success and not result.escalated
        assert result.timeouts == 1 and result.retries == 1
        assert result.block.txids == sc.block.txids
        outcomes = [e.outcome for e in result.events]
        assert "timeout" in outcomes and "retry" in outcomes

    def test_blackholed_stream_escalates_to_full_block(self):
        sc = make_block_scenario(n=120, extra=120, fraction=0.9, seed=18)

        async def run():
            server = BlockServer(sc.block, CFG,
                                 drop={"graphene_p3_request": 10 ** 9})
            port = await server.start()
            try:
                return await fetch_block(
                    "127.0.0.1", port, sc.receiver_mempool, CFG,
                    policy=RecoveryPolicy(max_retries=1, **FAST))
            finally:
                await server.close()

        result = asyncio.run(run())
        assert result.success and result.escalated
        assert result.via_fullblock
        assert result.block.txids == sc.block.txids


class TestHostileStreams:
    """Malformed streams end in clean failure, never a wrong block."""

    def _pair(self, seed=23):
        sc = make_block_scenario(n=100, extra=100, fraction=0.5,
                                 seed=seed)
        sender = GrapheneSenderEngine(sc.block, CFG)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool, CFG)
        opening = sender.handle("getdata", receiver.start().message)
        return sc, sender, receiver, opening

    def test_desynchronized_batch_rejected(self):
        _, sender, receiver, opening = self._pair()
        action = receiver.handle(opening.command, opening.message)
        assert receiver.phase is ReceiverPhase.WAIT_P3_SYMBOLS, \
            "scenario must need a continuation round"
        from repro.codec import decode_protocol3_request, \
            encode_protocol3_request

        start, count, _ = decode_protocol3_request(action.message)
        stale = sender.handle("graphene_p3_request",
                              encode_protocol3_request(start + 1, count))
        with pytest.raises(ParameterError):
            receiver.handle("graphene_p3_symbols", stale.message)

    def test_zeroed_stream_fails_not_wrong_block(self):
        """All-zero symbols claim 'nothing differs'; the n-consistency
        guard must turn that into FAILED, not a silently wrong block."""
        sc, sender, receiver, opening = self._pair(seed=29)
        from repro.codec import encode_protocol3_payload
        from repro.core.protocol3 import build_protocol3

        payload, _ = build_protocol3(list(sc.block.txs),
                                     len(sc.receiver_mempool), CFG)
        zeros = SymbolBatch(start=0,
                            counts=[0] * len(payload.symbols),
                            key_sums=[0] * len(payload.symbols),
                            check_sums=[0] * len(payload.symbols))
        forged = type(payload)(n=payload.n, bloom_s=payload.bloom_s,
                               symbols=zeros, recover=payload.recover,
                               plan=payload.plan,
                               prefilled=payload.prefilled)
        blob = sc.block.header.serialize() \
            + encode_protocol3_payload(forged)
        action = receiver.handle("graphene_p3_block", blob)
        # Either the guard fires immediately (FAILED) or the receiver
        # asks for more symbols -- it must never return DONE.
        assert action.kind is not ActionKind.DONE

    def test_stream_cap_bounds_hostile_exchange(self):
        """A sender that never lets the decode finish cannot drag the
        receiver past its symbol cap."""
        sc = make_block_scenario(n=60, extra=60, fraction=0.5, seed=5)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool, CFG)
        sender = GrapheneSenderEngine(sc.block, CFG)
        opening = sender.handle("getdata", receiver.start().message)
        action = receiver.handle(opening.command, opening.message)
        assert action.command == "graphene_p3_request", \
            "scenario must need a continuation round"
        steps = 0
        from repro.codec import decode_protocol3_request

        while action.kind is ActionKind.SEND \
                and action.command == "graphene_p3_request":
            steps += 1
            assert steps < 200, "receiver never gave up"
            start, count, _ = decode_protocol3_request(action.message)
            garbage = SymbolBatch(
                start=start,
                counts=[7] * count,
                key_sums=[0xDEAD] * count,
                check_sums=[1] * count)
            from repro.codec import encode_symbol_batch

            try:
                action = receiver.handle("graphene_p3_symbols",
                                         encode_symbol_batch(garbage))
            except (ParameterError, ProtocolFailure):
                return  # rejected outright: also a clean ending
        assert action.kind is ActionKind.FAILED

    def test_opening_that_fills_the_cap_fails_at_once(self):
        """An opening already carrying ``cap`` symbols leaves nothing to
        ask for: the receiver must fail there and then, not send a
        ``count=0`` request and wait a round trip for an empty batch."""
        sc = make_block_scenario(n=20, extra=20, fraction=1.0, seed=4)
        payload, _ = build_protocol3(sc.block.txs, len(sc.receiver_mempool),
                                     CFG)
        cap = begin_protocol3(payload, sc.receiver_mempool, CFG).cap
        junk = SymbolBatch(start=0, counts=[7] * cap,
                           key_sums=[0xDEAD] * cap, check_sums=[1] * cap)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool, CFG)
        receiver.start()
        action = receiver.handle(
            "graphene_p3_block", sc.block.header.serialize()
            + encode_protocol3_payload(
                dataclasses.replace(payload, symbols=junk)))
        assert action.kind is ActionKind.FAILED
        assert receiver.p3_symbols == cap
        assert [e.outcome for e in receiver.telemetry
                if e.command == "graphene_p3_block"] == ["failed"]
        assert all(e.command != "graphene_p3_request"
                   for e in receiver.telemetry)

    def test_sender_refuses_window_beyond_cap(self):
        sc = make_block_scenario(n=30, extra=0, fraction=1.0, seed=1)
        sender = GrapheneSenderEngine(sc.block, CFG)
        from repro.codec import encode_protocol3_request

        cap = sender_stream_cap(30)
        with pytest.raises(ParameterError):
            sender.handle("graphene_p3_request",
                          encode_protocol3_request(cap, 100))


class TestStreamCap:
    """The receiver's symbol cap is ``8 * max(16, n + z)`` (PROTOCOL.md
    §2.6): a batch that ends on it is read, one symbol longer is refused
    before any of it is."""

    def _begun(self, n):
        sc = make_block_scenario(n=n, extra=n, fraction=0.5, seed=41)
        payload, encoder = build_protocol3(sc.block.txs,
                                           len(sc.receiver_mempool), CFG)
        return payload, encoder, begin_protocol3(payload,
                                                 sc.receiver_mempool, CFG)

    @pytest.mark.parametrize("n,floored", [(4, True), (300, False)])
    def test_cap_is_eight_times_the_union_bound(self, n, floored):
        payload, _, state = self._begun(n)
        union = payload.n + len(state.candidate_set)
        assert (union < 16) is floored
        assert state.cap == STREAM_CAP_FACTOR * max(16, union) \
            == 8 * max(16, union)

    @pytest.mark.parametrize("n", [4, 300])
    def test_a_batch_may_end_on_the_cap(self, n):
        _, encoder, state = self._begun(n)
        start = state.symbols
        ingest_symbols(state, SymbolBatch(
            start, *encoder.window(start, state.cap - start)))
        assert state.symbols == state.cap

    @pytest.mark.parametrize("n", [4, 300])
    def test_one_symbol_past_the_cap_is_refused(self, n):
        _, encoder, state = self._begun(n)
        start = state.symbols
        with pytest.raises(ParameterError, match="exceeds cap"):
            ingest_symbols(state, SymbolBatch(
                start, *encoder.window(start, state.cap - start + 1)))
        assert state.symbols == start


class TestHostileTails:
    """Filter R and the pushed list are attacker-controlled bytes too."""

    def _to_continuation(self, fraction=0.8, seed=11, n=200):
        """An exchange pumped up to the R-bearing request."""
        sc = make_block_scenario(n=n, extra=n, fraction=fraction, seed=seed)
        sender = GrapheneSenderEngine(sc.block, CFG)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool, CFG)
        opening = sender.handle("getdata", receiver.start().message)
        request = receiver.handle(opening.command, opening.message)
        assert request.command == "graphene_p3_request"
        return sc, sender, receiver, request

    def _finish(self, sender, receiver, action):
        steps = 0
        while action.kind is ActionKind.SEND:
            steps += 1
            assert steps < 200, "exchange never ended"
            side = sender if action.command in SENDER_STEPS else receiver
            action = side.handle(action.command, action.message)
        return action

    @pytest.mark.parametrize("fill,pushed", [(0xFF, 0), (0x00, 200)],
                             ids=["all-ones", "all-zeros"])
    def test_degenerate_r_pushes_nothing_or_the_block(self, fill, pushed):
        sc, sender, receiver, request = self._to_continuation()
        start, count, offset = decode_protocol3_request(request.message)
        bloom_r, _ = decode_bloom(request.message, offset)
        bloom_r._bits[:] = bytes([fill]) * len(bloom_r._bits)
        answer = sender.handle(
            "graphene_p3_request",
            encode_protocol3_request(start, count, bloom_r))
        batch, offset = decode_symbol_batch(answer.message)
        txs, offset = decode_tx_list(answer.message, offset)
        assert len(batch) == count and offset == len(answer.message)
        # The whole block at the very most, and nothing but the block.
        assert len(txs) == pushed <= sc.block.n
        assert {tx.txid for tx in txs} <= set(sc.block.txids)
        assert answer.event.parts["pushed_tx_bytes"] \
            == sum(tx.size for tx in txs)
        final = self._finish(sender, receiver, receiver.handle(
            answer.command, answer.message))
        assert final.kind is ActionKind.DONE
        assert [tx.txid for tx in final.txs] == list(sc.block.txids)

    @pytest.mark.parametrize("tail", [
        b"\x01",                                   # header cut short
        (1 << 20).to_bytes(4, "little") + b"\x03" + bytes(4) + bytes(64),
        (0xFFFFFFFF).to_bytes(4, "little") + b"\x01" + bytes(4),
        bytes(4) + b"\x00" + bytes(4),              # k = 0
    ], ids=["truncated", "short-bits", "oversized", "no-hashes"])
    def test_sender_rejects_a_malformed_r(self, tail):
        _, sender, _, request = self._to_continuation()
        with pytest.raises(ParameterError):
            sender.handle("graphene_p3_request", request.message[:6] + tail)

    def test_pushed_strangers_end_the_exchange(self):
        """Transactions that are not the block's leave a residual the
        stream never zeroes: the exchange fails (here as soon as one of
        them peels a second time), within the cap and holding no more
        than it was sent."""
        sc, sender, receiver, request = self._to_continuation()
        honest = sender.handle(request.command, request.message)
        batch, offset = decode_symbol_batch(honest.message)
        pushed, _ = decode_tx_list(honest.message, offset)
        strangers = TransactionGenerator(seed=99).make_batch(30)
        action = receiver.handle("graphene_p3_symbols", encode_symbol_batch(
            batch, list(pushed) + strangers))
        final = self._finish(sender, receiver, action)
        assert final.kind is ActionKind.FAILED
        state = receiver._p3_state
        assert state.symbols <= state.cap
        assert len(state.pushed) <= len(pushed) + len(strangers)

    def test_more_pushed_than_the_block_is_refused(self):
        sc, sender, receiver, request = self._to_continuation()
        honest = sender.handle(request.command, request.message)
        batch, _ = decode_symbol_batch(honest.message)
        flood = TransactionGenerator(seed=7).make_batch(sc.block.n + 1)
        with pytest.raises(ParameterError):
            receiver.handle("graphene_p3_symbols",
                            encode_symbol_batch(batch, flood))
        assert receiver._p3_state.pushed == {}

    def test_pushed_duplicates_of_z_are_ignored(self):
        """R has no false negatives, so an honest sender never pushes
        what Z holds; one that does, or repeats itself, changes nothing."""
        sc, sender, receiver, request = self._to_continuation()
        honest = sender.handle(request.command, request.message)
        batch, offset = decode_symbol_batch(honest.message)
        pushed, _ = decode_tx_list(honest.message, offset)
        held = [tx for tx in sc.block.txs
                if tx.txid in sc.receiver_mempool][:25]
        action = receiver.handle("graphene_p3_symbols", encode_symbol_batch(
            batch, held + list(pushed) + list(pushed[:5])))
        assert set(receiver._p3_state.pushed) \
            == {tx.short_id() for tx in pushed}
        final = self._finish(sender, receiver, action)
        assert final.kind is ActionKind.DONE
        assert [tx.txid for tx in final.txs] == list(sc.block.txids)

    def test_an_unasked_tail_is_not_read(self):
        """A tx list behind an opening, or behind a window whose request
        carried no R, is what a version-2 parser sees: nothing."""
        strangers = encode_symbol_batch(
            SymbolBatch(0, [], [], []),
            TransactionGenerator(seed=5).make_batch(9))[6:]
        sc = make_block_scenario(n=200, extra=200, fraction=1.0, seed=11)
        sender = GrapheneSenderEngine(sc.block, CFG)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool, CFG)
        opening = sender.handle("getdata", receiver.start().message)
        final = receiver.handle(opening.command,
                                opening.message + strangers)
        assert final.kind is ActionKind.DONE and receiver.roundtrips == 1.5

        sc = make_block_scenario(n=2000, extra=2000, fraction=0.99, seed=11)
        sender = GrapheneSenderEngine(sc.block, CFG)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool, CFG)
        opening = sender.handle("getdata", receiver.start().message)
        request = receiver.handle(opening.command, opening.message)
        assert request.command == "graphene_p3_request" \
            and len(request.message) == 6
        answer = sender.handle(request.command, request.message)
        action = receiver.handle(answer.command, answer.message + strangers)
        assert receiver._p3_state.pushed is None
        final = self._finish(sender, receiver, action)
        assert final.kind is ActionKind.DONE
        cost = CostBreakdown.from_events(receiver.telemetry)
        assert cost.total() == _version2_flow(sc)[0]

    @pytest.mark.parametrize("width", [6, 8])
    def test_a_key_wider_than_a_short_id_fails_cleanly(self, width):
        """An opening whose stream carries one key >= 2^48 (and announces
        n + 1) peels complete and passes settle's arithmetic.  At width
        6 no short ID can equal that key: a malformed decode, FAILED at
        the one place the request is built -- not an ``OverflowError``
        out of ``int.to_bytes``.  At width 8 it is a short ID like any
        other: asked for, never delivered, and the Merkle root judges
        what the receiver holds."""
        config = GrapheneConfig(short_id_bytes=width, protocol=3)
        sc = make_block_scenario(n=40, extra=40, fraction=1.0, seed=6)
        payload, _ = build_protocol3(sc.block.txs, len(sc.receiver_mempool),
                                     config)
        keys = sc.block.columns.short_ids(width).tolist() + [(1 << 50) | 5]
        forged_stream = RIBLTEncoder(keys, seed=config.seed ^ SEED_R)
        forged = dataclasses.replace(
            payload, n=payload.n + 1, symbols=SymbolBatch(
                0, *forged_stream.window(0, len(payload.symbols))))
        sender = GrapheneSenderEngine(sc.block, config)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool, config)
        receiver.start()
        action = receiver.handle(
            "graphene_p3_block",
            sc.block.header.serialize() + encode_protocol3_payload(forged))
        assert receiver._p3_state.decoder.complete
        if width == 6:
            assert action.kind is ActionKind.FAILED
            assert receiver.phase is ReceiverPhase.FAILED
            assert all(e.command != "getdata_shortids"
                       for e in receiver.telemetry)
        else:
            assert action.command == "getdata_shortids"
            final = self._finish(sender, receiver, action)
            assert final.kind is ActionKind.DONE
            assert [tx.txid for tx in final.txs] == list(sc.block.txids)


class TestBatchSizing:
    def test_first_batch_floor(self):
        assert first_batch_size(0) >= 4
        assert first_batch_size(10) >= 14  # ceil(1.35 * 10)

    def test_continuation_grows_geometrically(self):
        assert next_batch_size(100) == 50
        assert next_batch_size(2) == 4  # floor

    @pytest.mark.parametrize("streamed,target,want", [
        (100, 0, 50),      # no target: half-growth, as before
        (49, 206, 157),    # the benchmark cell: one request to the target
        (100, 120, 50),    # a target nearly met never shrinks the window
        (300, 206, 150),   # ... nor does one already passed
        (2, 5, 4),         # MIN_BATCH still floors both
        (0, 3, 4),
        (4, 10 ** 9, 10 ** 9 - 4),   # fenced by the caller, not here
    ])
    def test_target_only_raises_a_request(self, streamed, target, want):
        got = next_batch_size(streamed, target)
        assert got == want
        assert got >= next_batch_size(streamed) >= MIN_BATCH
        assert got >= math.ceil(streamed * GROWTH)
        assert streamed + got >= target

    def test_sender_cap_scales_with_keys(self):
        assert sender_stream_cap(10) == 1 << 16
        assert sender_stream_cap(1 << 20) == 32 << 20
