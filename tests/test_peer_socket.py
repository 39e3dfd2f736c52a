"""The asyncio peer stack: handshake, byte parity, recovery ladder.

The tentpole claim: a block relayed over a real localhost TCP socket
produces a CostBreakdown and telemetry event stream *byte-identical*
to the LoopbackTransport run of the same scenario (same seed, same
mempools).  Only the engines append telemetry -- handshake and inv
frames add nothing -- so parity holds by construction, and these tests
pin it for both the Protocol 1 and the full P2-fallback paths.

The ladder tests drive the client's asyncio-mapped recovery rungs with
the server's deterministic ``drop`` knob instead of a lossy network:
re-emit with backoff (outcome="timeout"/"retry" telemetry), escalate
to a full-block fetch, abandon when a single peer is exhausted.
"""

from __future__ import annotations

import asyncio
import json
import logging
import struct

import pytest

from repro.chain.scenarios import make_block_scenario
from repro.core.session import BlockRelaySession
from repro.core.sizing import CostBreakdown
from repro.errors import ParameterError, ProtocolFailure
from repro.net.host import RecoveryPolicy
from repro.net.peer import (
    AsyncioTransport,
    BlockServer,
    PROTOCOL_VERSION,
    PeerConnection,
    derive_sync_nonce,
    encode_inv,
    encode_version,
    fetch_block,
    split_keyed,
)
from repro.net.transport import LoopbackTransport
from repro.core.engine import (
    ActionKind,
    EngineAction,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
)
from repro.obs import Tracer, WallClock

#: Small timeouts so ladder tests stall in milliseconds, not seconds.
FAST = dict(timeout_base=0.15, backoff=1.5)


async def _serve_and_fetch(scenario, drop=None, policy=None, tracer=None):
    server = BlockServer(scenario.block, drop=drop, tracer=tracer)
    port = await server.start()
    try:
        return await fetch_block("127.0.0.1", port,
                                 scenario.receiver_mempool,
                                 policy=policy, tracer=tracer)
    finally:
        await server.close()


def _fetch(scenario, **kwargs):
    return asyncio.run(_serve_and_fetch(scenario, **kwargs))



def _future_version(node_id: str) -> bytes:
    """A ``version`` payload claiming the protocol version after ours."""
    return (struct.pack("<I", PROTOCOL_VERSION + 1)
            + encode_version(node_id)[4:])

class TestByteParity:
    """Socket relay == loopback relay, byte for byte and event for event."""

    def _assert_parity(self, fraction, seed):
        sc = make_block_scenario(n=120, extra=120, fraction=fraction,
                                 seed=seed)
        result = _fetch(sc)
        assert result.success

        sc2 = make_block_scenario(n=120, extra=120, fraction=fraction,
                                  seed=seed)
        loop = BlockRelaySession().relay(sc2.block, sc2.receiver_mempool)
        # Byte-identical: compare the JSON serializations, the exact
        # form the CI smoke stage and the CLI parity check compare.
        assert json.dumps(result.cost.as_dict(), sort_keys=True) \
            == json.dumps(loop.cost.as_dict(), sort_keys=True)
        assert json.dumps([e.as_dict() for e in result.events]) \
            == json.dumps([e.as_dict() for e in loop.events])
        assert result.roundtrips == loop.roundtrips
        assert result.protocol_used == loop.protocol_used
        assert [tx.txid for tx in result.txs] \
            == [tx.txid for tx in loop.txs]
        return result

    def test_protocol1_path(self):
        result = self._assert_parity(fraction=1.0, seed=7)
        assert result.protocol_used == 1
        assert [e.command for e in result.events] \
            == ["inv", "getdata", "graphene_block"]
        # The socket adds real envelope bytes, but never to the
        # analytic accounting.
        assert result.wire_overhead > 0

    def test_full_fallback_chain(self):
        result = self._assert_parity(fraction=0.4, seed=2736)
        assert result.protocol_used == 2
        assert result.p2_used_pingpong
        assert result.fetched_count > 0
        assert [e.command for e in result.events] \
            == ["inv", "getdata", "graphene_block", "graphene_p2_request",
                "graphene_p2_response", "getdata_shortids", "block_txs"]

    def test_reconstructed_block_carries_received_header(self):
        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=3)
        result = _fetch(sc)
        assert result.block.header.serialize() \
            == sc.block.header.serialize()


class TestHandshake:
    def test_version_carries_derived_sync_nonce(self):
        sc = make_block_scenario(n=30, extra=30, fraction=1.0, seed=1)
        result = _fetch(sc)
        assert result.peer.node_id == "server"
        assert result.peer.nonce == derive_sync_nonce("server")

    def test_version_mismatch_rejected(self):
        async def run():
            sc = make_block_scenario(n=30, extra=30, fraction=1.0, seed=1)
            server = BlockServer(sc.block)
            port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                conn = PeerConnection(reader, writer, "oldpeer")
                # Speak an unknown protocol version by hand.
                conn.send("version", _future_version("oldpeer"))
                await conn.drain()
                # The server rejects us: either it closes (EOF on our
                # next read) or our own handshake machinery never sees
                # a verack.  Drain until EOF proves the disconnect.
                while True:
                    frame = await asyncio.wait_for(conn.read_frame(), 5)
                    if frame is None:
                        break
                await conn.close()
            finally:
                await server.close()
            assert server.connections_served == 1

        asyncio.run(run())

    def test_client_rejects_mismatched_version(self):
        async def run():
            async def fake_server(reader, writer):
                decoder_conn = PeerConnection(reader, writer, "fake")
                await decoder_conn.read_frame()  # the client's version
                decoder_conn.send("version", _future_version("fake"))
                await decoder_conn.drain()

            server = await asyncio.start_server(fake_server,
                                                "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            sc = make_block_scenario(n=10, extra=0, fraction=1.0, seed=0)
            try:
                with pytest.raises(
                        ProtocolFailure,
                        match=f"protocol {PROTOCOL_VERSION + 1}"):
                    await fetch_block("127.0.0.1", port,
                                      sc.receiver_mempool)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())


async def _mallory(port, frames, handshake=True):
    """Connect as "mallory", send ``frames``, read until the server
    hangs up (its inv first, then EOF)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    conn = PeerConnection(reader, writer, "mallory")
    if handshake:
        await conn.handshake()
    for command, payload in frames:
        conn.send(command, payload)
    await conn.drain()
    while await asyncio.wait_for(conn.read_frame(), 5):
        pass
    await conn.close()


class TestHostilePayloads:
    """Hostile bytes from a live peer drop *that peer*, through the
    connection loop's "misbehaving peer" branch: nothing reaches the
    event loop's exception handler and everyone else is still served."""

    #: (command, bytes after the exchange root) a handshaken client
    #: sends to a BlockServer, and the error family member each trips.
    TO_SERVER = [
        ("getdata", b"\x01\x02\x03"),                # engine: too short
        ("graphene_p2_request", bytes(5) + b"\xfd"),   # truncated CompactSize
        ("getdata_shortids", bytes(7)),                # not a multiple of 8
        ("graphene_p3_request", b"\x00"),              # codec: too short
    ]

    @pytest.mark.parametrize("command,message", TO_SERVER,
                             ids=[row[0] for row in TO_SERVER])
    def test_server_drops_the_peer_and_keeps_serving(self, command,
                                                     message, caplog):
        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=3)

        async def run():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            server = BlockServer(sc.block)
            port = await server.start()
            try:
                await _mallory(port, [(command, server.root + message)])
                await asyncio.wait_for(server.wait_served(1), 5)
                result = await fetch_block("127.0.0.1", port,
                                           sc.receiver_mempool)
            finally:
                await server.close()
            return unhandled, result

        with caplog.at_level(logging.WARNING,
                             logger="repro.net.peer.manager"):
            unhandled, result = asyncio.run(run())
        assert unhandled == []
        assert "dropping misbehaving peer mallory" in caplog.text
        sc2 = make_block_scenario(n=60, extra=60, fraction=1.0, seed=3)
        loop = BlockRelaySession().relay(sc2.block, sc2.receiver_mempool)
        assert result.success
        assert json.dumps([e.as_dict() for e in result.events]) \
            == json.dumps([e.as_dict() for e in loop.events])

    @pytest.mark.parametrize("command,message", [
        row for row in TO_SERVER if row[0].startswith("graphene_p")],
        ids=["graphene_p2_request", "graphene_p3_request"])
    def test_hostile_frame_leaves_the_shared_engine_serving(
            self, command, message, caplog):
        """Every connection is answered from the block's one sender
        engine.  Bob opens a P1 -> P2 -> short-id exchange and holds it
        after the first reply; mallory's malformed request for the same
        root passes through that engine and drops mallory alone; Bob
        finishes at the loopback cost and a later fetch is served by
        the same engine object, from the opening Bob's getdata built."""
        def scenario():
            return make_block_scenario(n=200, extra=200, fraction=0.9,
                                       seed=5)
        sc = scenario()

        async def run():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            server = BlockServer(sc.block)
            port = await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            bob = PeerConnection(reader, writer, "bob")
            engine = GrapheneReceiverEngine(scenario().receiver_mempool)
            transport = AsyncioTransport(writer, server.root)
            try:
                await bob.handshake()
                action, shared = engine.start(), None
                while action.kind is ActionKind.SEND:
                    transport.deliver(action)
                    await bob.drain()
                    reply, payload = await asyncio.wait_for(
                        bob.read_frame(), 5)
                    while reply == "inv":
                        reply, payload = await asyncio.wait_for(
                            bob.read_frame(), 5)
                    if shared is None:  # mid-exchange: one reply in
                        shared = server.serving_engines[server.root]
                        await _mallory(port,
                                       [(command, server.root + message)])
                        await asyncio.wait_for(server.wait_served(1), 5)
                    action = engine.handle(reply, split_keyed(payload)[1])
                carol = await fetch_block("127.0.0.1", port,
                                          scenario().receiver_mempool)
                return (unhandled, action, engine, carol, shared,
                        server.serving_engines)
            finally:
                await bob.close()
                await server.close()

        with caplog.at_level(logging.WARNING,
                             logger="repro.net.peer.manager"):
            unhandled, final, bob, carol, shared, engines = asyncio.run(run())
        assert unhandled == []
        assert caplog.text.count("dropping misbehaving peer") == 1
        assert "dropping misbehaving peer mallory" in caplog.text
        loop = BlockRelaySession().relay(scenario().block,
                                         scenario().receiver_mempool)
        assert loop.roundtrips > 2  # the multi-frame path
        assert final.kind is ActionKind.DONE
        assert CostBreakdown.from_events(bob.telemetry).as_dict() \
            == loop.cost.as_dict()
        assert carol.success and carol.cost.as_dict() == loop.cost.as_dict()
        assert engines == {sc.block.header.merkle_root: shared}
        assert shared.openings_built == 1

    @pytest.mark.parametrize("version", [
        struct.pack("<IQ", PROTOCOL_VERSION, 1),                 # no id
        struct.pack("<IQ", PROTOCOL_VERSION, 1) + b"\x02\xff\xfe",
    ], ids=["truncated", "not-utf8"])
    def test_server_turns_away_a_malformed_version(self, version):
        sc = make_block_scenario(n=30, extra=30, fraction=1.0, seed=1)

        async def run():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            server = BlockServer(sc.block)
            port = await server.start()
            try:
                await _mallory(port, [("version", version)],
                               handshake=False)
                await asyncio.wait_for(server.wait_served(1), 5)
            finally:
                await server.close()
            return unhandled

        assert asyncio.run(run()) == []

    #: Frames a hostile *server* answers an honest fetch with.
    TO_FETCHER = [
        ("graphene_block", b"garbage"),   # header too short
        ("graphene_block", bytes(80)),    # header, then no CompactSize
        ("block", b"garbage"),            # decode_full_block
    ]

    @pytest.mark.parametrize("command,message", TO_FETCHER,
                             ids=["short-header", "no-counts", "block"])
    def test_fetcher_drops_the_server_and_abandons(self, command, message,
                                                   caplog):
        sc = make_block_scenario(n=30, extra=30, fraction=1.0, seed=1)
        root = sc.block.header.merkle_root

        async def hostile_server(reader, writer):
            conn = PeerConnection(reader, writer, "mallory")
            await conn.handshake()
            conn.send("inv", encode_inv(root))
            await conn.drain()
            while True:
                frame = await conn.read_frame()
                if frame is None:
                    break
                if frame[0] == "getdata":
                    payload = message if command == "block" \
                        else root + message
                    conn.send(command, payload)
                    await conn.drain()
            await conn.close()

        async def run():
            server = await asyncio.start_server(hostile_server,
                                                "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await asyncio.wait_for(
                    fetch_block("127.0.0.1", port, sc.receiver_mempool),
                    10)
            finally:
                server.close()
                await server.wait_closed()

        with caplog.at_level(logging.WARNING,
                             logger="repro.net.peer.manager"):
            result = asyncio.run(run())
        assert "dropping misbehaving peer mallory" in caplog.text
        assert result.abandoned and not result.success


    @pytest.mark.parametrize("width", [6, 8])
    def test_fetcher_survives_a_key_wider_than_a_short_id(self, width):
        """A Protocol 3 opening whose stream carries one extra key >=
        2^48 peels complete and passes the arithmetic.  At
        ``short_id_bytes=6`` no short ID can equal it: the engine fails
        the exchange and the fetcher escalates to the full block -- the
        connection task does not die of an ``OverflowError``.  At width
        8 the key is asked for like any other and the Merkle root
        settles it."""
        import dataclasses

        from repro.codec import encode_protocol3_payload, encode_tx_list
        from repro.core.params import GrapheneConfig
        from repro.core.protocol3 import (SEED_R, SymbolBatch,
                                          build_protocol3)
        from repro.net.peer import encode_full_block
        from repro.pds.riblt import RIBLTEncoder

        config = GrapheneConfig(short_id_bytes=width, protocol=3)
        sc = make_block_scenario(n=40, extra=40, fraction=1.0, seed=6)
        root = sc.block.header.merkle_root
        payload, _ = build_protocol3(sc.block.txs, len(sc.receiver_mempool),
                                     config)
        keys = sc.block.columns.short_ids(width).tolist() + [(1 << 50) | 5]
        stream = RIBLTEncoder(keys, seed=config.seed ^ SEED_R)
        forged = dataclasses.replace(
            payload, n=payload.n + 1, symbols=SymbolBatch(
                0, *stream.window(0, len(payload.symbols))))
        answers = {
            "getdata": ("graphene_p3_block",
                        root + sc.block.header.serialize()
                        + encode_protocol3_payload(forged)),
            "getdata_shortids": ("block_txs", root + encode_tx_list([])),
            "getdata_block": ("block", encode_full_block(sc.block)),
        }
        asked = []

        async def hostile_server(reader, writer):
            conn = PeerConnection(reader, writer, "mallory")
            await conn.handshake()
            conn.send("inv", encode_inv(root))
            await conn.drain()
            while True:
                frame = await conn.read_frame()
                if frame is None:
                    break
                asked.append(frame[0])
                conn.send(*answers[frame[0]])
                await conn.drain()
            await conn.close()

        async def run():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            server = await asyncio.start_server(hostile_server,
                                                "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                result = await asyncio.wait_for(
                    fetch_block("127.0.0.1", port, sc.receiver_mempool,
                                config, policy=RecoveryPolicy(**FAST)), 10)
            finally:
                server.close()
                await server.wait_closed()
            return unhandled, result

        unhandled, result = asyncio.run(run())
        assert unhandled == []
        assert result.success and result.block.txids == sc.block.txids
        if width == 6:
            assert asked == ["getdata", "getdata_block"]
            assert result.escalated and result.via_fullblock
        else:
            assert asked == ["getdata", "getdata_shortids"]
            assert not result.escalated


class TestRecoveryLadder:
    """The simulator's timeout ladder, mapped onto asyncio timeouts."""

    def test_retry_rung_reemits_and_charges_bytes(self):
        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=3)
        policy = RecoveryPolicy(max_retries=2, **FAST)
        result = _fetch(sc, drop={"getdata": 1}, policy=policy)
        assert result.success and not result.escalated
        assert result.timeouts == 1 and result.retries == 1
        outcomes = [e.outcome for e in result.events if e.outcome
                    in ("timeout", "retry")]
        assert outcomes == ["timeout", "retry"]
        by_outcome = {e.outcome: e for e in result.events}
        # The timeout event is zero-byte; the retry re-charges the
        # original request's byte decomposition -- honest accounting,
        # same as the simulator.
        assert by_outcome["timeout"].wire_bytes == 0
        assert by_outcome["retry"].wire_bytes > 0
        assert by_outcome["retry"].command == "getdata"

    def test_escalation_rung_fetches_full_block(self):
        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=3)
        policy = RecoveryPolicy(max_retries=1, **FAST)
        # Drop every graphene request (initial + 1 retry): the client
        # must give up on the exchange and pull the whole block.
        result = _fetch(sc, drop={"getdata": 2}, policy=policy)
        assert result.success and result.escalated and result.via_fullblock
        assert [tx.txid for tx in result.txs] \
            == [tx.txid for tx in sc.block.txs]
        assert result.block.header.merkle_root \
            == sc.block.header.merkle_root

    def test_abandon_when_single_peer_exhausted(self):
        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=3)
        policy = RecoveryPolicy(max_retries=1, **FAST)
        result = _fetch(sc, drop={"getdata": 5, "getdata_block": 5},
                        policy=policy)
        assert not result.success and result.abandoned
        # Both rungs were climbed before giving up.
        assert result.escalated
        assert result.timeouts == 4  # 2 per rung (initial + 1 retry)

    def test_traced_socket_run_produces_spans(self):
        sc = make_block_scenario(n=60, extra=60, fraction=1.0, seed=3)
        tracer = Tracer(WallClock())
        policy = RecoveryPolicy(max_retries=2, **FAST)
        result = _fetch(sc, drop={"getdata": 1}, policy=policy,
                        tracer=tracer)
        assert result.success
        relay_spans = tracer.spans(kind="relay")
        assert len(relay_spans) == 1
        span = relay_spans[0]
        assert span.status == "done"
        assert span.timeouts == 1 and span.retries == 1
        assert span.end >= span.start
        serve_spans = tracer.spans(kind="serve")
        assert len(serve_spans) == 1
        assert serve_spans[0].status == "served"


class TestTransportContract:
    """The SEND-only deliver contract is uniform across all siblings."""

    @staticmethod
    def _engines(seed=3):
        sc = make_block_scenario(n=30, extra=30, fraction=1.0, seed=seed)
        return (GrapheneSenderEngine(sc.block),
                GrapheneReceiverEngine(sc.receiver_mempool))

    def test_asyncio_transport_rejects_terminal_actions(self):
        class SinkWriter:
            def write(self, data):  # never reached
                raise AssertionError("terminal action crossed the wire")

        transport = AsyncioTransport(SinkWriter(), b"\x00" * 32)
        for kind in (ActionKind.DONE, ActionKind.FAILED):
            with pytest.raises(ParameterError, match="only SEND"):
                transport.deliver(EngineAction(kind))

    def test_loopback_rejects_terminal_actions(self):
        transport = LoopbackTransport(*self._engines())
        for kind in (ActionKind.DONE, ActionKind.FAILED):
            with pytest.raises(ParameterError, match="only SEND"):
                transport.deliver(EngineAction(kind))

    def test_loopback_reuse_never_leaks_stale_final(self):
        sender, receiver = self._engines()
        transport = LoopbackTransport(sender, receiver)
        final = transport.run()
        assert final.kind is ActionKind.DONE
        assert transport.final is final
        # A second exchange on the same transport: deliver() must reset
        # `final` on entry, so a failure mid-pump can never leave the
        # previous exchange's DONE visible as this exchange's result.
        sender2, receiver2 = self._engines(seed=4)
        transport.sender, transport.receiver = sender2, receiver2
        action = receiver2.start()
        transport.deliver(action)
        assert transport.final is not final
        assert transport.final.kind is ActionKind.DONE

    def test_asyncio_transport_counts_envelope_overhead(self):
        frames = []

        class ListWriter:
            def write(self, data):
                frames.append(bytes(data))

        transport = AsyncioTransport(ListWriter(), b"\x07" * 32)
        sender, receiver = self._engines()
        action = receiver.start()
        transport.deliver(action)
        assert transport.frames_sent == 1
        # overhead = frame envelope + the 32-byte exchange key; the
        # analytic payload itself is not overhead.
        assert transport.wire_overhead \
            == len(frames[0]) - len(action.message)
