"""Memoryview lifetime audit: decoded structures own their bytes.

The zero-copy decode path hands every ``decode_*`` a memoryview over
the receive buffer, and real receive buffers get reused: the asyncio
peer stack compacts its frame buffer between reads, and any pooled
transport would recycle storage outright.  The safety contract is
copy-on-retain -- a decoded structure may *read* the view during the
decode call, but everything it keeps must be copied out.

These are the regression tests for that audit: decode every wire
structure from a mutable buffer, clobber the buffer, and assert the
decoded structure (its re-encoding, and downstream engine state) is
unchanged.  A future "optimization" that retains a view into the
receive buffer fails here immediately.
"""

from __future__ import annotations

import pytest

from repro import codec
from repro.chain.scenarios import make_block_scenario, make_sync_scenario
from repro.core.engine import (
    DECODED_OPENINGS,
    SENDER_STEPS,
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
)
from repro.core.params import GrapheneConfig
from repro.core.protocol1 import build_protocol1
from repro.core.protocol2 import build_protocol2_request, respond_protocol2
from repro.core.protocol1 import receive_protocol1
from repro.net.peer.protocol import (
    decode_full_block,
    decode_inv,
    decode_version,
    encode_full_block,
    encode_inv,
    encode_version,
)


def _clobber(buf: bytearray) -> None:
    """Flip every byte in place -- no decoded bit pattern survives."""
    for i in range(len(buf)):
        buf[i] ^= 0xFF


def _scenario(fraction=0.4, seed=133):
    return make_block_scenario(n=60, extra=60, fraction=fraction, seed=seed)


class TestCodecCopyOnRetain:
    """Each decode_* survives its source buffer being clobbered."""

    def _roundtrip(self, encode, decode, original_blob):
        buf = bytearray(original_blob)
        decoded = decode(memoryview(buf))
        if isinstance(decoded, tuple):
            decoded = decoded[0]
        _clobber(buf)
        assert encode(decoded) == original_blob
        return decoded

    def test_bloom(self):
        sc = _scenario()
        payload = build_protocol1([*sc.block.txs],
                                  len(sc.receiver_mempool),
                                  GrapheneSenderEngine(sc.block).config)
        self._roundtrip(codec.encode_bloom, codec.decode_bloom,
                        codec.encode_bloom(payload.bloom_s))

    def test_iblt(self):
        sc = _scenario()
        payload = build_protocol1([*sc.block.txs],
                                  len(sc.receiver_mempool),
                                  GrapheneSenderEngine(sc.block).config)
        self._roundtrip(codec.encode_iblt, codec.decode_iblt,
                        codec.encode_iblt(payload.iblt_i))

    def test_transaction_and_tx_list(self):
        sc = _scenario()
        tx = sc.block.txs[0]
        decoded = self._roundtrip(codec.encode_transaction,
                                  codec.decode_transaction,
                                  codec.encode_transaction(tx))
        assert type(decoded.txid) is bytes
        self._roundtrip(codec.encode_tx_list, codec.decode_tx_list,
                        codec.encode_tx_list(list(sc.block.txs[:7])))

    def test_block_header(self):
        sc = _scenario()
        blob = sc.block.header.serialize()
        buf = bytearray(blob)
        header = codec.decode_block_header(memoryview(buf))
        _clobber(buf)
        assert header.serialize() == blob
        assert type(header.merkle_root) is bytes

    def test_protocol1_payload(self):
        sc = _scenario()
        payload = build_protocol1([*sc.block.txs],
                                  len(sc.receiver_mempool),
                                  GrapheneSenderEngine(sc.block).config)
        self._roundtrip(codec.encode_protocol1_payload,
                        codec.decode_protocol1_payload,
                        codec.encode_protocol1_payload(payload))

    def test_protocol2_request_and_response(self):
        sc = _scenario()
        config = GrapheneSenderEngine(sc.block).config
        m = len(sc.receiver_mempool)
        payload = build_protocol1([*sc.block.txs], m, config)
        result = receive_protocol1(payload, sc.receiver_mempool, config)
        assert not result.success  # this seed needs Protocol 2
        request, _ = build_protocol2_request(result, payload, m, config)
        self._roundtrip(codec.encode_protocol2_request,
                        codec.decode_protocol2_request,
                        codec.encode_protocol2_request(request))
        response = respond_protocol2(request, [*sc.block.txs], m, config)
        self._roundtrip(codec.encode_protocol2_response,
                        codec.decode_protocol2_response,
                        codec.encode_protocol2_response(response))

    def test_peer_payloads(self):
        blob = encode_version("node-7")
        buf = bytearray(blob)
        info = decode_version(memoryview(buf))
        _clobber(buf)
        assert info.node_id == "node-7"

        root = bytes(range(32))
        buf = bytearray(encode_inv(root))
        decoded = decode_inv(memoryview(buf))
        _clobber(buf)
        assert decoded == root
        assert type(decoded) is bytes

        sc = _scenario()
        blob = encode_full_block(sc.block)
        buf = bytearray(blob)
        block = decode_full_block(memoryview(buf))
        _clobber(buf)
        assert encode_full_block(block) == blob


class TestEngineMutateAfterEveryStep:
    """Full P2-fallback relay with every inbound buffer clobbered
    immediately after its engine step: final state must match a clean
    run exactly (txs, block bytes, telemetry stream)."""

    @staticmethod
    def _run_relay(clobber: bool):
        sc = _scenario()
        sender = GrapheneSenderEngine(sc.block)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool)
        sender_steps = ("getdata", "graphene_p2_request",
                        "getdata_shortids")
        action = receiver.start()
        while action.kind is ActionKind.SEND:
            engine = sender if action.command in sender_steps else receiver
            buf = bytearray(bytes(action.message))
            action = engine.handle(action.command, memoryview(buf))
            if clobber:
                _clobber(buf)
        return sc, receiver, action

    def test_telemetry_and_result_unchanged(self):
        sc, rx_clean, clean = self._run_relay(clobber=False)
        _, rx_dirty, dirty = self._run_relay(clobber=True)
        assert clean.kind is ActionKind.DONE is dirty.kind
        assert rx_clean.protocol_used == 2  # the interesting path
        assert [tx.txid for tx in clean.txs] \
            == [tx.txid for tx in dirty.txs]
        assert clean.block.header.serialize() \
            == dirty.block.header.serialize()
        assert [e.as_dict() for e in rx_clean.telemetry] \
            == [e.as_dict() for e in rx_dirty.telemetry]

    def test_retained_txids_are_owned_bytes(self):
        _, receiver, action = self._run_relay(clobber=True)
        for tx in action.txs:
            assert type(tx.txid) is bytes


@pytest.mark.parametrize("fraction,seed", [(1.0, 7), (0.4, 133)])
def test_socket_path_survives_buffer_clobbering(fraction, seed):
    """End to end over the frame decoder: decode frames from a reused
    bytearray, clobber it after every decode, relay must complete with
    the canonical telemetry."""
    import asyncio

    from repro.net.peer import BlockServer, fetch_block

    async def run():
        sc = make_block_scenario(n=60, extra=60, fraction=fraction,
                                 seed=seed)
        server = BlockServer(sc.block)
        port = await server.start()
        try:
            result = await fetch_block("127.0.0.1", port,
                                       sc.receiver_mempool)
        finally:
            await server.close()
        assert result.success
        # FrameDecoder hands out fresh bytes, so by the time engines
        # decode, the receive buffer can be recycled freely; the
        # telemetry stream still matches the loopback run.
        from repro.core.session import BlockRelaySession
        sc2 = make_block_scenario(n=60, extra=60, fraction=fraction,
                                  seed=seed)
        loop = BlockRelaySession().relay(sc2.block, sc2.receiver_mempool)
        assert [e.as_dict() for e in result.events] \
            == [e.as_dict() for e in loop.events]

    asyncio.run(run())


def _relay_clobbering(sender, receiver):
    """Drive a relay to its end, every inbound buffer a ``bytearray``
    clobbered right after its step; returns ``(final, opening blob)``."""
    action = receiver.start()
    blob = None
    while action.kind is ActionKind.SEND:
        engine = sender if action.command in SENDER_STEPS else receiver
        if blob is None and engine is receiver:
            blob = bytes(action.message)
        buf = bytearray(bytes(action.message))
        action = engine.handle(action.command, memoryview(buf))
        _clobber(buf)
    return action, blob


class TestSharedOpeningIsReadOnly:
    """Every receiver of one opening blob reads one decoded payload
    (``DECODED_OPENINGS``).  Sharing is safe only while the payload owns
    its bytes and nothing downstream writes it: clobber every receive
    buffer, run each path that reads an opening twice, and re-encode
    the shared payload after each."""

    P3 = GrapheneConfig(protocol=3)

    @staticmethod
    def _cached_encoding(protocol: int, body: bytes) -> bytes:
        payload, _ = DECODED_OPENINGS[(protocol, body)]
        encode = (codec.encode_protocol1_payload if protocol == 1
                  else codec.encode_protocol3_payload)
        return encode(payload)

    def _twice(self, make_sender, pools, config=None, mode="block"):
        """Two relays of one sender's opening; the second must hit."""
        DECODED_OPENINGS.clear()
        sender = make_sender()
        protocol = (config or GrapheneConfig()).protocol
        finals, receivers = [], []
        for i, pool in enumerate(pools):
            receiver = GrapheneReceiverEngine(pool, config=config, mode=mode)
            final, blob = _relay_clobbering(sender, receiver)
            assert (DECODED_OPENINGS.misses, DECODED_OPENINGS.hits) \
                == (1, i)
            body = blob[80:] if mode == "block" else blob
            assert self._cached_encoding(protocol, body) == body
            finals.append(final)
            receivers.append(receiver)
        return finals, receivers

    def test_a_clobbered_first_decode_serves_the_second_receiver(self):
        sc = _scenario(fraction=1.0, seed=134)
        (first, second), _ = self._twice(
            lambda: GrapheneSenderEngine(sc.block),
            [sc.receiver_mempool.copy(), sc.receiver_mempool.copy()])
        assert first.kind is ActionKind.DONE is second.kind
        assert [tx.txid for tx in second.txs] == sc.block.txids

    @pytest.mark.parametrize("fraction,seed,protocol_used", [
        (1.0, 135, 1), (0.4, 133, 2)], ids=["p1", "p1-p2"])
    def test_protocol1_paths(self, fraction, seed, protocol_used):
        sc = _scenario(fraction=fraction, seed=seed)
        finals, receivers = self._twice(
            lambda: GrapheneSenderEngine(sc.block),
            [sc.receiver_mempool.copy(), sc.receiver_mempool.copy()])
        for final, receiver in zip(finals, receivers):
            assert final.kind is ActionKind.DONE
            assert receiver.protocol_used == protocol_used
            assert [tx.txid for tx in final.txs] == sc.block.txids

    def test_protocol3_with_filter_r_and_pushed_transactions(self):
        sc = make_block_scenario(n=200, extra=200, fraction=0.8, seed=11)
        finals, receivers = self._twice(
            lambda: GrapheneSenderEngine(sc.block, self.P3),
            [sc.receiver_mempool.copy(), sc.receiver_mempool.copy()],
            config=self.P3)
        for final, receiver in zip(finals, receivers):
            assert final.kind is ActionKind.DONE
            assert [tx.txid for tx in final.txs] == sc.block.txids
            assert receiver._p3_state.pushed  # R rode, its misses came
            assert any("bloom_r" in event.parts
                       for event in receiver.telemetry)

    def test_mempool_sync(self):
        sc = make_sync_scenario(n=120, fraction_common=0.7, seed=56)
        finals, receivers = self._twice(
            lambda: GrapheneSenderEngine(
                txs=sc.sender_mempool.columns()),
            [sc.receiver_mempool.copy(), sc.receiver_mempool.copy()],
            mode="mempool")
        want = {tx.txid for tx in sc.sender_mempool.transactions()}
        for final in finals:
            assert final.kind is ActionKind.DONE
            assert want <= {tx.txid for tx in final.txs}
