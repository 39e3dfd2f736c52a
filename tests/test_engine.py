"""Tests for the message-driven Graphene engines."""

from __future__ import annotations

import struct

import pytest

import repro.core.engine as engine_module
from repro.chain.scenarios import make_block_scenario
from repro.codec import (
    decode_protocol1_payload,
    decode_protocol3_payload,
)
from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
    P3_GETDATA_MARKER,
    ReceiverPhase,
)
from repro.errors import ParameterError, ProtocolFailure


def _run_exchange(scenario, config=None):
    """Drive the two engines to completion; return (action, receiver)."""
    sender = GrapheneSenderEngine(scenario.block)
    receiver = GrapheneReceiverEngine(scenario.receiver_mempool)
    action = receiver.start()
    assert action.command == "getdata"
    reply = sender.on_getdata(action.message).message
    action = receiver.on_p1_payload(reply)
    if action.kind is ActionKind.SEND:
        assert action.command == "graphene_p2_request"
        reply = sender.on_p2_request(action.message).message
        action = receiver.on_p2_response(reply)
    if action.kind is ActionKind.SEND:
        assert action.command == "getdata_shortids"
        reply = sender.on_shortid_request(action.message).message
        action = receiver.on_tx_list(reply)
    return action, receiver


class TestHappyPath:
    def test_protocol1_only(self):
        sc = make_block_scenario(n=150, extra=150, fraction=1.0, seed=81)
        action, receiver = _run_exchange(sc)
        assert action.kind is ActionKind.DONE
        assert receiver.phase is ReceiverPhase.DONE
        assert [t.txid for t in action.txs] == sc.block.txids

    def test_protocol2_fallback(self):
        sc = make_block_scenario(n=150, extra=150, fraction=0.9, seed=82)
        action, receiver = _run_exchange(sc)
        assert action.kind is ActionKind.DONE
        assert [t.txid for t in action.txs] == sc.block.txids

    def test_special_case_m_equals_n(self):
        sc = make_block_scenario(n=120, extra=0, fraction=0.6, seed=83)
        action, _ = _run_exchange(sc)
        assert action.kind is ActionKind.DONE
        assert [t.txid for t in action.txs] == sc.block.txids

    def test_many_scenarios_end_to_end(self):
        done = 0
        for t in range(20):
            sc = make_block_scenario(n=100, extra=100,
                                     fraction=0.85 + 0.01 * (t % 10),
                                     seed=8400 + t)
            action, _ = _run_exchange(sc)
            if action.kind is ActionKind.DONE:
                done += 1
                assert [x.txid for x in action.txs] == sc.block.txids
        assert done >= 19  # failures essentially absent


class TestSenderEngine:
    def test_serves_multiple_receivers(self):
        sc1 = make_block_scenario(n=100, extra=100, fraction=1.0, seed=86)
        sender = GrapheneSenderEngine(sc1.block)
        for extra_seed in (1, 2, 3):
            sc = make_block_scenario(n=100, extra=100, fraction=1.0,
                                     seed=86)  # same block content
            receiver = GrapheneReceiverEngine(sc.receiver_mempool)
            action = receiver.start()
            reply = sender.on_getdata(action.message).message
            action = receiver.on_p1_payload(reply)
            assert action.kind is ActionKind.DONE

    def test_rejects_short_getdata(self):
        sc = make_block_scenario(n=10, extra=10, fraction=1.0, seed=87)
        with pytest.raises(ParameterError):
            GrapheneSenderEngine(sc.block).on_getdata(b"\x01")

    def test_shortid_request_roundtrip(self):
        sc = make_block_scenario(n=20, extra=0, fraction=1.0, seed=88)
        sender = GrapheneSenderEngine(sc.block)
        tx = sc.block.txs[3]
        message = tx.short_id().to_bytes(8, "little")
        from repro.codec import decode_tx_list
        txs, _ = decode_tx_list(sender.on_shortid_request(message).message)
        assert len(txs) == 1 and txs[0].txid == tx.txid


def _getdata(m: int, protocol: int = 1) -> bytes:
    if protocol == 3:
        return struct.pack("<IB", m, P3_GETDATA_MARKER)
    return struct.pack("<I", m)


class TestServedOpeningCache:
    """One ``(protocol, m)``-keyed cache of served openings per sender."""

    @pytest.mark.parametrize("protocol,builder", [
        (1, "build_protocol1"), (3, "build_protocol3")])
    def test_same_m_is_built_once_and_served_verbatim(self, monkeypatch,
                                                      protocol, builder):
        calls = []
        real = getattr(engine_module, builder)

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, builder, counted)
        sc = make_block_scenario(n=50, extra=50, fraction=1.0, seed=93)
        sender = GrapheneSenderEngine(sc.block)
        first = sender.on_getdata(_getdata(100, protocol))
        again = sender.on_getdata(_getdata(100, protocol))
        assert calls == [100]
        assert again.message == first.message
        assert again.event.parts == first.event.parts
        # A served event is shared, so its parts cannot be changed.
        with pytest.raises(TypeError):
            again.event.parts["counts"] = 0
        sender.on_getdata(_getdata(101, protocol))
        assert calls == [100, 101]

    def test_protocols_do_not_share_an_entry(self):
        sc = make_block_scenario(n=50, extra=50, fraction=1.0, seed=93)
        sender = GrapheneSenderEngine(sc.block)
        p1 = sender.on_getdata(_getdata(100, 1))
        p3 = sender.on_getdata(_getdata(100, 3))
        assert (p1.command, p3.command) \
            == ("graphene_block", "graphene_p3_block")
        assert p1.message != p3.message
        assert "iblt_i" in p1.event.parts and "riblt" in p3.event.parts
        assert sorted(sender._openings) == [(1, 100), (3, 100)]
        # Each is still what its own receiver decodes.
        assert decode_protocol1_payload(p1.message, 80)[0].n == 50
        assert decode_protocol3_payload(p3.message, 80)[0].n == 50

    def test_cache_is_bounded_and_keeps_the_newest(self):
        sc = make_block_scenario(n=20, extra=20, fraction=1.0, seed=94)
        sender = GrapheneSenderEngine(sc.block)
        cap = sender._openings.budget
        for m in range(40, 40 + cap + 1):
            sender.on_getdata(_getdata(m, 1 if m % 2 else 3))
        assert len(sender._openings) <= cap
        newest = 40 + cap
        assert (1 if newest % 2 else 3, newest) in sender._openings

    @pytest.mark.parametrize("protocol,decode", [
        (1, decode_protocol1_payload), (3, decode_protocol3_payload)])
    def test_mempool_mode_serves_no_header(self, protocol, decode):
        sc = make_block_scenario(n=30, extra=30, fraction=1.0, seed=95)
        served = GrapheneSenderEngine(txs=list(sc.block.txs)).on_getdata(
            _getdata(60, protocol)).message
        payload, end = decode(served, 0)
        assert end == len(served) and payload.n == 30
        assert not payload.prefilled  # no coinbase prefill either
        with_header = GrapheneSenderEngine(sc.block).on_getdata(
            _getdata(60, protocol)).message
        assert with_header[:80] == sc.block.header.serialize()
        assert len(with_header) >= 80 + len(served)


class TestPhaseDiscipline:
    def test_cannot_start_twice(self):
        sc = make_block_scenario(n=10, extra=10, fraction=1.0, seed=89)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool)
        receiver.start()
        with pytest.raises(ProtocolFailure):
            receiver.start()

    def test_out_of_order_messages_rejected(self):
        sc = make_block_scenario(n=10, extra=10, fraction=1.0, seed=90)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool)
        with pytest.raises(ProtocolFailure):
            receiver.on_p2_response(b"\x00" * 40)
        with pytest.raises(ProtocolFailure):
            receiver.on_tx_list(b"\x00")

    def test_handle_dispatch(self):
        sc = make_block_scenario(n=50, extra=50, fraction=1.0, seed=91)
        sender = GrapheneSenderEngine(sc.block)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool)
        action = receiver.start()
        reply = sender.on_getdata(action.message).message
        action = receiver.handle("graphene_block", reply)
        assert action.kind is ActionKind.DONE

    def test_handle_unknown_command(self):
        sc = make_block_scenario(n=10, extra=10, fraction=1.0, seed=92)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool)
        with pytest.raises(ParameterError):
            receiver.handle("nonsense", b"")


class TestHeaderParsing:
    def test_header_roundtrip(self):
        from repro.chain.block import BlockHeader
        from repro.codec import decode_block_header
        header = BlockHeader(version=3, prev_hash=bytes(range(32)),
                             merkle_root=bytes(reversed(range(32))),
                             timestamp=12345, bits=0x1D00FFFF, nonce=777)
        parsed = decode_block_header(header.serialize())
        assert parsed == header

    def test_wrong_length_rejected(self):
        import pytest as _pytest
        from repro.codec import decode_block_header
        from repro.errors import ParameterError
        with _pytest.raises(ParameterError):
            decode_block_header(b"\x00" * 79)
