"""An opening is encoded once and decoded once per process.

A blob is a pure function of the block, the requester's mempool count
``m`` and the config, so every sender engine serves what the first one
built (``ENCODED_OPENINGS``) and every receiver of one blob reads the
payload the first one decoded (``DECODED_OPENINGS``).  These tests pin
the three things that make that safe and worth having: the keys are
exact (anything the bytes depend on misses), a simulated network
builds and decodes each opening once, and a warm run is the cold run
to the last byte and clock tick.
"""

from __future__ import annotations

import struct
import sys

import pytest

import repro.core.engine as engine_module
from repro.chain import merkle
from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.scenarios import make_block_scenario
from repro.chain.transaction import Transaction, TransactionGenerator
from repro.codec import encode_protocol1_payload
from repro.core import params, telemetry
from repro.core.engine import (
    DECODED_OPENINGS,
    ENCODED_OPENINGS,
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
)
from repro.core.params import GrapheneConfig
from repro.core.protocol1 import build_protocol1
from repro.obs import run_block_relay_scenario
from repro.pds import bloom, iblt
from repro.utils.memo import BoundedMemo


def _module_memos() -> list:
    """Every process-wide memo of the package."""
    return [value for name, module in list(sys.modules.items())
            if name.startswith("repro.")
            for value in vars(module).values()
            if isinstance(value, BoundedMemo)]


@pytest.fixture
def cold_openings():
    ENCODED_OPENINGS.clear()
    DECODED_OPENINGS.clear()


def _getdata(m: int) -> bytes:
    return struct.pack("<I", m)


def _cold_blob(block: Block, m: int, config: GrapheneConfig) -> bytes:
    """The opening built from scratch, no engine involved."""
    payload = build_protocol1(block.columns, m, config)
    return block.header.serialize() + encode_protocol1_payload(payload)


def test_every_module_memo_is_found():
    names = {id(memo) for memo in _module_memos()}
    assert {id(memo) for memo in (
        params._PLAN_CACHE, bloom._INDEX_MEMO, iblt._FOLD_CACHE,
        merkle._ROOT_CACHE, telemetry._EVENTS, ENCODED_OPENINGS,
        DECODED_OPENINGS)} <= names


@pytest.mark.usefixtures("cold_openings")
class TestExactKeys:
    """Each variation below misses and serves or parses its own bytes:
    no "probably the same" keys."""

    def test_a_different_coinbase_size_under_one_header(self):
        gen = TransactionGenerator(seed=4101)
        txs = gen.make_batch(60)
        coinbase = gen.make_coinbase(size=120)
        block = Block.assemble([coinbase, *txs])
        twin = Transaction(txid=coinbase.txid, size=121,
                           fee_rate=coinbase.fee_rate, is_coinbase=True)
        twin_block = Block(header=block.header, txs=tuple(
            twin if tx is coinbase else tx for tx in block.txs))
        assert twin_block.columns.ids == block.columns.ids
        config, m = GrapheneConfig(), 90

        first = GrapheneSenderEngine(block).on_getdata(_getdata(m))
        second = GrapheneSenderEngine(twin_block).on_getdata(_getdata(m))
        assert ENCODED_OPENINGS.misses == 2
        assert first.message != second.message
        assert bytes(first.message) == _cold_blob(block, m, config)
        assert bytes(second.message) == _cold_blob(twin_block, m, config)

        for served, want in ((first, coinbase), (second, twin)):
            receiver = GrapheneReceiverEngine(Mempool(txs))
            receiver.start()
            final = receiver.on_p1_payload(bytes(served.message))
            assert final.kind is ActionKind.DONE
            (got,) = [tx for tx in final.txs if tx.is_coinbase]
            assert (got.txid, got.size) == (want.txid, want.size)
        assert DECODED_OPENINGS.misses == 2

    def test_a_different_m(self):
        sc = make_block_scenario(n=80, extra=80, fraction=1.0, seed=4102)
        sender = GrapheneSenderEngine(sc.block)
        blobs = [bytes(sender.on_getdata(_getdata(m)).message)
                 for m in (160, 161, 160)]
        assert ENCODED_OPENINGS.misses == 2 == sender.openings_built
        assert blobs[0] == blobs[2] != blobs[1]
        for blob, m in zip(blobs, (160, 161)):
            assert blob == _cold_blob(sc.block, m, GrapheneConfig())

    def test_a_different_config_seed(self):
        sc = make_block_scenario(n=80, extra=80, fraction=1.0, seed=4103)
        configs = [GrapheneConfig(seed=1), GrapheneConfig(seed=2)]
        blobs = [bytes(GrapheneSenderEngine(sc.block, config)
                       .on_getdata(_getdata(160)).message)
                 for config in configs]
        assert ENCODED_OPENINGS.misses == 2
        assert blobs[0] != blobs[1]
        for blob, config in zip(blobs, configs):
            assert blob == _cold_blob(sc.block, 160, config)

    def test_one_flipped_byte_in_a_blob(self):
        sc = make_block_scenario(n=80, extra=80, fraction=1.0, seed=4104)
        receiver = GrapheneReceiverEngine(sc.receiver_mempool.copy())
        getdata = receiver.start().message
        blob = bytes(GrapheneSenderEngine(sc.block)
                     .on_getdata(getdata).message)
        flipped = bytearray(blob)
        flipped[-1] ^= 0x01  # the last IBLT cell's checksum
        flipped = bytes(flipped)
        assert receiver.on_p1_payload(blob).kind is ActionKind.DONE
        other = GrapheneReceiverEngine(sc.receiver_mempool.copy())
        other.start()
        other.on_p1_payload(flipped)
        assert (DECODED_OPENINGS.misses, DECODED_OPENINGS.hits) == (2, 0)
        for wire in (blob, flipped):
            payload, _ = DECODED_OPENINGS[(1, wire[80:])]
            assert encode_protocol1_payload(payload) == wire[80:]


@pytest.mark.usefixtures("cold_openings")
def test_an_oversized_opening_is_kept_alone_and_goes_next():
    """Entries count one more per 64 KiB of blob: a peer's outsized
    opening (here an honest one with 512 KiB of trailing bytes, which
    the decoder never reads) cannot pin eight of its size."""
    sc = make_block_scenario(n=80, extra=80, fraction=1.0, seed=4105)
    sender = GrapheneSenderEngine(sc.block)
    blobs = [bytes(sender.on_getdata(_getdata(m)).message)
             for m in (160, 161)]

    def read(blob):
        receiver = GrapheneReceiverEngine(sc.receiver_mempool.copy())
        receiver.start()
        assert receiver.on_p1_payload(blob).kind is ActionKind.DONE

    padded = blobs[0] + bytes(8 << 16)
    for blob in (blobs[0], padded):
        read(blob)
    assert list(DECODED_OPENINGS) == [(1, padded[80:])]
    read(blobs[1])
    assert list(DECODED_OPENINGS) == [(1, blobs[1][80:])]


class TestOncePerProcess:
    def test_a_simulated_block_is_built_once_per_m_and_decoded_once_per_blob(
            self, monkeypatch, cold_openings):
        """20 nodes, one block: each distinct ``(protocol, m)`` a sender
        first serves is built once in the process, and each distinct
        blob a receiver reads is decoded once."""
        built, first_serves, decoded, read = [], set(), [], []
        real_build = GrapheneSenderEngine._build_opening
        real_first = GrapheneSenderEngine._first_serve
        real_read = GrapheneReceiverEngine._read_opening
        real_decode = engine_module.decode_protocol1_payload

        def build(self, protocol, m):
            built.append((self.block.header.merkle_root, protocol, m))
            return real_build(self, protocol, m)

        def first_serve(self, protocol, m):
            first_serves.add((self.block.header.merkle_root, protocol, m))
            return real_first(self, protocol, m)

        def read_opening(self, message, protocol, decode):
            read.append(bytes(message[80:]))
            return real_read(self, message, protocol, decode)

        def decode(data, offset=0):
            decoded.append(bytes(data[offset:]))
            return real_decode(data, offset)

        monkeypatch.setattr(GrapheneSenderEngine, "_build_opening", build)
        monkeypatch.setattr(GrapheneSenderEngine, "_first_serve",
                            first_serve)
        monkeypatch.setattr(GrapheneReceiverEngine, "_read_opening",
                            read_opening)
        monkeypatch.setattr(engine_module, "decode_protocol1_payload",
                            decode)
        run = run_block_relay_scenario(nodes=20, degree=4, block_size=200,
                                       extra=200, loss=0.05, seed=2024,
                                       trace=False)
        assert run.covered == 20
        assert sorted(built) == sorted(first_serves)
        assert sorted(decoded) == sorted(set(read))
        # The sharing happened: more first serves than builds, more
        # openings read than decoded.
        served = sum(engine.openings_built for node in run.nodes
                     for engine in node.serving_engines.values())
        assert served > len(built) >= 1
        assert len(read) > len(decoded) >= 1
        assert (ENCODED_OPENINGS.misses, ENCODED_OPENINGS.hits) \
            == (len(built), served - len(built))
        assert (DECODED_OPENINGS.misses, DECODED_OPENINGS.hits) \
            == (len(decoded), len(read) - len(decoded))


def _fingerprint(run) -> tuple:
    """Everything a run is judged by: streams, clocks, bytes, counts."""
    streams = {key: [event.as_dict() for event in stream]
               for key, stream in run.relay_streams().items()}
    arrivals = {node.node_id: dict(node.block_arrival) for node in run.nodes}
    links = {(node.node_id, peer.node_id): (link.bytes_sent,
                                           link.messages_sent)
             for node in run.nodes for peer, link in node.peers.items()}
    counts = (run.simulator.events_processed,
              sum(node.relay_retries for node in run.nodes),
              sum(node.relay_timeouts for node in run.nodes),
              sum(1 for mark in run.tracer.marks if mark.name == "abandon"))
    return streams, arrivals, links, counts


@pytest.mark.parametrize("sync_rounds", [0, 2])
def test_a_warm_run_is_the_cold_run(sync_rounds):
    """The smoke scenario twice in one process: once with every memo
    cleared, once warm -- identical streams, clocks, bytes and counts."""
    for memo in _module_memos():
        memo.clear()
    cold = _fingerprint(run_block_relay_scenario(sync_rounds=sync_rounds))
    decodes = DECODED_OPENINGS.misses
    warm = _fingerprint(run_block_relay_scenario(sync_rounds=sync_rounds))
    assert DECODED_OPENINGS.misses == decodes  # warm: nothing re-decoded
    assert DECODED_OPENINGS.hits > 0 and ENCODED_OPENINGS.hits > 0
    assert warm == cold
