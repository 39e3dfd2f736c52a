"""Wire codec safety net: the live codec against the scalar oracle.

Three batteries:

* **Oracle byte parity** -- :func:`repro.codec.encode_iblt` over the
  columnar :class:`~repro.pds.iblt.IBLT` must produce the bytes the
  independent per-cell encoder in :mod:`repro.pds.reference` produces
  for the same keys, at every lossless cell width; the two full-cell
  widths and one coded-symbol batch (which the reference encoder does
  not cover) are pinned by digest; and every decode is a fixed point
  (``encode(decode(b)) == b``, columns equal to the source).
* **memoryview inputs** -- every ``decode_*`` entry point must accept a
  read-only ``memoryview`` (the zero-copy wire path hands engines
  views, never sliced copies) and decode exactly what it decodes from
  ``bytes``.
* **Simulator bookkeeping** -- the O(1) ``Simulator.pending`` counter
  and the read-only ``Link.drops()`` stream resolved at construction.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random

import pytest

import repro.codec as codec
from repro.chain.block import BlockHeader
from repro.chain.scenarios import make_block_scenario
from repro.chain.transaction import TransactionGenerator
from repro.core.params import GrapheneConfig
from repro.core.protocol1 import build_protocol1, receive_protocol1
from repro.core.protocol2 import build_protocol2_request, respond_protocol2
from repro.core.protocol3 import SymbolBatch
from repro.errors import ParameterError
from repro.net.simulator import Link, Simulator
from repro.pds.bloom import BloomFilter
from repro.pds.iblt import IBLT
from repro.pds.reference import (
    ReferenceBloomFilter,
    ReferenceIBLT,
    encode_reference_bloom,
    encode_reference_iblt,
)
from repro.pds.riblt import RIBLTEncoder

LOSSLESS_WIDTHS = (12, 13, 14, 15, 16, 17, 18)
#: Widths below/above the lossless window ship as full 18-byte cells.
FULL_CELL_WIDTHS = (10, 20)

#: SHA-256 of the wire bytes under the protocol-version-2 hash family,
#: computed from :mod:`repro.pds.reference` alone: ``ReferenceIBLT``
#: cells packed as full 18-byte wire cells for widths 10 and 20, and a
#: key-at-a-time symbol stream seeded from ``ReferenceHasher``.
PINNED_SHA256 = {
    10: "91c7853ac3feb41b1c851778da3d828d8698cbf8456a67a3140b29b3ef327f8f",
    20: "125bede172fa792177cd7a457a0418777ca1e1ce62736ca598c3b54e1d2dfda2",
    "symbols":
        "4d7daf9eb1fdbfa2b03b7506b94ff475925685270eaefd1960451a9795c50f72",
}


def make_iblts(table=IBLT) -> list:
    """Tables of class ``table`` covering every wire-cell shape.

    One per lossless ``cell_bytes`` 12..18 (checksum widths 2..8), plus
    widths below/above the lossless window, which ship as full cells.
    The key sequence does not depend on ``table``, so the live and the
    reference structure hold the same set.
    """
    rng = random.Random(1234)
    tables = []
    for cell_bytes in LOSSLESS_WIDTHS + FULL_CELL_WIDTHS:
        iblt = table(24, k=4, seed=77, cell_bytes=cell_bytes)
        for _ in range(17):
            iblt.insert(rng.getrandbits(64))
        iblt._apply(rng.getrandbits(64), -1)  # negative counts on the wire
        tables.append(iblt)
    return tables


def bloom_items() -> list[bytes]:
    rng = random.Random(99)
    return [rng.getrandbits(256).to_bytes(32, "little") for _ in range(64)]


def make_blooms() -> list[BloomFilter]:
    loaded = BloomFilter.from_fpr(64, 0.02, seed=5)
    loaded.update(bloom_items())
    degenerate = BloomFilter.from_fpr(10, 1.0, seed=5)
    empty = BloomFilter.from_fpr(32, 0.1, seed=0)
    return [loaded, degenerate, empty]


def make_symbol_batch() -> SymbolBatch:
    """A mid-stream window over 40 keys, one count forced negative."""
    rng = random.Random(4321)
    counts, key_sums, check_sums = RIBLTEncoder(
        [rng.getrandbits(64) for _ in range(40)], seed=77).window(3, 24)
    counts[5] = -2
    return SymbolBatch(start=3, counts=counts, key_sums=key_sums,
                       check_sums=check_sums)


def test_the_switch_module_is_gone():
    """One codec path: re-adding the selector must come with its tests."""
    assert importlib.util.find_spec("repro.fastpath") is None


class TestOracleParity:
    """The live codec agrees with the scalar reference byte for byte."""

    def test_iblt_wire_bytes_match_reference(self):
        # The reference encoder has no full-cell form; widths 10 and 20
        # are pinned by digest below instead.
        for live, ref in zip(make_iblts(), make_iblts(ReferenceIBLT)):
            if live.cell_bytes in LOSSLESS_WIDTHS:
                assert codec.encode_iblt(live) == \
                    encode_reference_iblt(ref), (
                        f"cell_bytes={live.cell_bytes}: live and "
                        "reference encodings differ")

    def test_full_cell_and_symbol_wire_bytes_pinned(self):
        blobs = {iblt.cell_bytes: codec.encode_iblt(iblt)
                 for iblt in make_iblts()
                 if iblt.cell_bytes in FULL_CELL_WIDTHS}
        blobs["symbols"] = codec.encode_symbol_batch(make_symbol_batch())
        assert {name: hashlib.sha256(blob).hexdigest()
                for name, blob in blobs.items()} == PINNED_SHA256

    def test_iblt_decode_is_fixed_point(self):
        for iblt in make_iblts():
            blob = codec.encode_iblt(iblt)
            decoded, offset = codec.decode_iblt(blob)
            assert offset == len(blob)
            assert decoded._counts == iblt._counts
            assert decoded._key_sums == iblt._key_sums
            assert decoded._check_sums == iblt._check_sums
            assert codec.encode_iblt(decoded) == blob

    def test_symbol_batch_decode_is_fixed_point(self):
        batch = make_symbol_batch()
        blob = codec.encode_symbol_batch(batch)
        decoded, offset = codec.decode_symbol_batch(blob)
        assert offset == len(blob) == batch.wire_size()
        assert decoded.start == batch.start
        assert decoded.counts == batch.counts
        assert decoded.key_sums == batch.key_sums
        assert decoded.check_sums == batch.check_sums
        assert codec.encode_symbol_batch(decoded) == blob

    def test_bloom_wire_bytes_match_reference(self):
        refs = [ReferenceBloomFilter.from_fpr(64, 0.02, seed=5),
                ReferenceBloomFilter.from_fpr(10, 1.0, seed=5),
                ReferenceBloomFilter.from_fpr(32, 0.1, seed=0)]
        for item in bloom_items():
            refs[0].insert(item)
        for live, ref in zip(make_blooms(), refs):
            assert codec.encode_bloom(live) == encode_reference_bloom(ref)

    def test_protocol_payloads_are_fixed_points(self):
        config = GrapheneConfig()
        sc = make_block_scenario(n=120, extra=80, fraction=0.7, seed=75)
        payload = build_protocol1(sc.block.txs, sc.m, config)
        p1 = receive_protocol1(payload, sc.receiver_mempool, config,
                               validate_block=sc.block)
        assert not p1.success, "scenario must escalate to Protocol 2"
        request, _ = build_protocol2_request(p1, payload, sc.m, config)
        response = respond_protocol2(request, sc.block.txs, sc.m, config)

        for encode, decode, obj in [
            (codec.encode_protocol1_payload,
             codec.decode_protocol1_payload, payload),
            (codec.encode_protocol2_request,
             codec.decode_protocol2_request, request),
            (codec.encode_protocol2_response,
             codec.decode_protocol2_response, response),
        ]:
            blob = encode(obj)
            decoded, offset = decode(blob)
            assert offset == len(blob)
            assert encode(decoded) == blob, (
                f"{encode.__name__} is not a fixed point of its decoder")

    def test_i16_overflow_raises(self):
        iblt = IBLT(4, k=2, seed=0, cell_bytes=12)
        for _ in range(0x8000 // 2 + 1):
            iblt.xor_cell(0, 0, +2)  # drive one cell count past i16
        with pytest.raises(ParameterError):
            codec.encode_iblt(iblt)

    def test_seed_outside_the_wire_field_raises(self):
        """A masked seed would name another hash family to the receiver."""
        for seed in (2 ** 32 + 7, -1):
            with pytest.raises(ParameterError):
                codec.encode_iblt(IBLT(4, k=2, seed=seed))
        with pytest.raises(ParameterError):
            codec.encode_bloom(BloomFilter(64, 3, seed=2 ** 32 + 7))


class TestMemoryviewInputs:
    """Each decode_* accepts a read-only memoryview, matching bytes."""

    @pytest.fixture(scope="class")
    def wire(self):
        config = GrapheneConfig()
        sc = make_block_scenario(n=120, extra=80, fraction=0.7, seed=75)
        payload = build_protocol1(sc.block.txs, sc.m, config)
        p1 = receive_protocol1(payload, sc.receiver_mempool, config,
                               validate_block=sc.block)
        request, _ = build_protocol2_request(p1, payload, sc.m, config)
        response = respond_protocol2(request, sc.block.txs, sc.m, config)
        gen = TransactionGenerator(seed=3)
        txs = gen.make_batch(5)
        bloom = make_blooms()[0]
        iblt = make_iblts()[0]
        header = BlockHeader(version=2, prev_hash=bytes(range(32)),
                             merkle_root=bytes(reversed(range(32))),
                             timestamp=7, nonce=9)
        return {
            "bloom": (codec.decode_bloom, codec.encode_bloom(bloom)),
            "iblt": (codec.decode_iblt, codec.encode_iblt(iblt)),
            "block_header": (codec.decode_block_header,
                             codec.encode_block_header(header)),
            "transaction": (codec.decode_transaction,
                            codec.encode_transaction(txs[0])),
            "tx_list": (codec.decode_tx_list, codec.encode_tx_list(txs)),
            "p1": (codec.decode_protocol1_payload,
                   codec.encode_protocol1_payload(payload)),
            "p2_request": (codec.decode_protocol2_request,
                           codec.encode_protocol2_request(request)),
            "p2_response": (codec.decode_protocol2_response,
                            codec.encode_protocol2_response(response)),
        }

    @pytest.mark.parametrize("name", [
        "bloom", "iblt", "block_header", "transaction", "tx_list",
        "p1", "p2_request", "p2_response",
    ])
    def test_decode_from_memoryview(self, wire, name):
        decoder, blob = wire[name]
        from_bytes = decoder(blob)
        from_view = decoder(memoryview(blob))
        # Compare through re-encoding where the decode returns live
        # structures; offsets and scalar fields compare directly.
        assert repr(from_view) == repr(from_bytes)
        if name == "iblt":
            assert codec.encode_iblt(from_view[0]) == \
                codec.encode_iblt(from_bytes[0])
        elif name == "bloom":
            assert codec.encode_bloom(from_view[0]) == \
                codec.encode_bloom(from_bytes[0])
        elif name == "tx_list":
            assert from_view[0] == from_bytes[0]


class TestSimulatorPendingCounter:
    """``Simulator.pending`` is an O(1) live counter, not a heap scan."""

    def test_counts_scheduled_events(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.pending == 5
        sim.run()
        assert sim.pending == 0

    def test_cancel_decrements_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending == 1
        handle.cancel()  # double cancel must not decrement again
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(0.5, lambda: fired.append(1))
        sim.run()
        assert fired and sim.pending == 0
        handle.cancel()  # the event already left the live count
        assert sim.pending == 0

    def test_run_horizon_keeps_future_events_pending(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.pending == 1


class TestLinkLossStreamIsReadOnly:
    """The loss stream is resolved at construction; drops() never
    mutates configuration."""

    def test_standalone_lossy_link_keeps_seed_field(self):
        link = Link(loss_rate=0.5)
        assert link.loss_seed is None
        before = (link.latency, link.bandwidth, link.loss_rate,
                  link.loss_seed)
        for _ in range(50):
            link.drops()
        assert (link.latency, link.bandwidth, link.loss_rate,
                link.loss_seed) == before

    def test_standalone_fallback_stream_is_deterministic(self):
        a = Link(loss_rate=0.3)
        b = Link(loss_rate=0.3)
        assert [a.drops() for _ in range(64)] == \
            [b.drops() for _ in range(64)]

    def test_explicit_seed_pins_the_stream(self):
        a = Link(loss_rate=0.3, loss_seed=9)
        b = Link(loss_rate=0.3, loss_seed=9)
        assert [a.drops() for _ in range(64)] == \
            [b.drops() for _ in range(64)]

    def test_ensure_loss_seed_respects_explicit_seed(self):
        link = Link(loss_rate=0.3, loss_seed=9)
        link.ensure_loss_seed(1234)
        assert link.loss_seed == 9

    def test_ensure_loss_seed_adopts_wiring_seed(self):
        wired = Link(loss_rate=0.3)
        wired.ensure_loss_seed(9)
        pinned = Link(loss_rate=0.3, loss_seed=9)
        assert wired.loss_seed == 9
        assert [wired.drops() for _ in range(64)] == \
            [pinned.drops() for _ in range(64)]

    def test_lossless_link_never_drops(self):
        link = Link(loss_rate=0.0)
        assert not any(link.drops() for _ in range(16))
