"""Tests for the binary wire codecs."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.scenarios import make_block_scenario
from repro.chain.transaction import Transaction, TransactionGenerator
from repro.core.params import GrapheneConfig
from repro.core.protocol1 import build_protocol1, receive_protocol1
from repro.core.protocol2 import (
    build_protocol2_request,
    finish_protocol2,
    respond_protocol2,
)
from repro.errors import ParameterError
from repro.codec import (
    decode_bloom,
    decode_iblt,
    decode_protocol1_payload,
    decode_protocol2_request,
    decode_protocol2_response,
    decode_transaction,
    decode_tx_list,
    encode_bloom,
    encode_iblt,
    encode_protocol1_payload,
    encode_protocol2_request,
    encode_protocol2_response,
    encode_transaction,
    encode_tx_list,
)
from repro.pds.bloom import BloomFilter
from repro.pds.iblt import IBLT
from repro.utils.hashing import sha256


class TestBloomCodec:
    def test_roundtrip_membership(self):
        bloom = BloomFilter.from_fpr(200, 0.01, seed=5)
        items = [sha256(bytes([i])) for i in range(200)]
        bloom.update(items)
        decoded, offset = decode_bloom(encode_bloom(bloom))
        assert offset == bloom.serialized_size()
        assert all(item in decoded for item in items)

    def test_identical_mistakes(self):
        # The decoded filter must make exactly the same false positives.
        bloom = BloomFilter.from_fpr(100, 0.05, seed=9)
        bloom.update(sha256(bytes([i])) for i in range(100))
        decoded, _ = decode_bloom(encode_bloom(bloom))
        probes = [sha256(b"p" + i.to_bytes(2, "little")) for i in range(2000)]
        assert ([p in bloom for p in probes]
                == [p in decoded for p in probes])

    def test_wire_length_matches_size_model(self):
        bloom = BloomFilter.from_fpr(500, 0.001)
        assert len(encode_bloom(bloom)) == bloom.serialized_size()

    def test_degenerate_filter(self):
        bloom = BloomFilter.from_fpr(10, 1.0)
        decoded, _ = decode_bloom(encode_bloom(bloom))
        assert decoded.is_degenerate
        assert sha256(b"x") in decoded

    def test_truncated_buffer_rejected(self):
        bloom = BloomFilter.from_fpr(100, 0.01)
        blob = encode_bloom(bloom)
        with pytest.raises(ParameterError):
            decode_bloom(blob[:-1])
        with pytest.raises(ParameterError):
            decode_bloom(blob[:4])


class TestIBLTCodec:
    def test_roundtrip_decode_equivalence(self, rng):
        keys = [rng.getrandbits(64) for _ in range(40)]
        iblt = IBLT(120, k=4, seed=7)
        iblt.update(keys)
        decoded, offset = decode_iblt(encode_iblt(iblt))
        assert offset == iblt.serialized_size()
        result = decoded.decode()
        assert result.complete
        assert result.local == set(keys)

    def test_wire_length_matches_size_model(self):
        iblt = IBLT(60, k=4)
        assert len(encode_iblt(iblt)) == iblt.serialized_size()

    def test_subtraction_across_the_wire(self, rng):
        # Receiver decodes a wire IBLT and subtracts her own local one.
        shared = [rng.getrandbits(64) for _ in range(30)]
        extra = [rng.getrandbits(64) for _ in range(5)]
        sender = IBLT(96, k=4, seed=3)
        sender.update(shared + extra)
        arrived, _ = decode_iblt(encode_iblt(sender))
        local = IBLT(arrived.cells, k=arrived.k, seed=arrived.seed)
        local.update(shared)
        result = arrived.subtract(local).decode()
        assert result.complete
        assert result.local == set(extra)

    def test_negative_counts_roundtrip(self, rng):
        iblt = IBLT(24, k=4)
        iblt.erase(1234)
        decoded, _ = decode_iblt(encode_iblt(iblt))
        result = decoded.decode()
        assert result.remote == {1234}

    def test_exotic_cell_width_roundtrips_full_fidelity(self):
        # cell_bytes outside 12..18 cannot carry the logical cell in
        # cell_bytes wire bytes; the codec ships whole cells instead
        # (flagged in the header) while serialized_size() keeps the
        # analytic accounting.
        iblt = IBLT(12, cell_bytes=4)
        iblt.insert(4321)
        blob = encode_iblt(iblt)
        assert len(blob) != iblt.serialized_size()
        decoded, _ = decode_iblt(blob)
        assert decoded.cell_bytes == 4
        assert decoded.serialized_size() == iblt.serialized_size()
        assert decoded.decode().local == {4321}

    def test_wide_checksum_cells(self):
        iblt = IBLT(24, k=4, cell_bytes=18)
        iblt.insert(99)
        decoded, _ = decode_iblt(encode_iblt(iblt))
        assert decoded.decode().local == {99}

    def test_truncated_rejected(self, rng):
        iblt = IBLT(24, k=4)
        blob = encode_iblt(iblt)
        with pytest.raises(ParameterError):
            decode_iblt(blob[: len(blob) // 2])


class TestBloomLoadRestore:
    """A wire-decoded filter must not lie about its target FPR or load."""

    def test_decoded_filter_reports_sane_target_fpr(self):
        # Regression: decode_bloom used to leave _target_fpr at the
        # constructor default of 1.0, so any sizing math done on a
        # decoded filter silently treated it as degenerate.
        bloom = BloomFilter.from_fpr(300, 0.02, seed=4)
        decoded, _ = decode_bloom(encode_bloom(bloom))
        assert not decoded.is_degenerate
        assert decoded.target_fpr < 1.0
        # Optimal filters satisfy f = 2^-k, which is all the wire knows.
        assert decoded.target_fpr == 0.5 ** bloom.k

    @pytest.mark.parametrize("n,fpr", [(50, 0.1), (200, 0.01),
                                       (1000, 0.001), (40, 0.0005)])
    def test_restored_load_inverts_the_sizing(self, n, fpr):
        from repro.codec import restore_bloom_load
        bloom = BloomFilter.from_fpr(n, fpr, seed=2)
        decoded, _ = decode_bloom(encode_bloom(bloom))
        restore_bloom_load(decoded, n)
        assert decoded.count == n
        # nbits = ceil(-n ln f / ln^2 2), so inverting recovers f up to
        # the ceil: the estimate lands in (f * exp(-ln^2 2 / n), f].
        assert fpr * 0.59 <= decoded.target_fpr <= fpr * 1.000001

    def test_degenerate_filter_load_not_restored(self):
        from repro.codec import restore_bloom_load
        bloom = BloomFilter.from_fpr(10, 1.0)
        decoded, _ = decode_bloom(encode_bloom(bloom))
        restore_bloom_load(decoded, 10)
        # Inserts into a degenerate filter don't count, so a loopback
        # degenerate filter holds count 0; the wire twin must match.
        assert decoded.count == 0
        assert decoded.actual_fpr() == 1.0


class TestP2RequestLoadParity:
    """The responder must see the same R either side of the wire."""

    def _request(self, config, seed=75):
        sc = make_block_scenario(n=150, extra=100, fraction=0.7, seed=seed)
        payload = build_protocol1(sc.block.txs, sc.m, config)
        p1 = receive_protocol1(payload, sc.receiver_mempool, config,
                               validate_block=sc.block)
        assert not p1.success
        request, _ = build_protocol2_request(p1, payload, sc.m, config)
        return request, sc

    def test_decoded_request_restores_bloom_load(self, config):
        # Regression: decode_protocol2_request left R's count at 0, so
        # the responder computed actual_fpr() == 0.0 and sized T and J
        # as if R never false-positived.
        request, _ = self._request(config)
        arrived, _ = decode_protocol2_request(
            encode_protocol2_request(request))
        assert arrived.bloom_r.count == request.bloom_r.count == request.z
        assert arrived.bloom_r.actual_fpr() == request.bloom_r.actual_fpr()
        assert arrived.bloom_r.actual_fpr() > 0.0

    def test_wire_and_loopback_responses_are_identical(self, config):
        request, sc = self._request(config)
        arrived, _ = decode_protocol2_request(
            encode_protocol2_request(request))
        loopback = respond_protocol2(request, sc.block.txs, sc.m, config)
        wire = respond_protocol2(arrived, sc.block.txs, sc.m, config)
        assert (encode_protocol2_response(wire)
                == encode_protocol2_response(loopback))


class TestTransactionCodec:
    def test_roundtrip(self, txgen):
        tx = txgen.make()
        decoded, offset = decode_transaction(encode_transaction(tx))
        assert offset == 41
        assert decoded.txid == tx.txid
        assert decoded.size == tx.size

    def test_list_roundtrip(self, txgen):
        txs = txgen.make_batch(7)
        decoded, _ = decode_tx_list(encode_tx_list(txs))
        assert [t.txid for t in decoded] == [t.txid for t in txs]

    def test_empty_list(self):
        decoded, offset = decode_tx_list(encode_tx_list([]))
        assert decoded == [] and offset == 1

    @given(st.binary(min_size=32, max_size=32),
           st.integers(1, 1_000_000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, txid, size):
        tx = Transaction(txid=txid, size=size)
        decoded, _ = decode_transaction(encode_transaction(tx))
        assert decoded.txid == txid and decoded.size == size

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_fee_rate_survives_the_wire_exactly(self, fee_rate):
        # Regression: fee_rate crossed the wire as f32 but the
        # dataclass held the full double, so decode(encode(tx)) != tx
        # whenever the rate wasn't f32-representable -- and a mempool
        # sorted by fee rate could order differently after a hop.
        tx = Transaction(txid=sha256(b"fee"), fee_rate=fee_rate)
        decoded, _ = decode_transaction(encode_transaction(tx))
        assert decoded == tx
        assert decoded.fee_rate == tx.fee_rate

    def test_fee_rate_ordering_stable_across_the_wire(self, rng):
        gen = TransactionGenerator(seed=909)
        txs = gen.make_batch(60)  # expovariate doubles, not f32-exact
        decoded, _ = decode_tx_list(encode_tx_list(txs))
        order = lambda ts: [t.txid for t in  # noqa: E731
                            sorted(ts, key=lambda t: (t.fee_rate, t.txid))]
        assert order(decoded) == order(txs)


class TestProtocolMessageCodecs:
    def test_protocol1_over_the_wire(self, config):
        # Full Protocol 1 where the payload crosses a real byte buffer.
        sc = make_block_scenario(n=150, extra=150, fraction=1.0, seed=71)
        payload = build_protocol1(sc.block.txs, sc.m, config)
        blob = encode_protocol1_payload(payload)
        arrived, offset = decode_protocol1_payload(blob)
        assert offset == len(blob)
        assert arrived.n == payload.n
        result = receive_protocol1(arrived, sc.receiver_mempool, config,
                                   validate_block=sc.block)
        assert result.success

    def test_protocol2_over_the_wire(self, config):
        sc = make_block_scenario(n=150, extra=150, fraction=0.9, seed=72)
        payload = build_protocol1(sc.block.txs, sc.m, config)
        p1 = receive_protocol1(payload, sc.receiver_mempool, config,
                               validate_block=sc.block)
        assert not p1.success
        request, state = build_protocol2_request(p1, payload, sc.m, config)
        req_blob = encode_protocol2_request(request)
        arrived_req, off = decode_protocol2_request(req_blob)
        assert off == len(req_blob)
        assert arrived_req.b == request.b
        assert arrived_req.ystar == request.ystar
        response = respond_protocol2(arrived_req, sc.block.txs, sc.m, config)
        resp_blob = encode_protocol2_response(response)
        arrived_resp, off = decode_protocol2_response(resp_blob)
        assert off == len(resp_blob)
        result = finish_protocol2(arrived_resp, state, sc.receiver_mempool,
                                  config, validate_block=sc.block)
        assert result.decode_complete

    def test_special_case_response_carries_f(self, config):
        sc = make_block_scenario(n=120, extra=0, fraction=0.6, seed=73)
        payload = build_protocol1(sc.block.txs, sc.m, config)
        p1 = receive_protocol1(payload, sc.receiver_mempool, config,
                               validate_block=sc.block)
        request, state = build_protocol2_request(p1, payload, sc.m, config)
        assert request.special_case
        response = respond_protocol2(request, sc.block.txs, sc.m, config)
        arrived, _ = decode_protocol2_response(
            encode_protocol2_response(response))
        assert arrived.bloom_f is not None

    def test_request_flag_roundtrip(self, config):
        sc = make_block_scenario(n=120, extra=0, fraction=0.6, seed=74)
        payload = build_protocol1(sc.block.txs, sc.m, config)
        p1 = receive_protocol1(payload, sc.receiver_mempool, config,
                               validate_block=sc.block)
        request, _ = build_protocol2_request(p1, payload, sc.m, config)
        arrived, _ = decode_protocol2_request(
            encode_protocol2_request(request))
        assert arrived.special_case == request.special_case
