"""The three differential fuzzing engines.

Each engine turns a small JSON-serializable parameter dict into a fully
deterministic test case and checks a battery of invariants:

* :class:`CodecEngine` -- wire round-trips.  ``encode -> decode ->
  encode`` must be a byte-level fixed point, decoded structures must
  *behave* like their originals (membership answers, IBLT decode
  results, restored loads and FPR estimates, receiver outcomes), and
  mutated/truncated encodings must raise
  :class:`~repro.errors.ReproError` rather than mis-parse, overrun the
  buffer, or crash with a non-protocol exception.
* :class:`PDSEngine` -- the columnar :class:`~repro.pds.iblt.IBLT` and
  :class:`~repro.pds.bloom.BloomFilter` against the scalar references in
  :mod:`repro.pds.reference` and against their own scalar paths
  (``update`` vs repeated ``insert``, ``contains_many`` vs
  ``__contains__``) and their packed entry points (``update_packed`` /
  ``contains_packed``, a ``uint64`` key column), on both sides of the
  ``_BATCH_MIN`` threshold.
* :class:`RelayEngine` -- random small lossy topologies with optional
  :class:`~repro.net.simulator.FaultInjector` schedules, asserting
  convergence-or-clean-abandon and every RunReport invariant.

Engines never raise on a *finding*: they return a :class:`FuzzFailure`
describing it.  Unexpected exceptions are allowed to propagate -- the
runner converts them into ``unhandled:`` failures, which is itself a
detection (decoders must fail with protocol errors, not arbitrary
ones).
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as _np

from repro.codec import (
    decode_bloom,
    decode_iblt,
    decode_protocol1_payload,
    decode_protocol2_request,
    decode_protocol2_response,
    decode_protocol3_payload,
    decode_protocol3_request,
    decode_symbol_batch,
    decode_transaction,
    decode_tx_list,
    encode_bloom,
    encode_iblt,
    encode_protocol1_payload,
    encode_protocol2_request,
    encode_protocol2_response,
    encode_protocol3_payload,
    encode_protocol3_request,
    encode_symbol_batch,
    encode_transaction,
    encode_tx_list,
    restore_bloom_load,
)
from repro.errors import ReproError
from repro.fuzz import gen
from repro.fuzz.gen import rng_from
from repro.net.peer.framing import (
    MAX_PAYLOAD,
    FrameDecoder,
    FrameError,
    encode_frame,
    frame_overhead,
    iter_splits,
)
from repro.utils.hashing import sha256

_DECODERS = (decode_bloom, decode_iblt, decode_transaction, decode_tx_list,
             decode_protocol1_payload, decode_protocol2_request,
             decode_protocol2_response, decode_protocol3_payload,
             decode_symbol_batch)


@dataclass
class FuzzFailure:
    """One confirmed finding: a check that did not hold for ``params``."""

    engine: str
    check: str
    detail: str
    params: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.engine}] {self.check}: {self.detail} {self.params}"


def _halves(value: int, floor: int) -> List[int]:
    """Shrink candidates for one integer: the floor, then halvings."""
    out = []
    if value > floor:
        out.append(floor)
        mid = (value + floor) // 2
        if mid not in (value, floor):
            out.append(mid)
    return out


class Engine:
    """Interface shared by the three engines."""

    name: str = "?"
    #: Relative per-case cost; the runner divides its case budget by it.
    cost: int = 1
    #: ``{param_key: minimum}`` for the generic integer shrinker.
    shrink_floors: dict = {}

    def draw(self, rng: random.Random) -> dict:
        raise NotImplementedError

    def check(self, params: dict) -> Optional[FuzzFailure]:
        raise NotImplementedError

    def shrink_candidates(self, params: dict) -> Iterable[dict]:
        """Yield strictly-simpler variants of ``params`` to retry."""
        for key, floor in self.shrink_floors.items():
            if key not in params or not isinstance(params[key], int):
                continue
            for smaller in _halves(params[key], floor):
                yield {**params, key: smaller}

    def fail(self, check: str, detail: str, params: dict) -> FuzzFailure:
        return FuzzFailure(engine=self.name, check=check, detail=detail,
                           params=dict(params))


# ---------------------------------------------------------------------------
# Engine 1: codec round-trips
# ---------------------------------------------------------------------------

class CodecEngine(Engine):
    """Round-trip, behaviour-parity and hostile-input codec checks."""

    name = "codec"
    cost = 1
    shrink_floors = {"n": 1, "extra": 0, "n_insert": 0, "n_erase": 0,
                     "cells": 1, "k": 2, "n_ops": 1, "n_frames": 1,
                     "payload_max": 0}

    _KINDS = ("bloom", "bloom", "iblt", "iblt", "transaction", "tx_list",
              "p1", "p1", "p2", "p2", "p3", "p3_stream",
              "mutation", "mutation", "mutation", "frame", "frame")
    _MUTATION_BASES = ("bloom", "iblt", "transaction", "p1", "p3",
                       "p2_request", "p2_response", "p3_request",
                       "p3_symbols")
    #: Frame-level corruption modes ("split" is the invariance check;
    #: the rest must raise FrameError, never mis-parse or stall).
    _FRAME_MODES = ("split", "split", "split", "bad_magic", "bad_length",
                    "bad_checksum", "midframe_eof")
    _FRAME_COMMANDS = ("version", "verack", "inv", "getdata",
                       "graphene_block", "graphene_p2_request",
                       "graphene_p2_response", "graphene_p3_block",
                       "graphene_p3_request", "graphene_p3_symbols",
                       "getdata_shortids", "block_txs", "getdata_block",
                       "block")
    #: Symbol-stream corruption modes for ``p3_stream`` cases.
    _P3_STREAM_MODES = ("truncate_boundary", "bad_header", "midstream_eof")

    def draw(self, rng: random.Random) -> dict:
        kind = rng.choice(self._KINDS)
        params = {"kind": kind, "seed": rng.getrandbits(24)}
        if kind == "bloom":
            params.update(n=rng.randint(0, 400),
                          fpr=round(10.0 ** -rng.uniform(0.1, 3.0), 6),
                          filter_seed=rng.choice([0, rng.getrandbits(16)]))
        elif kind == "iblt":
            params.update(cells=rng.randint(1, 200), k=rng.randint(2, 6),
                          iblt_seed=rng.getrandbits(16),
                          cell_bytes=rng.choice([4, 11, 12, 12, 13, 14,
                                                 16, 18, 20]),
                          n_insert=rng.randint(0, 80),
                          n_erase=rng.randint(0, 6))
        elif kind in ("transaction", "tx_list"):
            params.update(n=rng.randint(0 if kind == "tx_list" else 1, 40))
        elif kind == "p1":
            params.update(n=rng.randint(20, 250),
                          extra=rng.choice([0, rng.randint(0, 250)]),
                          fraction=rng.choice([1.0, 1.0, 0.95, 0.9]))
        elif kind == "p2":
            params.update(n=rng.randint(60, 250),
                          extra=rng.randint(20, 250),
                          fraction=round(rng.uniform(0.55, 0.95), 2))
        elif kind == "p3":
            params.update(n=rng.randint(20, 250),
                          extra=rng.choice([0, rng.randint(0, 250)]),
                          fraction=rng.choice([1.0, 0.9, 0.7, 0.5]))
        elif kind == "p3_stream":
            params.update(n=rng.randint(40, 160),
                          extra=rng.randint(20, 160),
                          fraction=round(rng.uniform(0.5, 0.9), 2),
                          mode=rng.choice(self._P3_STREAM_MODES),
                          cut_seed=rng.getrandbits(16))
        elif kind == "frame":
            params.update(n_frames=rng.randint(1, 6),
                          payload_max=rng.randint(0, 300),
                          mode=rng.choice(self._FRAME_MODES),
                          split_seed=rng.getrandbits(16))
        else:  # mutation
            params.update(base=rng.choice(self._MUTATION_BASES),
                          n=rng.randint(30, 150),
                          extra=rng.randint(0, 150),
                          fraction=rng.choice([1.0, 0.9, 0.8]),
                          n_ops=rng.randint(1, 6),
                          mut_seed=rng.getrandbits(24))
        return params

    def check(self, params: dict) -> Optional[FuzzFailure]:
        return getattr(self, "_check_" + params["kind"])(params)

    # -- structures -----------------------------------------------------

    def _check_bloom(self, params) -> Optional[FuzzFailure]:
        rng = rng_from("bloom", params["seed"])
        bloom, items = gen.make_bloom(rng, params["n"], params["fpr"],
                                      params["filter_seed"])
        blob = encode_bloom(bloom)
        if len(blob) != bloom.serialized_size():
            return self.fail("bloom-size-model",
                             f"wire {len(blob)}B != model "
                             f"{bloom.serialized_size()}B", params)
        decoded, offset = decode_bloom(blob)
        if offset != len(blob):
            return self.fail("bloom-offset", f"{offset} != {len(blob)}",
                             params)
        if encode_bloom(decoded) != blob:
            return self.fail("bloom-fixed-point",
                             "encode(decode(encode)) differs", params)
        probes = items + gen.make_items(rng, 64)
        if ([p in bloom for p in probes]
                != [p in decoded for p in probes]):
            return self.fail("bloom-membership",
                             "decoded filter answers differently", params)
        if not bloom.is_degenerate and decoded.target_fpr >= 1.0:
            return self.fail("bloom-target-fpr",
                             "decoded non-degenerate filter claims "
                             f"target_fpr={decoded.target_fpr}", params)
        restore_bloom_load(decoded, bloom.count)
        if decoded.count != bloom.count:
            return self.fail("bloom-load-restore",
                             f"count {decoded.count} != {bloom.count}",
                             params)
        if decoded.actual_fpr() != bloom.actual_fpr():
            return self.fail("bloom-actual-fpr",
                             f"{decoded.actual_fpr()} != "
                             f"{bloom.actual_fpr()}", params)
        if bloom.count and not bloom.is_degenerate:
            # Sizing inverts to within the ceil() applied to nbits.
            lo, hi = bloom.target_fpr * 0.59, bloom.target_fpr * 1.000001
            if not lo <= decoded.target_fpr <= hi:
                return self.fail("bloom-target-fpr-estimate",
                                 f"{decoded.target_fpr} outside "
                                 f"[{lo}, {hi}]", params)
        return None

    def _check_iblt(self, params) -> Optional[FuzzFailure]:
        rng = rng_from("iblt", params["seed"])
        iblt, _, _ = gen.make_iblt(
            rng, params["cells"], params["k"], params["iblt_seed"],
            params["cell_bytes"], params["n_insert"], params["n_erase"])
        blob = encode_iblt(iblt)
        decoded, offset = decode_iblt(blob)
        if offset != len(blob):
            return self.fail("iblt-offset", f"{offset} != {len(blob)}",
                             params)
        if 12 <= params["cell_bytes"] <= 18 \
                and len(blob) != iblt.serialized_size():
            return self.fail("iblt-size-model",
                             f"wire {len(blob)}B != model "
                             f"{iblt.serialized_size()}B", params)
        if encode_iblt(decoded) != blob:
            return self.fail("iblt-fixed-point",
                             "encode(decode(encode)) differs", params)
        mine, theirs = iblt.decode(), decoded.decode()
        if (mine.complete, mine.local, mine.remote) != \
                (theirs.complete, theirs.local, theirs.remote):
            return self.fail("iblt-decode-parity",
                             "decoded IBLT peels differently", params)
        return None

    def _check_transaction(self, params) -> Optional[FuzzFailure]:
        rng = rng_from("tx", params["seed"])
        txs = gen.make_transactions(rng, params["n"])
        for tx in txs:
            decoded, offset = decode_transaction(encode_transaction(tx))
            if offset != 41:
                return self.fail("tx-offset", f"{offset} != 41", params)
            if decoded != tx:
                return self.fail("tx-roundtrip",
                                 f"decoded {decoded} != original {tx}",
                                 params)
        # Fee-rate ordering must survive the wire: a mempool sorted on
        # decoded transactions must order like its loopback twin.
        decoded = decode_tx_list(encode_tx_list(txs))[0]
        order = lambda ts: [t.txid for t in  # noqa: E731
                            sorted(ts, key=lambda t: (t.fee_rate, t.txid))]
        if order(txs) != order(decoded):
            return self.fail("tx-fee-ordering",
                             "wire round-trip reorders the mempool",
                             params)
        return None

    def _check_tx_list(self, params) -> Optional[FuzzFailure]:
        rng = rng_from("txlist", params["seed"])
        txs = gen.make_transactions(rng, params["n"])
        blob = encode_tx_list(txs)
        decoded, offset = decode_tx_list(blob)
        if offset != len(blob) or list(decoded) != list(txs):
            return self.fail("tx-list-roundtrip",
                             "decoded list differs", params)
        return None

    # -- protocol messages ----------------------------------------------

    def _bloom_parity(self, tag, original, decoded,
                      params) -> Optional[FuzzFailure]:
        """Load, FPR and membership parity for a wire-decoded filter."""
        if decoded.count != original.count:
            return self.fail(f"{tag}-count",
                             f"restored count {decoded.count} != loopback "
                             f"{original.count}", params)
        if decoded.actual_fpr() != original.actual_fpr():
            return self.fail(f"{tag}-actual-fpr",
                             f"{decoded.actual_fpr()} != "
                             f"{original.actual_fpr()}", params)
        if not original.is_degenerate and original.count:
            lo = original.target_fpr * 0.59
            hi = original.target_fpr * 1.000001
            if not lo <= decoded.target_fpr <= hi:
                return self.fail(f"{tag}-target-fpr",
                                 f"{decoded.target_fpr} outside "
                                 f"[{lo}, {hi}]", params)
        return None

    def _check_p1(self, params) -> Optional[FuzzFailure]:
        from repro.core.params import GrapheneConfig
        from repro.core.protocol1 import receive_protocol1

        payload, sc = gen.make_p1(params)
        blob = encode_protocol1_payload(payload)
        decoded, offset = decode_protocol1_payload(blob)
        if offset != len(blob):
            return self.fail("p1-offset", f"{offset} != {len(blob)}", params)
        if encode_protocol1_payload(decoded) != blob:
            return self.fail("p1-fixed-point",
                             "encode(decode(encode)) differs", params)
        if (decoded.n, decoded.recover) != (payload.n, payload.recover):
            return self.fail("p1-counts", "n/recover drift", params)
        if tuple(decoded.prefilled) != tuple(payload.prefilled):
            return self.fail("p1-prefilled", "prefilled txns drift", params)
        failure = self._bloom_parity("p1-bloom-s", payload.bloom_s,
                                     decoded.bloom_s, params)
        if failure is not None:
            return failure
        if encode_iblt(decoded.iblt_i) != encode_iblt(payload.iblt_i):
            return self.fail("p1-iblt", "IBLT I drifts on the wire", params)
        config = GrapheneConfig()
        mine = receive_protocol1(payload, sc.receiver_mempool, config,
                                 validate_block=sc.block)
        theirs = receive_protocol1(decoded, sc.receiver_mempool, config,
                                   validate_block=sc.block)
        if (mine.success, mine.z) != (theirs.success, theirs.z):
            return self.fail("p1-receiver-parity",
                             f"loopback (success={mine.success}, "
                             f"z={mine.z}) vs wire "
                             f"(success={theirs.success}, z={theirs.z})",
                             params)
        return None

    def _check_p2(self, params) -> Optional[FuzzFailure]:
        from repro.core.params import GrapheneConfig
        from repro.core.protocol2 import finish_protocol2, respond_protocol2

        built = gen.make_p2(params)
        if built is None:  # Protocol 1 succeeded; nothing to check.
            return None
        request, response, state, sc = built
        req_blob = encode_protocol2_request(request)
        arrived_req, offset = decode_protocol2_request(req_blob)
        if offset != len(req_blob):
            return self.fail("p2-req-offset", f"{offset} != {len(req_blob)}",
                             params)
        if encode_protocol2_request(arrived_req) != req_blob:
            return self.fail("p2-req-fixed-point",
                             "encode(decode(encode)) differs", params)
        fields = ("b", "ystar", "z", "xstar", "special_case")
        for name in fields:
            if getattr(arrived_req, name) != getattr(request, name):
                return self.fail("p2-req-fields", f"{name} drifts", params)
        failure = self._bloom_parity("p2-bloom-r", request.bloom_r,
                                     arrived_req.bloom_r, params)
        if failure is not None:
            return failure
        # The responder must behave identically whether the request
        # arrived over loopback or the wire.
        config = GrapheneConfig()
        wire_response = respond_protocol2(arrived_req, sc.block.txs, sc.m,
                                          config)
        resp_blob = encode_protocol2_response(response)
        if encode_protocol2_response(wire_response) != resp_blob:
            return self.fail("p2-responder-parity",
                             "wire-decoded request yields a different "
                             "response", params)
        arrived_resp, offset = decode_protocol2_response(resp_blob)
        if offset != len(resp_blob):
            return self.fail("p2-resp-offset",
                             f"{offset} != {len(resp_blob)}", params)
        if encode_protocol2_response(arrived_resp) != resp_blob:
            return self.fail("p2-resp-fixed-point",
                             "encode(decode(encode)) differs", params)
        if tuple(arrived_resp.missing_txs) != tuple(response.missing_txs):
            return self.fail("p2-resp-txs", "pushed T drifts", params)
        mine = finish_protocol2(response, state, sc.receiver_mempool,
                                config, validate_block=sc.block)
        theirs = finish_protocol2(arrived_resp, state, sc.receiver_mempool,
                                  config, validate_block=sc.block)
        if (mine.success, mine.decode_complete) != \
                (theirs.success, theirs.decode_complete):
            return self.fail("p2-finish-parity",
                             f"loopback ({mine.success}, "
                             f"{mine.decode_complete}) vs wire "
                             f"({theirs.success}, {theirs.decode_complete})",
                             params)
        return None

    def _check_p3(self, params) -> Optional[FuzzFailure]:
        from repro.core.params import GrapheneConfig
        from repro.core.protocol3 import (
            SymbolBatch,
            begin_protocol3,
            continuation,
            ingest_symbols,
        )
        from repro.errors import MalformedIBLTError, ParameterError

        payload, encoder, sc = gen.make_p3(params)
        blob = encode_protocol3_payload(payload)
        decoded, offset = decode_protocol3_payload(blob)
        if offset != len(blob):
            return self.fail("p3-offset", f"{offset} != {len(blob)}", params)
        if encode_protocol3_payload(decoded) != blob:
            return self.fail("p3-fixed-point",
                             "encode(decode(encode)) differs", params)
        if (decoded.n, decoded.recover) != (payload.n, payload.recover):
            return self.fail("p3-counts", "n/recover drift", params)
        if tuple(decoded.prefilled) != tuple(payload.prefilled):
            return self.fail("p3-prefilled", "prefilled txns drift", params)
        failure = self._bloom_parity("p3-bloom-s", payload.bloom_s,
                                     decoded.bloom_s, params)
        if failure is not None:
            return failure
        for col in ("counts", "key_sums", "check_sums"):
            if list(getattr(decoded.symbols, col)) \
                    != list(getattr(payload.symbols, col)):
                return self.fail("p3-symbols",
                                 f"opening batch column {col} drifts on "
                                 "the wire", params)
        # Receiver parity: ingesting the wire-decoded opening must leave
        # the decoder in exactly the loopback state.
        config = GrapheneConfig()

        def begin(opening):
            try:
                state = begin_protocol3(opening, sc.receiver_mempool, config)
            except MalformedIBLTError:
                return ("malformed", None, None), None
            return ("ok", state.decoder.complete,
                    len(state.candidates)), state

        mine, state = begin(payload)
        theirs, wire_state = begin(decoded)
        if mine != theirs:
            return self.fail("p3-receiver-parity",
                             f"loopback {mine} vs wire {theirs}", params)
        if state is not None and not state.decoder.complete:
            # One continuation round, exactly as the engines serve it:
            # the request with filter R where it pays, the answer with
            # the transactions that miss R, each tail read at the offset
            # the version-2 prefix parser returns.
            start = state.symbols
            count, bloom_r = continuation(state, config)
            count = min(count, state.cap - start)
            request = encode_protocol3_request(start, count, bloom_r)
            *window, off = decode_protocol3_request(request)
            pushed = None
            if bloom_r is not None:
                wire_r, off = decode_bloom(request, off)
                pushed = sc.block.columns.outside(wire_r).txs
            if (*window, off) != (start, count, len(request)) \
                    or (continuation(wire_state, config)[1] is None) \
                    != (bloom_r is None) or (pushed is not None and
                                             encode_bloom(wire_r)
                                             != encode_bloom(bloom_r)):
                return self.fail("p3-request-tail",
                                 f"window {window} to offset {off} of "
                                 f"{len(request)}, or filter R drifts on "
                                 "the wire", params)
            counts, key_sums, check_sums = encoder.window(start, count)
            batch = SymbolBatch(start=start, counts=counts,
                                key_sums=key_sums, check_sums=check_sums)
            for tail in ([], None, pushed):
                # A present-but-empty tail, none at all, R's misses.
                batch_blob = encode_symbol_batch(batch, tail)
                wire_batch, batch_off = decode_symbol_batch(batch_blob)
                wire_tail = None
                if tail is not None:
                    wire_tail, batch_off = decode_tx_list(batch_blob,
                                                          batch_off)
                if batch_off != len(batch_blob):
                    return self.fail("p3-batch-offset",
                                     f"{batch_off} != {len(batch_blob)}",
                                     params)
                if encode_symbol_batch(wire_batch, wire_tail) != batch_blob:
                    return self.fail("p3-batch-fixed-point",
                                     "encode(decode(encode)) differs",
                                     params)
            if ingest_symbols(state, batch, pushed or (), config) \
                    != ingest_symbols(wire_state, wire_batch,
                                      wire_tail or (), config) \
                    or state.pushed != wire_state.pushed:
                return self.fail("p3-ingest-parity",
                                 "wire-decoded batch decodes differently",
                                 params)
        if state is not None:
            # The stream is strictly sequential: a desynchronized start
            # is a framing violation, never a silent resync.
            counts, key_sums, check_sums = encoder.window(
                state.symbols + 1, 4)
            shifted = SymbolBatch(start=state.symbols + 1, counts=counts,
                                  key_sums=key_sums, check_sums=check_sums)
            try:
                ingest_symbols(state, shifted)
            except ParameterError:
                pass
            else:
                return self.fail("p3-desync-accepted",
                                 "batch starting past the stream head "
                                 "ingested without error", params)
        return None

    def _check_p3_stream(self, params) -> Optional[FuzzFailure]:
        import struct as _struct

        from repro.core.protocol3 import SymbolBatch, next_batch_size
        from repro.pds.riblt import SYMBOL_BYTES

        payload, encoder, _ = gen.make_p3(params)
        # A plausible wire stream: the opening batch plus two
        # continuation windows, concatenated back to back.
        batches = [payload.symbols]
        start = len(payload.symbols)
        for _ in range(2):
            count = next_batch_size(start)
            counts, key_sums, check_sums = encoder.window(start, count)
            batches.append(SymbolBatch(start=start, counts=counts,
                                       key_sums=key_sums,
                                       check_sums=check_sums))
            start += count
        blobs = [encode_symbol_batch(b) for b in batches]
        stream = b"".join(blobs)
        boundaries = [0]
        for blob in blobs:
            boundaries.append(boundaries[-1] + len(blob))
        rng = rng_from("p3cut", params["cut_seed"])
        mode = params["mode"]
        if mode == "truncate_boundary":
            # A stream cut at any batch boundary parses into exactly the
            # whole batches before the cut -- the receiver then stalls
            # and the recovery ladder treats it as a timeout.  A
            # boundary cut must never raise or mis-frame.
            for k, cut in enumerate(boundaries):
                prefix, off, parsed = stream[:cut], 0, 0
                while off < len(prefix):
                    batch, off = decode_symbol_batch(prefix, off)
                    if list(batch.counts) != list(batches[parsed].counts):
                        return self.fail(
                            "p3-boundary-reparse",
                            f"batch {parsed} drifts after a cut at {cut}",
                            params)
                    parsed += 1
                if off != cut or parsed != k:
                    return self.fail("p3-boundary-framing",
                                     f"cut at {cut}: consumed {off} bytes, "
                                     f"{parsed} batches", params)
            return None
        if mode == "midstream_eof":
            # A disconnect strictly inside a batch leaves a partial
            # batch at the tail; the decoder must raise rather than
            # return fewer symbols than the header promised.
            k = rng.randrange(len(blobs))
            cut = boundaries[k] + rng.randint(1, len(blobs[k]) - 1)
            try:
                off = 0
                while off < cut:
                    _, off = decode_symbol_batch(stream[:cut], off)
            except ReproError:
                return None
            return self.fail("p3-midstream-eof",
                             f"stream cut at {cut}/{len(stream)} bytes "
                             "parsed without error", params)
        # bad_header: a forged count claiming more symbols than the
        # buffer holds must be bounds-checked before any allocation.
        target = blobs[rng.randrange(len(blobs))]
        for claimed in (len(target) // SYMBOL_BYTES + 1, 0xFFFF):
            forged = target[:4] + _struct.pack("<H", claimed) + target[6:]
            try:
                batch, _ = decode_symbol_batch(forged)
            except ReproError:
                continue
            return self.fail("p3-bad-header",
                             f"header claiming {claimed} symbols in a "
                             f"{len(forged)}B buffer decoded {len(batch)}",
                             params)
        return None

    # -- hostile input --------------------------------------------------

    def _base_blob(self, params) -> bytes:
        """A valid encoding of the mutation target."""
        base = params["base"]
        rng = rng_from("mutbase", params["seed"])
        if base == "bloom":
            bloom, _ = gen.make_bloom(rng, params["n"], 0.02, 7)
            return encode_bloom(bloom)
        if base == "iblt":
            iblt, _, _ = gen.make_iblt(rng, max(4, params["n"] // 2), 4,
                                       11, 12, params["n"], 0)
            return encode_iblt(iblt)
        if base == "transaction":
            return encode_transaction(gen.make_transactions(rng, 1)[0])
        p1_params = {"n": params["n"], "extra": params["extra"],
                     "fraction": params["fraction"], "seed": params["seed"]}
        if base == "p1":
            payload, _ = gen.make_p1(p1_params)
            return encode_protocol1_payload(payload)
        if base == "p3":
            payload, _, _ = gen.make_p3(p1_params)
            return encode_protocol3_payload(payload)
        if base == "p3_request":
            bloom, _ = gen.make_bloom(rng, params["n"], 0.2, 7)
            return encode_protocol3_request(5, params["n"], bloom)
        if base == "p3_symbols":
            from repro.core.protocol3 import SymbolBatch
            columns = ([3, -1, 0], [7, 1 << 63, 0], [9, 0xFFFF, 0])
            return encode_symbol_batch(
                SymbolBatch(5, *columns),
                gen.make_transactions(rng, params["n"] % 7))
        p1_params["fraction"] = min(p1_params["fraction"], 0.9)
        built = gen.make_p2(p1_params)
        if built is None:
            return b""
        request, response = built[0], built[1]
        if base == "p2_request":
            return encode_protocol2_request(request)
        return encode_protocol2_response(response)

    def _check_mutation(self, params) -> Optional[FuzzFailure]:
        blob = self._base_blob(params)
        if not blob:
            return None
        mut_rng = rng_from("mut", params["mut_seed"])
        mutated = gen.mutate(blob, mut_rng, params["n_ops"])
        for decoder in _DECODERS:
            try:
                result = decoder(mutated)
            except (ReproError, ValueError):
                continue
            offset = result[1] if isinstance(result, tuple) else len(mutated)
            if offset > len(mutated):
                return self.fail("mutation-overrun",
                                 f"{decoder.__name__} consumed {offset} of "
                                 f"{len(mutated)} bytes", params)
        # Every strict prefix of a valid message must be rejected (the
        # codecs consume every byte, so a prefix always exhausts).
        for cut in sorted(mut_rng.sample(range(len(blob)),
                                         min(8, len(blob)))):
            try:
                self._prefix_decoder(params["base"])(blob[:cut])
            except (ReproError, ValueError):
                continue
            return self.fail("truncation-accepted",
                             f"{params['base']} prefix of {cut}/{len(blob)} "
                             "bytes decoded without error", params)
        return None

    # -- frame envelope -------------------------------------------------

    def _check_frame(self, params) -> Optional[FuzzFailure]:
        rng = rng_from("frame", params["seed"])
        frames = []
        for _ in range(params["n_frames"]):
            command = rng.choice(self._FRAME_COMMANDS)
            payload = rng.randbytes(rng.randint(0, params["payload_max"]))
            frames.append((command, payload))
        stream = b"".join(encode_frame(c, p) for c, p in frames)
        mode = params["mode"]
        if mode == "split":
            split_rng = rng_from("split", params["split_seed"])
            sizes = iter(lambda: split_rng.randint(1, 64), None)
            decoder = FrameDecoder()
            collected = []
            try:
                for chunk in iter_splits(stream, sizes):
                    collected.extend(decoder.feed(chunk))
                decoder.eof()
            except FrameError as exc:
                return self.fail("frame-split-invariance",
                                 f"valid stream rejected: {exc}", params)
            if collected != frames:
                return self.fail("frame-split-invariance",
                                 f"split parse yielded {len(collected)} "
                                 f"frames, expected {len(frames)}", params)
            return None
        # Hostile modes: a corruption of the first (or truncation of the
        # last) frame must surface as FrameError, never a mis-parse.
        buf = bytearray(stream)
        cmd_len = buf[4]
        if mode == "bad_magic":
            buf[0] ^= 0xFF
        elif mode == "bad_length":
            struct.pack_into("<I", buf, 5 + cmd_len, MAX_PAYLOAD + 1)
        elif mode == "bad_checksum":
            # The stored checksum was correct, so any bit flip in its
            # field guarantees a mismatch against the intact payload.
            buf[5 + cmd_len + 4] ^= 0x01
        else:  # midframe_eof
            last_len = frame_overhead(frames[-1][0]) + len(frames[-1][1])
            del buf[len(buf) - rng.randint(1, last_len - 1):]
        decoder = FrameDecoder()
        try:
            decoder.feed(bytes(buf))
            decoder.eof()
        except FrameError:
            return None
        return self.fail("frame-" + mode.replace("_", "-"),
                         "corrupted stream accepted without FrameError",
                         params)

    @staticmethod
    def _prefix_decoder(base: str):
        return {"bloom": decode_bloom, "iblt": decode_iblt,
                "transaction": decode_transaction,
                "p1": decode_protocol1_payload,
                "p2_request": decode_protocol2_request,
                "p2_response": decode_protocol2_response,
                "p3": decode_protocol3_payload,
                # The tailed messages: prefix parser, then the tail.
                "p3_request": lambda blob: decode_bloom(
                    blob, decode_protocol3_request(blob)[2]),
                "p3_symbols": lambda blob: decode_tx_list(
                    blob, decode_symbol_batch(blob)[1])}[base]

    def shrink_candidates(self, params: dict) -> Iterable[dict]:
        yield from super().shrink_candidates(params)
        if params["kind"] == "mutation":
            for simpler in ("transaction", "bloom", "iblt"):
                if params["base"] != simpler:
                    yield {**params, "base": simpler}
        if params.get("fraction", 1.0) != 1.0 and params["kind"] != "p2":
            yield {**params, "fraction": 1.0}


# ---------------------------------------------------------------------------
# Engine 2: PDS differential
# ---------------------------------------------------------------------------

class PDSEngine(Engine):
    """Columnar PDS vs scalar reference vs its own scalar paths."""

    name = "pds"
    cost = 2
    shrink_floors = {"n_a": 0, "n_b": 0, "n_shared": 0, "cells": 4,
                     "k": 2, "n": 0, "probes": 1, "batch": 1}

    def draw(self, rng: random.Random) -> dict:
        struct = rng.choice(["iblt", "bloom", "riblt"])
        params = {"struct": struct, "seed": rng.getrandbits(24)}
        if struct == "iblt":
            params.update(cells=rng.randint(4, 240), k=rng.randint(2, 6),
                          sseed=rng.getrandbits(16),
                          cell_bytes=rng.randint(12, 18),
                          n_shared=rng.randint(0, 60),
                          n_a=rng.randint(0, 90), n_b=rng.randint(0, 45))
        elif struct == "riblt":
            params.update(sseed=rng.getrandbits(16),
                          n_shared=rng.randint(0, 60),
                          n_a=rng.randint(0, 60), n_b=rng.randint(0, 30),
                          batch=rng.randint(1, 32))
        else:
            params.update(n=rng.randint(0, 120),
                          fpr=round(10.0 ** -rng.uniform(0.3, 3.0), 6),
                          fseed=rng.choice([0, rng.getrandbits(16)]),
                          probes=rng.randint(1, 80),
                          width=rng.choice([32, 32, 32, 20]))
        return params

    def check(self, params: dict) -> Optional[FuzzFailure]:
        checker = {"iblt": self._check_iblt, "bloom": self._check_bloom,
                   "riblt": self._check_riblt}[params["struct"]]
        return checker(params)

    def _check_riblt(self, params) -> Optional[FuzzFailure]:
        from repro.errors import MalformedIBLTError
        from repro.pds.riblt import RIBLTDecoder, RIBLTEncoder, reconcile

        rng = rng_from("pds-riblt", params["seed"])
        shared = gen.make_keys(rng, params["n_shared"])
        only_a = gen.make_keys(rng, params["n_a"])
        only_b = gen.make_keys(rng, params["n_b"])
        # Dedupe across the three draws so the expected symmetric
        # difference is exact (64-bit collisions are astronomically
        # unlikely but would make the oracle ambiguous).
        seen: set = set()
        shared = [k for k in shared if not (k in seen or seen.add(k))]
        only_a = [k for k in only_a if not (k in seen or seen.add(k))]
        only_b = [k for k in only_b if not (k in seen or seen.add(k))]
        sender, receiver = shared + only_a, shared + only_b
        seed = params["sseed"]

        # Ratelessness: the stream is a pure function of (keys, seed),
        # so any chunking of windows re-serves identical symbols.
        whole = RIBLTEncoder(sender, seed=seed)
        total = 16 + params["batch"]
        reference = whole.window(0, total)
        chunked = RIBLTEncoder(sender, seed=seed)
        pieces = ([], [], [])
        offset = 0
        while offset < total:
            step = min(params["batch"], total - offset)
            for acc, col in zip(pieces, chunked.window(offset, step)):
                acc.extend(col)
            offset += step
        if tuple(map(list, pieces)) != tuple(map(list, reference)):
            return self.fail("riblt-window-invariance",
                             "chunked windows differ from one straight "
                             "read of the stream", params)
        if (whole._states, whole._next) != (chunked._states, chunked._next):
            return self.fail("riblt-one-shot-vs-incremental",
                             "one read of the stream and the same prefix "
                             "grown in pieces leave different per-key "
                             "states or next indices", params)
        packed = RIBLTEncoder(_np.array(sender, dtype=_np.uint64), seed=seed)
        if packed.window(0, total) != reference:
            return self.fail("riblt-packed-vs-list",
                             "a uint64 key column and the same keys as a "
                             "list give different streams", params)

        # Differential decode: the recovered difference must equal the
        # set-algebra oracle exactly, in both directions.
        try:
            decoder, used = reconcile(sender, receiver, seed=seed,
                                      batch=params["batch"])
        except MalformedIBLTError as exc:
            return self.fail("riblt-no-convergence", str(exc), params)
        if set(decoder.local) != set(only_a):
            return self.fail("riblt-local-oracle",
                             f"decoded {len(decoder.local)} sender-only "
                             f"keys, expected {len(only_a)}", params)
        if set(decoder.remote) != set(only_b):
            return self.fail("riblt-remote-oracle",
                             f"decoded {len(decoder.remote)} receiver-only "
                             f"keys, expected {len(only_b)}", params)

        # Additivity: sender-only keys told mid-stream are keys a fresh
        # decoder was seeded with (same remote, local, completion).
        known = only_a[::2]
        told = RIBLTDecoder(receiver, seed=seed)
        seeded = RIBLTDecoder(receiver + known, seed=seed)
        while told.size < used:
            window = whole.window(told.size, params["batch"])
            told.add_symbols(*window)
            seeded.add_symbols(*window)
            if told.add_known(known) != seeded.complete or (
                    told.remote, told.local) != (
                    seeded.remote, seeded.local | set(known)):
                return self.fail("riblt-known-keys-vs-seeded",
                                 f"told and seeded decoders part at "
                                 f"symbol {told.size}", params)
        return None

    def _check_iblt(self, params) -> Optional[FuzzFailure]:
        from repro.pds.iblt import IBLT
        from repro.pds.reference import ReferenceIBLT, encode_reference_iblt

        rng = rng_from("pds-iblt", params["seed"])
        shared = gen.make_keys(rng, params["n_shared"])
        only_a = gen.make_keys(rng, params["n_a"])
        only_b = gen.make_keys(rng, params["n_b"])
        shape = dict(k=params["k"], seed=params["sseed"],
                     cell_bytes=params["cell_bytes"])
        cells = params["cells"]

        batch = IBLT(cells, **shape)
        batch.update(shared + only_a)
        scalar = IBLT(cells, **shape)
        for key in shared + only_a:
            scalar.insert(key)
        for name in ("_counts", "_key_sums", "_check_sums"):
            if getattr(batch, name).tobytes() != \
                    getattr(scalar, name).tobytes():
                return self.fail("iblt-batch-vs-scalar",
                                 f"column {name} differs between update() "
                                 "and repeated insert()", params)

        packed = IBLT(cells, **shape)
        packed.update(_np.array(shared + only_a, dtype=_np.uint64))
        if encode_iblt(packed) != encode_iblt(batch):
            return self.fail("iblt-packed-vs-list",
                             "a uint64 key column and the same keys as a "
                             "list fold differently", params)

        ref = ReferenceIBLT(cells, **shape)
        ref.update(shared + only_a)
        if encode_iblt(batch) != encode_reference_iblt(ref):
            return self.fail("iblt-vs-reference",
                             "wire bytes differ from the scalar reference "
                             "implementation", params)

        other = IBLT(cells, **shape)
        other.update(shared + only_b)
        ref_other = ReferenceIBLT(cells, **shape)
        ref_other.update(shared + only_b)
        diff, ref_diff = batch.subtract(other), ref.subtract(ref_other)
        if encode_iblt(diff) != encode_reference_iblt(ref_diff):
            return self.fail("iblt-subtract-vs-reference",
                             "subtracted columns differ from reference",
                             params)
        mine, theirs = diff.decode(), ref_diff.decode()
        if (mine.complete, mine.local, mine.remote) != \
                (theirs.complete, theirs.local, theirs.remote):
            return self.fail("iblt-decode-vs-reference",
                             f"live ({mine.complete}, {len(mine.local)}, "
                             f"{len(mine.remote)}) vs reference "
                             f"({theirs.complete}, {len(theirs.local)}, "
                             f"{len(theirs.remote)})", params)
        return None

    def _check_bloom(self, params) -> Optional[FuzzFailure]:
        from repro.pds.bloom import BloomFilter
        from repro.pds.reference import (
            ReferenceBloomFilter,
            encode_reference_bloom,
        )

        rng = rng_from("pds-bloom", params["seed"])
        items = gen.make_items(rng, params["n"], width=params["width"])
        probes = items[: params["n"] // 2] + gen.make_items(
            rng, params["probes"], width=params["width"])

        batch = BloomFilter.from_fpr(params["n"], params["fpr"],
                                     seed=params["fseed"])
        batch.update(items)
        scalar = BloomFilter.from_fpr(params["n"], params["fpr"],
                                      seed=params["fseed"])
        for item in items:
            scalar.insert(item)
        if bytes(batch._bits) != bytes(scalar._bits) \
                or batch.count != scalar.count:
            return self.fail("bloom-batch-vs-scalar",
                             "update() and repeated insert() disagree",
                             params)
        if batch.contains_many(probes) != [p in scalar for p in probes]:
            return self.fail("bloom-contains-many",
                             "contains_many() differs from __contains__",
                             params)

        if params["fseed"] or params["width"] == 32:
            # The packed entry points take 32-byte rows: the items
            # themselves, or (seeded) their digests.
            def rows(batch_items):
                return b"".join([item if len(item) == 32 else sha256(item)
                                 for item in batch_items])
            packed = BloomFilter.from_fpr(params["n"], params["fpr"],
                                          seed=params["fseed"])
            packed.update_packed(rows(items))
            if bytes(packed._bits) != bytes(batch._bits) \
                    or packed.count != batch.count:
                return self.fail("bloom-packed-vs-list",
                                 "update_packed() and update() disagree",
                                 params)
            if packed.contains_packed(rows(probes)).tolist() \
                    != batch.contains_many(probes):
                return self.fail("bloom-contains-packed",
                                 "contains_packed() differs from "
                                 "contains_many()", params)

        ref = ReferenceBloomFilter.from_fpr(params["n"], params["fpr"],
                                            seed=params["fseed"])
        for item in items:
            ref.insert(item)
        if (batch.nbits, batch.k) != (ref.nbits, ref.k):
            return self.fail("bloom-shape-vs-reference",
                             f"(nbits, k) = ({batch.nbits}, {batch.k}) vs "
                             f"reference ({ref.nbits}, {ref.k})", params)
        if encode_bloom(batch) != encode_reference_bloom(ref):
            return self.fail("bloom-vs-reference",
                             "wire bytes differ from the scalar reference "
                             "implementation", params)
        if [p in batch for p in probes] != [p in ref for p in probes]:
            return self.fail("bloom-membership-vs-reference",
                             "membership answers differ from reference",
                             params)
        return None


# ---------------------------------------------------------------------------
# Engine 3: relay scenarios
# ---------------------------------------------------------------------------

#: Commands a fault plan may target (graphene relay path + basics).
FAULT_COMMANDS = ("inv", "getdata", "graphene_block",
                  "graphene_p2_request", "graphene_p2_response",
                  "graphene_p3_block", "graphene_p3_request",
                  "graphene_p3_symbols",
                  "getdata_shortids", "block_txs", "block")


class RelayEngine(Engine):
    """Random lossy topologies through the real node/simulator stack."""

    name = "relay"
    cost = 25
    shrink_floors = {"nodes": 3, "block_size": 4, "extra": 0,
                     "degree": 2}

    def draw(self, rng: random.Random) -> dict:
        nodes = rng.randint(4, 8)
        degree = rng.randint(2, min(3, nodes - 1))
        if nodes * degree % 2:
            degree += 1
        params = {"nodes": nodes, "degree": degree,
                  "block_size": rng.randint(16, 60),
                  "extra": rng.randint(0, 40),
                  "loss": rng.choice([0.0, 0.0, 0.03, 0.08, 0.15]),
                  "protocol": rng.choice([1, 1, 1, 3]),
                  "seed": rng.getrandbits(24), "fault": None}
        if rng.random() < 0.4:
            fault = {"node": rng.randrange(nodes),
                     "peer": rng.getrandbits(8),
                     "drop_nth": sorted(rng.sample(range(8),
                                                   rng.randint(0, 3))),
                     "drop_commands": sorted(
                         rng.sample(FAULT_COMMANDS, rng.randint(0, 2))),
                     "blackhole": ([round(rng.uniform(0.0, 1.0), 3),
                                    round(rng.uniform(1.0, 3.0), 3)]
                                   if rng.random() < 0.3 else None)}
            params["fault"] = fault
        return params

    def shrink_candidates(self, params: dict) -> Iterable[dict]:
        yield from super().shrink_candidates(params)
        if params.get("loss"):
            yield {**params, "loss": 0.0}
        if params.get("fault") is not None:
            yield {**params, "fault": None}
        if params.get("protocol", 1) != 1:
            yield {**params, "protocol": 1}

    def check(self, params: dict) -> Optional[FuzzFailure]:
        import random as _random

        from repro.chain.scenarios import make_block_scenario
        from repro.net import (
            FaultInjector,
            Node,
            RelayProtocol,
            Simulator,
            connect_random_regular,
        )
        from repro.obs import (
            check_metrics_match_costs,
            check_stream_invariants,
            collect_run_metrics,
        )
        from repro.obs.trace import Tracer

        max_events = 500_000
        fault_spec = params.get("fault")
        # One FaultInjector shared across builds (plans are stateful:
        # the message index advances per decision), reset() between
        # them -- the repeated-topology pattern scenario code uses.
        injector = None
        if fault_spec is not None:
            injector = FaultInjector(
                drop_nth=frozenset(fault_spec["drop_nth"]),
                drop_commands=frozenset(fault_spec["drop_commands"]),
                blackhole=(tuple(fault_spec["blackhole"])
                           if fault_spec["blackhole"] else None))

        def build_and_run(trace: bool):
            from repro.core.params import GrapheneConfig

            config = GrapheneConfig(protocol=params.get("protocol", 1))
            simulator = Simulator()
            peers = [Node(f"f{i:02d}", simulator,
                          protocol=RelayProtocol.GRAPHENE, config=config)
                     for i in range(params["nodes"])]
            connect_random_regular(peers, degree=params["degree"],
                                   latency=0.05, bandwidth=1_000_000.0,
                                   rng=_random.Random(params["seed"]),
                                   loss_rate=params["loss"])
            if injector is not None:
                node = peers[fault_spec["node"] % len(peers)]
                neighbours = sorted(node.peers, key=lambda p: p.node_id)
                if neighbours:
                    target = neighbours[
                        fault_spec["peer"] % len(neighbours)]
                    node.inject_fault(target, injector)
            tracer = Tracer(simulator).attach(*peers) if trace else None
            scenario = make_block_scenario(
                n=params["block_size"], extra=params["extra"],
                fraction=1.0, seed=params["seed"] % 997)
            for node in peers[1:]:
                node.mempool.add_many(
                    scenario.receiver_mempool.transactions())
            peers[0].mine_block(scenario.block)
            simulator.run(max_events=max_events)
            return simulator, peers, tracer, scenario

        simulator, peers, tracer, scenario = build_and_run(trace=True)
        if simulator.truncated:
            return self.fail("relay-termination",
                             f"simulation still busy after {max_events} "
                             "events", params)
        root = scenario.block.header.merkle_root
        covered = sum(1 for node in peers if root in node.blocks)
        clean = not params["loss"] and fault_spec is None
        if clean and covered != len(peers):
            return self.fail("relay-lossless-coverage",
                             f"{covered}/{len(peers)} nodes hold the block "
                             "on a lossless run", params)
        for node in peers:
            if root not in node.blocks and root in node.announced_roots:
                return self.fail("relay-dangling-state",
                                 f"{node.node_id} neither holds the block "
                                 "nor abandoned the fetch", params)
        streams = {(node.node_id, r): events for node in peers
                   for r, events in node.relay_telemetry.items()}
        registry = collect_run_metrics(peers, tracer=tracer)
        invariants = check_stream_invariants(streams, prefix="relay")
        invariants.append(
            check_metrics_match_costs(registry, streams, prefix="relay"))
        for inv in invariants:
            if not inv.ok:
                return self.fail("relay-invariant:" + inv.name, inv.detail,
                                 params)
        if injector is not None:
            # Repeated-topology determinism: rebuild the same scenario
            # with the same (reset) fault plan; an identical message
            # stream must reproduce identical drops, clock and coverage.
            first = (covered, injector.dropped, simulator.now,
                     simulator.events_processed)
            injector.reset()
            if injector.dropped or injector._index:
                return self.fail("relay-fault-reset",
                                 "reset() left injector state behind",
                                 params)
            sim2, peers2, _, _ = build_and_run(trace=False)
            covered2 = sum(1 for node in peers2 if root in node.blocks)
            second = (covered2, injector.dropped, sim2.now,
                      sim2.events_processed)
            if first != second:
                return self.fail(
                    "relay-repeat-divergence",
                    f"repeated topology diverged: first "
                    f"(covered, dropped, now, events)={first}, "
                    f"second={second}", params)
        return None


ENGINES = {engine.name: engine
           for engine in (CodecEngine(), PDSEngine(), RelayEngine())}
