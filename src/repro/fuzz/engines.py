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
* :class:`PDSEngine` -- the columnar :class:`~repro.pds.iblt.IBLT`,
  :class:`~repro.pds.bloom.BloomFilter` (every seed, 0 included) and
  rateless encoder against the scalar references in
  :mod:`repro.pds.reference` and against their own per-item paths
  (``update`` vs repeated ``insert``, ``contains_many`` vs
  ``__contains__``), at batch sizes from empty up; an IBLT or encoder
  also against its packed entry point (a ``uint64`` key column).  An
  IBLT decode is checked warm (a memo hit) and cold (the peel past the
  memo), here and in the codec engine's IBLT cases.
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

from repro import codec
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
from repro.core.params import GrapheneConfig
from repro.core.protocol3 import (
    SymbolBatch,
    begin_protocol3,
    continuation,
    ingest_symbols,
    next_batch_size,
)
from repro.errors import MalformedIBLTError, ParameterError, ReproError
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

#: Every decoder the codec exports; each reads every mutated blob.
_DECODERS = tuple(decoder for name, decoder in vars(codec).items()
                  if name.startswith("decode_"))


def _tailed(head, tail):
    """Parse a message whose ``tail`` is read at the offset ``head``
    returns (``tail=None``: a message that carries none) into
    ``((*head fields, tail value), offset)``."""
    def parse(blob):
        *fields, offset = head(blob)
        value = None
        if tail is not None:
            value, offset = tail(blob, offset)
        return (*fields, value), offset
    return parse


def _outcome(result) -> tuple:
    """What a settled receive decided: the outcome, the short IDs left to
    fetch and the reconciled txids in order."""
    return (result.success, result.decode_complete,
            sorted(result.missing_short_ids),
            [tx.txid for tx in result.reconciled])


def _peeled(result) -> tuple:
    """What a peel recovered, ``(complete, local, remote)``, from the
    columnar or the reference IBLT alike."""
    return (result.complete, result.local, result.remote)


def _sibling_decodes(table, tag: int) -> tuple:
    """Decode ``table`` with one cell's count, keySum or checkSum moved by
    one bit (column and cell from ``tag``, no rng draw) warm, through the
    memo, and cold; each side is its peel or ``"malformed"``.  Right
    after ``table`` itself, a memo key blind to that field parts them."""
    sibling = table.copy()
    column = (sibling._counts, sibling._key_sums, sibling._check_sums)
    column[tag % 3][tag % sibling.cells] ^= 1
    sides = []
    for decode in (sibling.decode, sibling._peel_uncached):
        try:
            sides.append(_peeled(decode()))
        except MalformedIBLTError:
            sides.append("malformed")
    return tuple(sides)


def _reference_of(table):
    """The scalar reference IBLT holding ``table``'s cells as they are."""
    from repro.pds.reference import ReferenceIBLT

    ref = ReferenceIBLT(table.cells, k=table.k, seed=table.seed,
                        cell_bytes=table.cell_bytes)
    for cell, count, key_sum, check_sum in zip(
            ref._table, table._counts, table._key_sums, table._check_sums):
        cell.count, cell.key_sum, cell.check_sum = count, key_sum, check_sum
    return ref


def _p2(params: dict, index: int):
    """The request (0) or response (1) of a Protocol 2 exchange, or
    None where Protocol 1 succeeds."""
    built = gen.make_p2({**params, "fraction": min(params["fraction"], 0.9)})
    return None if built is None else built[index]


#: The wire messages, ``kind -> (build, encode, parse)``.
#: ``build(params, rng)`` makes a valid value (None: the scenario has no
#: such message), ``encode`` puts it on the wire, and ``parse(blob)``
#: reads a whole message back, tail included, as ``(value, offset)``.
#: The order is part of every campaign: the mutation check draws its
#: base from it by position.
WIRE = {
    "bloom": (lambda p, rng: gen.make_bloom(rng, p["n"], 0.02, 7)[0],
              encode_bloom, decode_bloom),
    "iblt": (lambda p, rng: gen.make_iblt(rng, max(4, p["n"] // 2), 4, 11,
                                          12, p["n"], 0)[0],
             encode_iblt, decode_iblt),
    "transaction": (lambda p, rng: gen.make_transactions(rng, 1)[0],
                    encode_transaction, decode_transaction),
    "p1": (lambda p, rng: gen.make_p1(p)[0],
           encode_protocol1_payload, decode_protocol1_payload),
    "p3": (lambda p, rng: gen.make_p3(p)[0],
           encode_protocol3_payload, decode_protocol3_payload),
    "p2_request": (lambda p, rng: _p2(p, 0),
                   encode_protocol2_request, decode_protocol2_request),
    "p2_response": (lambda p, rng: _p2(p, 1),
                    encode_protocol2_response, decode_protocol2_response),
    "p3_request": (lambda p, rng: (5, p["n"],
                                   gen.make_bloom(rng, p["n"], 0.2, 7)[0]),
                   lambda value: encode_protocol3_request(*value),
                   _tailed(decode_protocol3_request, decode_bloom)),
    "p3_symbols": (lambda p, rng: (
        SymbolBatch(5, [3, -1, 0], [7, 1 << 63, 0], [9, 0xFFFF, 0]),
        gen.make_transactions(rng, p["n"] % 7)),
        lambda value: encode_symbol_batch(*value),
        _tailed(decode_symbol_batch, decode_tx_list)),
}


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
    #: The parameter whose value names a case's ``_check_<value>``.
    case_key: str = "kind"

    def draw(self, rng: random.Random) -> dict:
        raise NotImplementedError

    def check(self, params: dict) -> Optional[FuzzFailure]:
        return getattr(self, "_check_" + params[self.case_key])(params)

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

    def first_mismatch(self, checks, params) -> Optional[FuzzFailure]:
        """The first ``(check, got, want)`` with ``got != want``, as a
        failure; the list order decides which check names it."""
        for check, got, want in checks:
            if got != want:
                return self.fail(check, f"got {got!r:.80}, want {want!r:.80}",
                                 params)
        return None


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
    #: What every opening carries ahead of its body, besides S.
    _OPENING_FIELDS = ("n", "recover", "prefilled")
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
            params.update(base=rng.choice(tuple(WIRE)),
                          n=rng.randint(30, 150),
                          extra=rng.randint(0, 150),
                          fraction=rng.choice([1.0, 0.9, 0.8]),
                          n_ops=rng.randint(1, 6),
                          mut_seed=rng.getrandbits(24))
        return params

    def _round_trip(self, tag, value, encode, parse, params) -> tuple:
        """Encode ``value`` and parse it back: the parse must read the
        whole blob, and the decoded value must encode to the same bytes.
        Returns ``(blob, decoded, failure)``."""
        blob = encode(value)
        decoded, offset = parse(blob)
        failure = None
        if offset != len(blob):
            failure = self.fail(f"{tag}-offset", f"{offset} != {len(blob)}",
                                params)
        elif encode(decoded) != blob:
            failure = self.fail(f"{tag}-fixed-point",
                                "encode(decode(encode)) differs", params)
        return blob, decoded, failure

    # -- structures -----------------------------------------------------

    def _check_bloom(self, params) -> Optional[FuzzFailure]:
        rng = rng_from("bloom", params["seed"])
        bloom, items = gen.make_bloom(rng, params["n"], params["fpr"],
                                      params["filter_seed"])
        blob, decoded, failure = self._round_trip(
            "bloom", bloom, encode_bloom, decode_bloom, params)
        if len(blob) != bloom.serialized_size():
            return self.fail("bloom-size-model",
                             f"wire {len(blob)}B != model "
                             f"{bloom.serialized_size()}B", params)
        probes = items + gen.make_items(rng, 64)
        failure = failure or self.first_mismatch(
            [("bloom-membership", [p in decoded for p in probes],
              [p in bloom for p in probes])], params)
        if failure is not None:
            return failure
        if not bloom.is_degenerate and decoded.target_fpr >= 1.0:
            return self.fail("bloom-target-fpr",
                             "decoded non-degenerate filter claims "
                             f"target_fpr={decoded.target_fpr}", params)
        restore_bloom_load(decoded, bloom.count)
        return self._bloom_parity("bloom-restored", bloom, decoded, params)

    def _check_iblt(self, params) -> Optional[FuzzFailure]:
        rng = rng_from("iblt", params["seed"])
        iblt, _, _ = gen.make_iblt(
            rng, params["cells"], params["k"], params["iblt_seed"],
            params["cell_bytes"], params["n_insert"], params["n_erase"])
        blob, decoded, failure = self._round_trip(
            "iblt", iblt, encode_iblt, decode_iblt, params)
        if failure is not None:
            return failure
        if 12 <= params["cell_bytes"] <= 18 \
                and len(blob) != iblt.serialized_size():
            return self.fail("iblt-size-model",
                             f"wire {len(blob)}B != model "
                             f"{iblt.serialized_size()}B", params)
        # ``decoded`` holds ``iblt``'s cells, so one of their decodes is
        # a memo hit: the peel past the memo and the reference peel are
        # the independent answers.
        mine = _peeled(iblt._peel_uncached())
        return self.first_mismatch([
            ("iblt-decode-parity", _peeled(decoded.decode()), mine),
            ("iblt-decode-memo", _peeled(iblt.decode()), mine),
            ("iblt-decode-memo-sibling",
             *_sibling_decodes(iblt, params["seed"])),
            ("iblt-decode-vs-reference",
             _peeled(_reference_of(decoded).decode()), mine)], params)

    def _check_transaction(self, params) -> Optional[FuzzFailure]:
        rng = rng_from("tx", params["seed"])
        txs = gen.make_transactions(rng, params["n"])
        for tx in txs:
            _, decoded, failure = self._round_trip(
                "tx", tx, encode_transaction, decode_transaction, params)
            failure = failure or self.first_mismatch(
                [("tx-roundtrip", decoded, tx)], params)
            if failure is not None:
                return failure
        # Fee-rate ordering must survive the wire: a mempool sorted on
        # decoded transactions must order like its loopback twin.
        decoded = decode_tx_list(encode_tx_list(txs))[0]
        order = lambda ts: [t.txid for t in  # noqa: E731
                            sorted(ts, key=lambda t: (t.fee_rate, t.txid))]
        return self.first_mismatch(
            [("tx-fee-ordering", order(decoded), order(txs))], params)

    def _check_tx_list(self, params) -> Optional[FuzzFailure]:
        rng = rng_from("txlist", params["seed"])
        txs = gen.make_transactions(rng, params["n"])
        _, decoded, failure = self._round_trip(
            "tx-list", txs, encode_tx_list, decode_tx_list, params)
        return failure or self.first_mismatch(
            [("tx-list-roundtrip", list(decoded), list(txs))], params)

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

    def _check_message(self, tag, message, kind, fields, bloom,
                       params) -> tuple:
        """Round-trip a protocol message of ``kind`` and compare its head:
        each of ``fields``, then the filter ``bloom = (check, attribute)``
        by :meth:`_bloom_parity`.  Returns ``(decoded, failure)``."""
        _, encode, parse = WIRE[kind]
        _, decoded, failure = self._round_trip(tag, message, encode, parse,
                                               params)
        for name in fields:
            if failure is None \
                    and getattr(decoded, name) != getattr(message, name):
                failure = self.fail(f"{tag}-fields", f"{name} drifts", params)
        if failure is None:
            check, name = bloom
            failure = self._bloom_parity(check, getattr(message, name),
                                         getattr(decoded, name), params)
        return decoded, failure

    def _check_p1(self, params) -> Optional[FuzzFailure]:
        from repro.core.protocol1 import receive_protocol1

        payload, sc = gen.make_p1(params)
        decoded, failure = self._check_message(
            "p1", payload, "p1", self._OPENING_FIELDS,
            ("p1-bloom-s", "bloom_s"), params)
        if failure is not None:
            return failure
        config = GrapheneConfig()
        mine = receive_protocol1(payload, sc.receiver_mempool, config,
                                 validate_block=sc.block)
        theirs = receive_protocol1(decoded, sc.receiver_mempool, config,
                                   validate_block=sc.block)
        return self.first_mismatch([
            ("p1-iblt", encode_iblt(decoded.iblt_i),
             encode_iblt(payload.iblt_i)),
            ("p1-receiver-parity", (theirs.success, theirs.z),
             (mine.success, mine.z)),
        ], params)

    def _check_p2(self, params) -> Optional[FuzzFailure]:
        from repro.core.protocol2 import finish_protocol2, respond_protocol2

        built = gen.make_p2(params)
        if built is None:  # Protocol 1 succeeded; nothing to check.
            return None
        request, response, state, sc = built
        arrived_req, failure = self._check_message(
            "p2-req", request, "p2_request",
            ("b", "ystar", "z", "xstar", "special_case"),
            ("p2-bloom-r", "bloom_r"), params)
        if failure is not None:
            return failure
        # The responder must behave identically whether the request
        # arrived over loopback or the wire.
        config = GrapheneConfig()
        wire_response = respond_protocol2(arrived_req, sc.block.txs, sc.m,
                                          config)
        resp_blob, arrived_resp, failure = self._round_trip(
            "p2-resp", response, encode_protocol2_response,
            decode_protocol2_response, params)
        if encode_protocol2_response(wire_response) != resp_blob:
            return self.fail("p2-responder-parity",
                             "wire-decoded request yields a different "
                             "response", params)
        if failure is not None:
            return failure
        mine = finish_protocol2(response, state, sc.receiver_mempool,
                                config, validate_block=sc.block)
        theirs = finish_protocol2(arrived_resp, state, sc.receiver_mempool,
                                  config, validate_block=sc.block)
        return self.first_mismatch([
            ("p2-resp-txs", tuple(arrived_resp.missing_txs),
             tuple(response.missing_txs)),
            ("p2-finish-parity", _outcome(theirs), _outcome(mine)),
        ], params)

    def _check_p3(self, params) -> Optional[FuzzFailure]:
        payload, encoder, sc = gen.make_p3(params)
        decoded, failure = self._check_message(
            "p3", payload, "p3", self._OPENING_FIELDS,
            ("p3-bloom-s", "bloom_s"), params)
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
                    len(state.candidate_set)), state

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
            _, (*_, wire_r), failure = self._round_trip(
                "p3-request", (start, count, bloom_r), WIRE["p3_request"][1],
                _tailed(decode_protocol3_request,
                        None if bloom_r is None else decode_bloom), params)
            if failure is None and (continuation(wire_state, config)[1]
                                    is None) != (bloom_r is None):
                failure = self.fail("p3-request-tail",
                                    "filter R rides one request and not "
                                    "the other", params)
            if failure is not None:
                return failure
            pushed = None if wire_r is None \
                else sc.block.columns.outside(wire_r).txs
            batch = SymbolBatch(start, *encoder.window(start, count))
            for tail in ([], None, pushed):
                # A present-but-empty tail, none at all, R's misses.
                _, (wire_batch, wire_tail), failure = self._round_trip(
                    "p3-batch", (batch, tail), WIRE["p3_symbols"][1],
                    _tailed(decode_symbol_batch,
                            None if tail is None else decode_tx_list), params)
                if failure is not None:
                    return failure
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
            shifted = SymbolBatch(state.symbols + 1,
                                  *encoder.window(state.symbols + 1, 4))
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
        from repro.pds.riblt import SYMBOL_BYTES

        payload, encoder, _ = gen.make_p3(params)
        # A plausible wire stream: the opening batch plus two
        # continuation windows, concatenated back to back.
        batches = [payload.symbols]
        start = len(payload.symbols)
        for _ in range(2):
            count = next_batch_size(start)
            batches.append(SymbolBatch(start, *encoder.window(start, count)))
            start += count
        blobs = [encode_symbol_batch(b) for b in batches]
        stream = b"".join(blobs)
        boundaries = [0]
        for blob in blobs:
            boundaries.append(boundaries[-1] + len(blob))

        def parse(data) -> list:
            """The counts of each batch in ``data``, read back to back."""
            parsed, off = [], 0
            while off < len(data):
                batch, off = decode_symbol_batch(data, off)
                parsed.append(list(batch.counts))
            return parsed

        rng = rng_from("p3cut", params["cut_seed"])
        mode = params["mode"]
        if mode == "truncate_boundary":
            # A stream cut at any batch boundary parses into exactly the
            # whole batches before the cut -- the receiver then stalls
            # and the recovery ladder treats it as a timeout.  A
            # boundary cut must never raise or mis-frame.
            for k, cut in enumerate(boundaries):
                parsed = parse(stream[:cut])
                if parsed != [list(b.counts) for b in batches[:k]]:
                    return self.fail("p3-boundary-framing",
                                     f"cut at {cut} parses to {len(parsed)} "
                                     f"batches, not the {k} before it",
                                     params)
            return None
        if mode == "midstream_eof":
            # A disconnect strictly inside a batch leaves a partial
            # batch at the tail; the decoder must raise rather than
            # return fewer symbols than the header promised.
            k = rng.randrange(len(blobs))
            cut = boundaries[k] + rng.randint(1, len(blobs[k]) - 1)
            try:
                parse(stream[:cut])
            except ReproError:
                return None
            return self.fail("p3-midstream-eof",
                             f"stream cut at {cut}/{len(stream)} bytes "
                             "parsed without error", params)
        # bad_header: a forged count claiming more symbols than the
        # buffer holds must be bounds-checked before any allocation.
        target = blobs[rng.randrange(len(blobs))]
        for claimed in (len(target) // SYMBOL_BYTES + 1, 0xFFFF):
            forged = target[:4] + struct.pack("<H", claimed) + target[6:]
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

    def _check_mutation(self, params) -> Optional[FuzzFailure]:
        build, encode, parse = WIRE[params["base"]]
        value = build(params, rng_from("mutbase", params["seed"]))
        if value is None:
            return None
        blob = encode(value)
        mut_rng = rng_from("mut", params["mut_seed"])
        mutated = gen.mutate(blob, mut_rng, params["n_ops"])
        for decoder in _DECODERS:
            try:
                result = decoder(mutated)
            except (ReproError, ValueError):
                continue
            # A decoder returns its offset last; the block header decoder
            # returns none, having bounded its 80 bytes by the buffer.
            offset = result[-1] if isinstance(result, tuple) else len(mutated)
            if offset > len(mutated):
                return self.fail("mutation-overrun",
                                 f"{decoder.__name__} consumed {offset} of "
                                 f"{len(mutated)} bytes", params)
        # Every strict prefix of a valid message must be rejected (the
        # codecs consume every byte, so a prefix always exhausts).
        for cut in sorted(mut_rng.sample(range(len(blob)),
                                         min(8, len(blob)))):
            try:
                parse(blob[:cut])
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
            return self.first_mismatch(
                [("frame-split-invariance", collected, frames)], params)
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
    case_key = "struct"
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

    def _check_riblt(self, params) -> Optional[FuzzFailure]:
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
        packed = RIBLTEncoder(_np.array(sender, dtype=_np.uint64), seed=seed)
        failure = self.first_mismatch([
            ("riblt-window-invariance", tuple(map(list, pieces)),
             tuple(map(list, reference))),
            # The same prefix grown in pieces: the same per-key states.
            ("riblt-one-shot-vs-incremental",
             (chunked._states, chunked._next), (whole._states, whole._next)),
            ("riblt-packed-vs-list", packed.window(0, total), reference),
        ], params)
        if failure is not None:
            return failure

        # Differential decode: the recovered difference must equal the
        # set-algebra oracle exactly, in both directions.
        try:
            decoder, used = reconcile(sender, receiver, seed=seed,
                                      batch=params["batch"])
        except MalformedIBLTError as exc:
            return self.fail("riblt-no-convergence", str(exc), params)
        failure = self.first_mismatch([
            ("riblt-local-oracle", set(decoder.local), set(only_a)),
            ("riblt-remote-oracle", set(decoder.remote), set(only_b)),
        ], params)
        if failure is not None:
            return failure

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
        packed = IBLT(cells, **shape)
        packed.update(_np.array(shared + only_a, dtype=_np.uint64))
        ref = ReferenceIBLT(cells, **shape)
        ref.update(shared + only_a)

        other = IBLT(cells, **shape)
        other.update(shared + only_b)
        ref_other = ReferenceIBLT(cells, **shape)
        ref_other.update(shared + only_b)
        diff, ref_diff = batch.subtract(other), ref.subtract(ref_other)
        mine, theirs = _peeled(diff.decode()), _peeled(ref_diff.decode())
        sibling = _sibling_decodes(diff, params["seed"])
        # A second subtract decodes from the memo; the peel past it must
        # agree with both.
        warm = _peeled(batch.subtract(other).decode())
        cold = _peeled(diff._peel_uncached())
        columns = ("_counts", "_key_sums", "_check_sums")
        return self.first_mismatch([
            ("iblt-batch-vs-scalar",
             [getattr(batch, name).tobytes() for name in columns],
             [getattr(scalar, name).tobytes() for name in columns]),
            ("iblt-packed-vs-list", encode_iblt(packed), encode_iblt(batch)),
            ("iblt-vs-reference", encode_iblt(batch),
             encode_reference_iblt(ref)),
            ("iblt-subtract-vs-reference", encode_iblt(diff),
             encode_reference_iblt(ref_diff)),
            ("iblt-decode-vs-reference", mine, theirs),
            ("iblt-decode-memo-vs-peel", warm, cold),
            ("iblt-decode-memo-sibling", *sibling),
            ("iblt-peel-vs-reference", cold, theirs),
        ], params)

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
        ref = ReferenceBloomFilter.from_fpr(params["n"], params["fpr"],
                                            seed=params["fseed"])
        for item in items:
            ref.insert(item)
        return self.first_mismatch([
            ("bloom-batch-vs-scalar", (bytes(batch._bits), batch.count),
             (bytes(scalar._bits), scalar.count)),
            ("bloom-contains-many", batch.contains_many(probes),
             [p in scalar for p in probes]),
            ("bloom-shape-vs-reference", (batch.nbits, batch.k),
             (ref.nbits, ref.k)),
            ("bloom-vs-reference", encode_bloom(batch),
             encode_reference_bloom(ref)),
            ("bloom-membership-vs-reference", [p in batch for p in probes],
             [p in ref for p in probes]),
        ], params)


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
            config = GrapheneConfig(protocol=params.get("protocol", 1))
            simulator = Simulator()
            peers = [Node(f"f{i:02d}", simulator,
                          protocol=RelayProtocol.GRAPHENE, config=config)
                     for i in range(params["nodes"])]
            connect_random_regular(peers, degree=params["degree"],
                                   latency=0.05, bandwidth=1_000_000.0,
                                   rng=random.Random(params["seed"]),
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
            left_behind = (injector.dropped, injector._index)
            sim2, peers2, _, _ = build_and_run(trace=False)
            covered2 = sum(1 for node in peers2 if root in node.blocks)
            second = (covered2, injector.dropped, sim2.now,
                      sim2.events_processed)
            return self.first_mismatch([
                ("relay-fault-reset", left_behind, (0, 0)),
                ("relay-repeat-divergence", second, first)], params)
        return None


ENGINES = {engine.name: engine
           for engine in (CodecEngine(), PDSEngine(), RelayEngine())}
