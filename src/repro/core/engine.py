"""Message-driven Graphene engines: the single canonical relay flow.

These sender/receiver state machines are the *only* implementation of
the Graphene control flow (paper Figs. 2-3: Protocol 1 -> Protocol 2
fallback -> ping-pong -> short-id fetch).  Every other layer is a thin
driver over them:

* :class:`~repro.core.session.BlockRelaySession` runs the pair over an
  in-memory :class:`~repro.net.transport.LoopbackTransport`;
* :class:`~repro.net.node.Node` routes wire messages to engines through
  the :data:`SENDER_STEPS` / :data:`RECEIVER_STEPS` tables and ships
  actions over simulated links;
* mempool synchronization (paper 3.2.1) is the same engines in
  ``mode="mempool"``: the sender treats its whole mempool as the block,
  the receiver skips Merkle validation, and a Protocol 1 decode that
  leaves missing short IDs fetches them instead of escalating.

Every step consumes an encoded byte string off the wire and returns an
:class:`EngineAction` -- the next message to send (with its
:class:`~repro.core.telemetry.MessageEvent` byte accounting attached),
completion, or failure.  The receiver engine records events for *both*
directions of the exchange, so its telemetry list is the canonical
per-relay stream that :meth:`CostBreakdown.from_events
<repro.core.sizing.CostBreakdown.from_events>` folds into the paper's
cost accounting.

Message flow (paper Figs. 2-3)::

    receiver                          sender
    GrapheneReceiverEngine            GrapheneSenderEngine(block)
      start() -> getdata(m)   ---->     on_getdata(m) -> P1 payload
      on_p1_payload(blob)     <----
        -> DONE(txs)  or  P2 request
                              ---->     on_p2_request(blob) -> response
      on_p2_response(blob)    <----
        -> DONE(txs)  or  short-id getdata
                              ---->     on_shortid_request(blob) -> txs
      on_tx_list(blob)        <----
        -> DONE(txs)  or  FAILED
"""

from __future__ import annotations

import enum
import logging
import struct
from dataclasses import dataclass
from typing import Optional

from repro.chain.block import Block, BlockHeader
from repro.chain.columns import TxColumns
from repro.chain.mempool import Mempool
from repro.codec import (
    decode_block_header,
    decode_bloom,
    decode_protocol1_payload,
    decode_protocol2_request,
    decode_protocol2_response,
    decode_protocol3_payload,
    decode_protocol3_request,
    decode_symbol_batch,
    decode_tx_list,
    encode_protocol1_payload,
    encode_protocol2_request,
    encode_protocol2_response,
    encode_protocol3_payload,
    encode_protocol3_request,
    encode_symbol_batch,
    encode_tx_list,
)
from repro.core.params import GrapheneConfig
from repro.core.protocol1 import build_protocol1, receive_protocol1
from repro.core.protocol2 import (
    Protocol2ReceiverState,
    build_protocol2_request,
    finish_protocol2,
    respond_protocol2,
)
from repro.core.protocol3 import (
    Protocol3ReceiverState,
    SymbolBatch,
    begin_protocol3,
    build_protocol3,
    continuation,
    finish_protocol3,
    ingest_symbols,
    make_encoder,
    sender_stream_cap,
)
from repro.core.sizing import (
    getdata_bytes,
    inv_bytes,
    p3_request_bytes,
    short_id_request_bytes,
)
from repro.core.telemetry import EventRecorder, MessageEvent
from repro.errors import MalformedIBLTError, ParameterError, ProtocolFailure
from repro.utils.memo import BoundedMemo
from repro.utils.serialization import compact_size_len


logger = logging.getLogger(__name__)

#: Wire command -> receiver engine step (what a node's inbox does).
RECEIVER_STEPS = {
    "graphene_block": "on_p1_payload",
    "graphene_p2_response": "on_p2_response",
    "graphene_p3_block": "on_p3_payload",
    "graphene_p3_symbols": "on_p3_symbols",
    "block_txs": "on_tx_list",
}

#: Wire command -> sender engine step.
SENDER_STEPS = {
    "getdata": "on_getdata",
    "graphene_p2_request": "on_p2_request",
    "graphene_p3_request": "on_p3_request",
    "getdata_shortids": "on_shortid_request",
}

#: Marker byte appended to the getdata payload when the receiver wants
#: the rateless exchange; a bare 4-byte getdata means Protocol 1.
P3_GETDATA_MARKER = 3


class ReceiverPhase(enum.Enum):
    """Where the receiver stands in the exchange."""

    IDLE = "idle"
    WAIT_P1 = "wait_p1"
    WAIT_P2 = "wait_p2"
    WAIT_P3 = "wait_p3"
    WAIT_P3_SYMBOLS = "wait_p3_symbols"
    WAIT_TXS = "wait_txs"
    DONE = "done"
    FAILED = "failed"


#: Response command each in-flight receiver phase is waiting for.
_AWAITED_BY_PHASE = {
    ReceiverPhase.WAIT_P1: "graphene_block",
    ReceiverPhase.WAIT_P2: "graphene_p2_response",
    ReceiverPhase.WAIT_P3: "graphene_p3_block",
    ReceiverPhase.WAIT_P3_SYMBOLS: "graphene_p3_symbols",
    ReceiverPhase.WAIT_TXS: "block_txs",
}


#: Protocol -> (wire command, telemetry phase, ``CostBreakdown`` part of
#: the body) of its opening; everything else about the two is shared.
_OPENINGS = {1: ("graphene_block", "p1", "iblt_i"),
             3: ("graphene_p3_block", "p3", "riblt")}


class ActionKind(enum.Enum):
    """What the caller should do with an engine step's result."""

    SEND = "send"      # transmit `message` (with `command`) to the peer
    DONE = "done"      # block complete; `txs` holds the ordered list
    FAILED = "failed"  # give up (a real client refetches the full block)


@dataclass(frozen=True)
class EngineAction:
    """One step's outcome: a message to send, completion, or failure."""

    kind: ActionKind
    command: str = ""
    message: bytes = b""
    txs: Optional[list] = None
    #: On DONE: the reconstructed block under the *received* header, so
    #: chain linkage (prev_hash, nonce) survives the relay.
    block: Optional[Block] = None
    #: On SEND: the telemetry record for this message; its ``parts``
    #: carry the analytic byte accounting the transports charge.
    event: Optional[MessageEvent] = None


def _opening_parts(payload, protocol: int) -> dict:
    _, _, body_part = _OPENINGS[protocol]
    bloom, body = payload.bloom_bytes, payload.body_bytes
    return {"bloom_s": bloom, body_part: body,
            "counts": payload.wire_size() - bloom - body}


def _p2_request_parts(request) -> dict:
    return {"bloom_r": request.bloom_bytes,
            "counts": request.wire_size() - request.bloom_bytes}


def _p2_response_parts(response) -> dict:
    return {"iblt_j": response.iblt_bytes,
            "bloom_f": response.bloom_f_bytes,
            "pushed_tx_bytes": response.txs_bytes,
            "counts": (response.wire_size() - response.iblt_bytes
                       - response.bloom_f_bytes - response.txs_bytes)}


def _p3_symbols_parts(batch, pushed) -> dict:
    parts = {"riblt": batch.wire_size()}
    if pushed is not None:
        parts["pushed_tx_bytes"] = sum(tx.size for tx in pushed)
        parts["counts"] = compact_size_len(len(pushed))
    return parts


class GrapheneSenderEngine:
    """Serves one block (or a whole mempool) to any number of peers.

    Pass ``block`` for block relay; pass ``txs`` (a transaction list or
    a :class:`~repro.chain.columns.TxColumns`, typically
    ``mempool.columns()``) for mempool synchronization, where there is
    no header to prefix and no coinbase to prefill.  Either way every
    structure served is built from the one columnar snapshot.

    ``telemetry`` collects a :class:`MessageEvent` per served message;
    pass a shared (or traced, see :mod:`repro.obs.trace`) list to
    observe the serving side of an exchange externally.
    """

    def __init__(self, block: Optional[Block] = None,
                 config: Optional[GrapheneConfig] = None,
                 txs: Optional[list] = None,
                 telemetry: Optional[list] = None):
        if (block is None) == (txs is None):
            raise ParameterError(
                "exactly one of block= or txs= must be provided")
        self.block = block
        self.columns = block.columns if block is not None \
            else TxColumns.of(txs)
        self.mempool_mode = block is None
        self.config = config or GrapheneConfig()
        self.telemetry = telemetry if telemetry is not None \
            else EventRecorder()
        #: Wire command -> bound step method, resolved once instead of
        #: a ``getattr`` per message (see :meth:`handle`).
        self._steps = {command: getattr(self, step)
                       for command, step in SENDER_STEPS.items()}
        #: Served openings keyed by ``(protocol, m)``, m the requester's
        #: mempool count: ``build_protocol1`` / ``build_protocol3`` are
        #: deterministic in (txs, m, config), and a sender fans the same
        #: block out to many peers whose counts repeat.  Bounded at 64
        #: openings (each entry counts 1).
        self._openings = BoundedMemo(64, lambda key, opening: 1)
        #: Openings built, i.e. ``_openings`` misses (read-only counter).
        self.openings_built = 0
        #: The one shared Protocol 3 symbol stream -- it depends only on
        #: (txs, seed), so every peer and every continuation reads the
        #: same prefix.
        self._p3_encoder = None

    def _emit(self, command: str, message: bytes, phase: str,
              roundtrip: int, parts: dict) -> EngineAction:
        event = MessageEvent(command=command, direction="sent",
                             role="sender", phase=phase,
                             roundtrip=roundtrip, parts=parts)
        self.telemetry.append(event)
        return EngineAction(ActionKind.SEND, command, message, event=event)

    def on_getdata(self, message: bytes) -> EngineAction:
        """Handle a getdata carrying the receiver's mempool count.

        A fifth byte equal to :data:`P3_GETDATA_MARKER` selects the
        rateless exchange; the bare 4-byte form is Protocol 1.
        """
        if len(message) < 4:
            raise ParameterError("getdata too short")
        (m,) = struct.unpack_from("<I", message, 0)
        protocol = 3 if len(message) >= 5 \
            and message[4] == P3_GETDATA_MARKER else 1
        cached = self._openings.get((protocol, m))
        if cached is None:
            cached = self._build_opening(protocol, m)
        blob, parts = cached
        command, phase, _ = _OPENINGS[protocol]
        return self._emit(command, blob, phase, 1, dict(parts))

    def _build_opening(self, protocol: int, m: int) -> tuple:
        """Build, encode and cache the opening served to mempool count
        ``m``: [header +] counts + prefilled + S + (I | first symbols)."""
        if protocol == 3:
            payload, _ = build_protocol3(
                self.columns, m, self.config,
                auto_prefill_coinbase=not self.mempool_mode,
                encoder=self._symbol_stream())
            blob = encode_protocol3_payload(payload)
        else:
            payload = build_protocol1(
                self.columns, m, self.config,
                auto_prefill_coinbase=not self.mempool_mode)
            blob = encode_protocol1_payload(payload)
        if not self.mempool_mode:
            blob = self.block.header.serialize() + blob
        self.openings_built += 1
        cached = (blob, _opening_parts(payload, protocol))
        self._openings.remember((protocol, m), cached)
        return cached

    def _symbol_stream(self):
        """The sender's one shared rateless symbol stream, built lazily."""
        if self._p3_encoder is None:
            self._p3_encoder = make_encoder(self.columns, self.config)
        return self._p3_encoder

    def on_p3_request(self, message: bytes) -> EngineAction:
        """Serve a continuation window of coded symbols and, where the
        request carries filter R, the transactions that miss it.

        Both are pure functions of the block (and R): any window can be
        served to any peer at any time -- including verbatim
        retransmissions after a receiver-side timeout.
        """
        start, count, offset = decode_protocol3_request(message)
        stream = self._symbol_stream()
        if start + count > sender_stream_cap(stream.key_count):
            raise ParameterError(
                f"symbol window [{start}, {start + count}) beyond the "
                f"serving cap for {stream.key_count} keys")
        counts, key_sums, check_sums = stream.window(start, count)
        batch = SymbolBatch(start=start, counts=counts, key_sums=key_sums,
                            check_sums=check_sums)
        pushed = None
        if offset < len(message):
            bloom_r, _ = decode_bloom(message, offset)
            pushed = self.columns.outside(bloom_r).txs
        return self._emit("graphene_p3_symbols",
                          encode_symbol_batch(batch, pushed), "p3", 2,
                          _p3_symbols_parts(batch, pushed))

    def on_p2_request(self, message: bytes) -> EngineAction:
        """Handle a Protocol 2 request (R, y*, b)."""
        if len(message) < 4:
            raise ParameterError("p2 request too short")
        (m,) = struct.unpack_from("<I", message, 0)
        request, _ = decode_protocol2_request(message, 4)
        response = respond_protocol2(request, self.columns, m, self.config)
        return self._emit("graphene_p2_response",
                          encode_protocol2_response(response), "p2", 2,
                          _p2_response_parts(response))

    def on_shortid_request(self, message: bytes) -> EngineAction:
        """Serve transactions requested by short ID."""
        width = self.config.short_id_bytes
        if len(message) % width:
            raise ParameterError(
                f"short-id request of {len(message)} bytes is not a "
                f"multiple of short_id_bytes={width}")
        wanted = {
            int.from_bytes(message[i:i + width], "little")
            for i in range(0, len(message), width)
        }
        txs = self.columns.take(
            self.columns.rows_with_short_ids(wanted, width)).txs
        return self._emit("block_txs", encode_tx_list(txs), "fetch", 3,
                          {"fetched_tx_bytes": sum(tx.size for tx in txs)})

    def handle(self, command: str, message) -> EngineAction:
        """Dispatch on the wire command via :data:`SENDER_STEPS`.

        Inbound ``bytes`` are wrapped in a :class:`memoryview` so the
        decode stack reads the receive buffer in place (zero-copy).
        """
        step = self._steps.get(command)
        if step is None:
            raise ParameterError(f"sender cannot handle {command!r}")
        return step(memoryview(message) if type(message) is bytes
                    else message)


class GrapheneReceiverEngine:
    """Reassembles one block (or mempool view), message by message.

    ``mode="block"`` (default) validates against the Merkle root of the
    received header and escalates any Protocol 1 shortfall to
    Protocol 2.  ``mode="mempool"`` runs paper 3.2.1: no header, no
    Merkle check, and a complete Protocol 1 decode with missing short
    IDs fetches them directly.

    ``telemetry`` collects a :class:`MessageEvent` per message in both
    directions; pass a shared list to aggregate streams externally.
    """

    def __init__(self, mempool: Mempool,
                 config: Optional[GrapheneConfig] = None,
                 mode: str = "block",
                 telemetry: Optional[list] = None):
        if mode not in ("block", "mempool"):
            raise ParameterError(f"unknown engine mode {mode!r}")
        self.mempool = mempool
        self.config = config or GrapheneConfig()
        if self.config.protocol not in (1, 3):
            raise ParameterError(
                f"unknown protocol {self.config.protocol}; expected 1 "
                "(classic, P2 fallback) or 3 (rateless)")
        self.mode = mode
        self.telemetry = telemetry if telemetry is not None \
            else EventRecorder()
        self._steps = {command: getattr(self, step)
                       for command, step in RECEIVER_STEPS.items()}
        self.phase = ReceiverPhase.IDLE
        self.header: Optional[BlockHeader] = None
        self._p2_state: Optional[Protocol2ReceiverState] = None
        self._p3_state: Optional[Protocol3ReceiverState] = None
        #: Last outbound request, kept so a recovery driver can re-emit
        #: it verbatim after a timeout (see :meth:`reemit_last_request`).
        self._last_send: Optional[EngineAction] = None
        #: What a decode kept (candidates, pushed and fetched repairs) and
        #: the txid-keyed view of it (:attr:`reconciled`), built on read.
        self._survivors = TxColumns(())
        self._reconciled: Optional[dict] = None
        # Exchange summary, valid once the engine reaches DONE/FAILED.
        self.roundtrips = 0.0
        self.protocol_used = 1
        self.p1_success = False
        self.p1_decode_failed = False
        self.p2_used_pingpong = False
        self.p2_decode_solo = False
        self.p2_decode_complete = False
        self.fetched_count = 0
        self.missing_short_ids: frozenset = frozenset()
        #: Coded symbols streamed so far (Protocol 3 exchanges only).
        self.p3_symbols = 0

    # ------------------------------------------------------------------

    @property
    def reconciled(self) -> dict:
        """Transactions recovered so far, keyed by txid.

        On DONE this is the reconciled view drivers adopt (mempool
        sync's union).  A block relay never reads it, so the dict is
        only built when someone does.
        """
        if self._reconciled is None:
            self._reconciled = {tx.txid: tx for tx in self._survivors}
        return self._reconciled

    def _record(self, command: str, direction: str, phase: str,
                roundtrip: int, parts: dict,
                outcome: str = "") -> MessageEvent:
        event = MessageEvent(command=command, direction=direction,
                             role="receiver", phase=phase,
                             roundtrip=roundtrip, parts=parts,
                             outcome=outcome)
        self.telemetry.append(event)
        return event

    def _send(self, command: str, message: bytes, phase: str,
              roundtrip: int, parts: dict,
              outcome: str = "") -> EngineAction:
        """Record and remember (``_last_send``) one request."""
        event = self._record(command, "sent", phase, roundtrip, parts,
                             outcome)
        action = self._last_send = EngineAction(
            ActionKind.SEND, command, message, event=event)
        return action

    def start(self) -> EngineAction:
        """Begin: emit the getdata with our mempool count.

        ``config.protocol == 3`` opens the rateless exchange instead:
        the same getdata command (so inv routing, recovery and peer
        plumbing are untouched) with the marker byte appended.
        """
        if self.phase is not ReceiverPhase.IDLE:
            raise ProtocolFailure(f"cannot start from phase {self.phase}")
        rateless = self.config.protocol == 3
        self.phase = ReceiverPhase.WAIT_P3 if rateless \
            else ReceiverPhase.WAIT_P1
        self.roundtrips = 1.5
        m = len(self.mempool)
        if self.mode == "block":
            # The inv that triggered this exchange, so the stream covers
            # the whole relay the way the paper's accounting does.
            self._record("inv", "received", "inv", 0, {"inv": inv_bytes()})
        if rateless:
            self.protocol_used = 3
            message = struct.pack("<IB", m, P3_GETDATA_MARKER)
            phase, extra = "p3", 1  # +1 for the marker byte
        else:
            message = struct.pack("<I", m)
            phase, extra = "p1", 0
        return self._send("getdata", message, phase, 1,
                          {"getdata": getdata_bytes(m) + extra})

    def _fail(self) -> EngineAction:
        logger.info("graphene receiver failed in phase %s; caller should "
                    "fall back to a full block", self.phase)
        self.phase = ReceiverPhase.FAILED
        return EngineAction(ActionKind.FAILED)

    def _complete(self, txs: list) -> EngineAction:
        self.phase = ReceiverPhase.DONE
        block = Block(header=self.header, txs=tuple(txs)) \
            if self.header is not None else None
        return EngineAction(ActionKind.DONE, txs=txs, block=block)

    def _probe(self) -> Optional[Block]:
        """Validation target: a header-only block (block mode only)."""
        if self.mode != "block":
            return None
        return Block(header=self.header, txs=())

    def _adopt(self, result) -> EngineAction:
        """Keep a settled P1/P3 decode: DONE, or fetch what it lacks."""
        # Kept for the fetch to join or a sync driver to adopt; a block
        # relay that decodes outright holds on to nothing past this step.
        if result.missing_short_ids or self.mode == "mempool":
            self._survivors = result.reconciled
        if result.missing_short_ids:
            return self._request_short_ids(result.missing_short_ids)
        return self._complete(result.txs)

    def _request_short_ids(self, missing) -> EngineAction:
        width = self.config.short_id_bytes
        if any(sid >> (8 * width) for sid in missing):
            # A decoded key no short ID can equal: a malformed decode.
            return self._fail()
        self.missing_short_ids = frozenset(missing)
        self.phase = ReceiverPhase.WAIT_TXS
        self.roundtrips += 1.0
        out = b"".join(sid.to_bytes(width, "little")
                       for sid in sorted(missing))
        return self._send(
            "getdata_shortids", out, "fetch", int(self.roundtrips),
            {"extra_getdata": short_id_request_bytes(len(missing), width)})

    def _read_opening(self, message, protocol: int, decode) -> tuple:
        """Prologue of both openings: phase check, byte count, [header]
        and payload; returns ``(payload, parts)``."""
        command, _, _ = _OPENINGS[protocol]
        if not self.accepts(command):
            raise ProtocolFailure(
                f"unexpected P{protocol} payload in {self.phase}")
        offset = 0
        if self.mode == "block":
            self.header = decode_block_header(message)
            offset = 80
        payload, _ = decode(message, offset)
        return payload, _opening_parts(payload, protocol)

    def on_p1_payload(self, message: bytes) -> EngineAction:
        """Process [header +] S + I; decode, fetch, or escalate."""
        payload, parts = self._read_opening(message, 1,
                                            decode_protocol1_payload)
        result = receive_protocol1(payload, self.mempool, self.config,
                                   validate_block=self._probe())
        self.p1_decode_failed = not result.decode_complete
        # Mempool sync never escalates a *complete* decode: missing
        # short IDs are simply sender transactions to fetch.
        kept = result.success or (self.mode == "mempool"
                                  and result.decode_complete)
        self._record("graphene_block", "received", "p1", 1, parts,
                     outcome="decoded" if kept else "fallback")
        if kept:
            self.p1_success = True
            return self._adopt(result)
        self.protocol_used = 2
        self.roundtrips = 2.5
        request, state = build_protocol2_request(
            result, payload, len(self.mempool), self.config)
        self._p2_state = state
        self.phase = ReceiverPhase.WAIT_P2
        out = (struct.pack("<I", len(self.mempool))
               + encode_protocol2_request(request))
        return self._send("graphene_p2_request", out, "p2", 2,
                          _p2_request_parts(request))

    def on_p2_response(self, message: bytes) -> EngineAction:
        """Process T + J (+ F); finish, fetch leftovers, or fail."""
        if self.phase is not ReceiverPhase.WAIT_P2:
            raise ProtocolFailure(f"unexpected P2 response in {self.phase}")
        response, _ = decode_protocol2_response(message)
        result = finish_protocol2(response, self._p2_state, self.mempool,
                                  self.config, validate_block=self._probe())
        self.p2_used_pingpong = result.used_pingpong
        self.p2_decode_solo = result.decode_complete_solo
        self.p2_decode_complete = result.decode_complete
        parts = _p2_response_parts(response)
        fetch = result.decode_complete and result.missing_short_ids
        outcome = "decoded" if result.success \
            else "fetch" if fetch else "failed"
        self._record("graphene_p2_response", "received", "p2", 2, parts,
                     outcome=outcome)
        if outcome == "failed":
            return self._fail()
        self._survivors = TxColumns.of(result.recovered.values())
        if outcome == "fetch":
            return self._request_short_ids(result.missing_short_ids)
        return self._complete(result.txs)

    # ------------------------------------------------------------------
    # Protocol 3: the rateless symbol stream
    # ------------------------------------------------------------------

    def on_p3_payload(self, message: bytes) -> EngineAction:
        """Process [header +] S + first symbols; decode or ask for more."""
        payload, parts = self._read_opening(message, 3,
                                            decode_protocol3_payload)
        try:
            self._p3_state = begin_protocol3(payload, self.mempool,
                                             self.config)
        except MalformedIBLTError:
            self._record("graphene_p3_block", "received", "p3", 1, parts,
                         outcome="failed")
            return self._fail()
        self.p3_symbols = self._p3_state.symbols
        if self._p3_state.decoder.complete:
            return self._finish_p3("graphene_p3_block", parts, 1)
        return self._request_more_symbols("graphene_p3_block", parts, 1)

    def on_p3_symbols(self, message: bytes) -> EngineAction:
        """Process a continuation batch; decode, ask again, or give up."""
        if self.phase is not ReceiverPhase.WAIT_P3_SYMBOLS:
            raise ProtocolFailure(f"unexpected P3 symbols in {self.phase}")
        batch, offset = decode_symbol_batch(message)
        state = self._p3_state
        # The pushed tail answers filter R; unasked for, it is not read.
        pushed = None
        if state.pushed is not None and offset < len(message):
            pushed, _ = decode_tx_list(message, offset)
        parts = _p3_symbols_parts(batch, pushed)
        roundtrip = int(self.roundtrips)
        try:
            complete = ingest_symbols(state, batch, pushed or (),
                                      self.config)
        except MalformedIBLTError:
            # A key peeled twice: the stream is malformed (replayed,
            # corrupted, or a pushed transaction was not the block's).
            # Fail cleanly; the ladder treats it like any dead exchange.
            self._record("graphene_p3_symbols", "received", "p3",
                         roundtrip, parts, outcome="failed")
            return self._fail()
        self.p3_symbols = state.symbols
        if complete:
            return self._finish_p3("graphene_p3_symbols", parts, roundtrip)
        return self._request_more_symbols("graphene_p3_symbols", parts,
                                          roundtrip)

    def _request_more_symbols(self, command: str, parts: dict,
                              roundtrip: int) -> EngineAction:
        """Record an undecoded batch and ask for the next window -- or
        give up at once where the stream already fills the cap."""
        state = self._p3_state
        start = state.symbols
        if start >= state.cap:
            # The stream has run far past any honest decode point.
            self._record(command, "received", "p3", roundtrip, parts,
                         outcome="failed")
            return self._fail()
        self._record(command, "received", "p3", roundtrip, parts,
                     outcome="continue")
        count, bloom_r = continuation(state, self.config)
        self.phase = ReceiverPhase.WAIT_P3_SYMBOLS
        self.roundtrips += 1.0
        message = encode_protocol3_request(
            start, min(count, state.cap - start, 0xFFFF), bloom_r)
        parts = {"getdata": p3_request_bytes()}
        if bloom_r is not None:
            parts["bloom_r"] = bloom_r.serialized_size()
        return self._send("graphene_p3_request", message, "p3",
                          int(self.roundtrips), parts)

    def _finish_p3(self, command: str, parts: dict,
                   roundtrip: int) -> EngineAction:
        """Turn a complete rateless decode into DONE / fetch / FAILED."""
        result = finish_protocol3(self._p3_state, self.config,
                                  validate_block=self._probe())
        # Neither missing nor success: the peel zeroed out but the
        # arithmetic does not reconcile with n -- a malformed (e.g.
        # replayed) stream -- or the set failed the Merkle check.
        outcome = "fetch" if result.missing_short_ids \
            else "decoded" if result.success else "failed"
        self._record(command, "received", "p3", roundtrip, parts,
                     outcome=outcome)
        if outcome == "failed":
            return self._fail()
        return self._adopt(result)

    def on_tx_list(self, message: bytes) -> EngineAction:
        """Process the final repair transactions; validate in block mode."""
        if self.phase is not ReceiverPhase.WAIT_TXS:
            raise ProtocolFailure(f"unexpected tx list in {self.phase}")
        txs, _ = decode_tx_list(message)
        self.fetched_count = len(txs)
        parts = {"fetched_tx_bytes": sum(tx.size for tx in txs)}
        roundtrip = int(self.roundtrips)
        merged = self._survivors = self._survivors.plus(txs)
        self._reconciled = None
        ordered = merged.canonical().txs if self.mode == "mempool" \
            else self._probe().validated_order(merged)
        self._record("block_txs", "received", "fetch", roundtrip, parts,
                     outcome="failed" if ordered is None else "done")
        if ordered is None:
            return self._fail()
        return self._complete(ordered)

    def handle(self, command: str, message) -> EngineAction:
        """Dispatch on the wire command via :data:`RECEIVER_STEPS`.

        Inbound ``bytes`` are wrapped in a :class:`memoryview` so the
        decode stack reads the receive buffer in place (zero-copy).
        """
        step = self._steps.get(command)
        if step is None:
            raise ParameterError(f"receiver cannot handle {command!r}")
        return step(memoryview(message) if type(message) is bytes
                    else message)

    # ------------------------------------------------------------------
    # Recovery hooks (timeout/retry drivers, see repro.net.recovery)
    # ------------------------------------------------------------------

    def accepts(self, command: str) -> bool:
        """Whether ``command`` is the response this phase awaits.

        Lossy links plus retransmission mean late duplicates can arrive
        after the exchange has moved on; drivers use this to drop them
        instead of tripping the phase discipline.
        """
        return _AWAITED_BY_PHASE.get(self.phase) == command

    def note_timeout(self) -> None:
        """Record that the response to the last request timed out.

        Emits a zero-byte telemetry event (``outcome="timeout"``) so
        the stall is visible in the canonical event stream without
        charging any wire bytes.
        """
        prev = self._last_send
        if prev is None or prev.event is None:
            return
        self._record(prev.command, "sent", prev.event.phase,
                     prev.event.roundtrip, {}, outcome="timeout")

    def reemit_last_request(self) -> EngineAction:
        """Re-issue the last outbound request verbatim after a timeout.

        The retransmission gets its own telemetry event with the same
        byte decomposition and ``outcome="retry"``, so cost accounting
        charges the resent bytes honestly.
        """
        prev = self._last_send
        if prev is None or prev.event is None:
            raise ProtocolFailure("no request in flight to re-emit")
        return self._send(prev.command, prev.message, prev.event.phase,
                          prev.event.roundtrip, dict(prev.event.parts),
                          outcome="retry")
