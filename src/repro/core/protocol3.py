"""Graphene Protocol 3: rateless IBLT reconciliation, no size estimate.

Protocols 1 and 2 stake the exchange on a difference estimate: the
IBLT is provisioned for ``a*`` (or ``b + y*``) items up front, and a
wrong estimate means a failed decode and a fallback round.  Protocol 3
replaces the fixed IBLT with a :mod:`rateless <repro.pds.riblt>`
coded-symbol stream (Yang et al., PAPERS.md): the sender still sends
Bloom filter S (sized by the same Eq. 3 optimization -- false
positives cost symbols just as they cost IBLT cells), but instead of
an IBLT it streams coded symbols until the receiver's peeling decoder
terminates.  There is no estimate to get wrong and therefore no
decode-failure fallback branch: an undecoded stream simply asks for
more symbols.

Message flow::

    receiver                                sender
      getdata(m, proto=3)          ---->      opening: n + prefilled
                                                + S + first batch
      [peel...]  not decoded yet
      p3_request(start, count [, R]) -->      symbols [start, start+count)
                                                [+ txs that miss R]
      [subtract pushed, peel...]  decoded
      getdata_shortids(missing)    ---->      block_txs   (if any missing)

The first batch is provisioned like Protocol 1's IBLT -- ``~1.35 a*``
symbols for the Theorem-1 bound ``a*`` on Bloom false positives -- so
the no-missing-transactions case usually decodes in a single round
trip, byte-competitive with Protocol 1.  Where transactions *are*
missing the receiver does not ask blind: after the sweep the size of
the difference is an identity, ``d = n - z + 2y``, and ``y <= a*`` with
beta-assurance, so one continuation request aims at ``~1.35 (n - z +
2 a*)`` symbols (:attr:`Protocol3ReceiverState.target`) -- or, where
much is missing, names it first (section 3.2: a filter plus a small
structure beats the structure alone): the request carries Bloom filter
R over Z, the sender pushes the block transactions that miss it, the
receiver subtracts them out of the symbols it holds, and the window
covers only S's and R's false positives (:func:`plan_filter_r`).
Batches past that grow geometrically.  Target and R are receiver policy
in optional tails and can only shorten the exchange: there is still no
estimate to get wrong.

The opening is Protocol 1's with a symbol batch where IBLT I was, and a
complete decode settles as Protocol 1's does: ``Opening``,
``open_exchange``, ``sweep`` and ``settle`` are imported from
:mod:`repro.core.protocol1`, not repeated here.  The receiver's Z seeds
the decoder with its short-ID column, and the state keeps Z's mempool
snapshot, so the exchange finishes against the mempool it began with
however many round trips it takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as _np

from repro.chain.block import Block
from repro.chain.columns import TxColumns
from repro.chain.mempool import Mempool
from repro.core.candidates import CandidateSet
from repro.core.bounds import a_star
from repro.core.params import (BLOOM_HEADER_BYTES, GrapheneConfig,
                               closed_form_a)
from repro.core.protocol1 import (
    Opening,
    Protocol1Result,
    open_exchange,
    settle,
    sweep,
)
from repro.errors import ParameterError
from repro.pds.bloom import BloomFilter, bloom_size_bytes
from repro.pds.riblt import (SYMBOL_BYTES, RIBLTDecoder, RIBLTEncoder,
                             symbol_stream_bytes)

#: Seed offset keeping the symbol stream's hash family independent of
#: the S/I/J families (see protocol1.SEED_S et al.).
SEED_R = 0x3137

#: Symbols provisioned per expected difference item: the rateless
#: decode threshold is ~1.35d for large d (Yang et al. section 3).
OVERHEAD = 1.35

#: Floor on any batch -- tiny batches waste round trips on headers.
MIN_BATCH = 4

#: Past the receiver's target each continuation batch grows the stream
#: by this factor, bounding total symbols at ~1.5x the count the decode
#: actually needed.
GROWTH = 0.5

#: Hard ceiling on the stream, as a multiple of the union bound
#: ``n + z``: an honest exchange decodes within ~2(n + z) symbols even
#: with nothing shared, so a stream this long is malformed.
STREAM_CAP_FACTOR = 8


def sender_stream_cap(key_count: int) -> int:
    """How far a sender will extend its stream for one block.

    An honest receiver's candidate set Z is the Bloom-filtered mempool
    (roughly ``n`` plus a handful of false positives), so its
    :data:`STREAM_CAP_FACTOR`-bounded stream stays well under this; a
    hostile ``start`` near u32-max must not balloon the sender's
    columnar prefix, so out-of-cap windows are refused.
    """
    return max(1 << 16, 32 * key_count)


def first_batch_size(recover: int) -> int:
    """Symbols in the opening payload, from the Theorem-1 FP bound."""
    return max(MIN_BATCH, math.ceil(OVERHEAD * max(1, recover)))


def next_batch_size(streamed: int, target: int = 0) -> int:
    """Symbols to request after ``streamed`` symbols did not decode.

    Half the stream so far, or whatever is still short of ``target``
    (:attr:`Protocol3ReceiverState.target`), whichever is more: the
    target can only raise a request, so one that falls short costs
    another round, never a failure.
    """
    return max(MIN_BATCH, math.ceil(streamed * GROWTH), target - streamed)


@dataclass(frozen=True)
class SymbolBatch:
    """A contiguous window ``[start, start + len)`` of coded symbols."""

    start: int
    counts: Sequence[int]
    key_sums: Sequence[int]
    check_sums: Sequence[int]

    def __post_init__(self):
        if not (len(self.counts) == len(self.key_sums)
                == len(self.check_sums)):
            raise ParameterError("symbol batch columns disagree in length")
        if self.start < 0:
            raise ParameterError(f"batch start must be >= 0: {self.start}")

    def __len__(self) -> int:
        return len(self.counts)

    def wire_size(self) -> int:
        return symbol_stream_bytes(len(self.counts))


@dataclass(frozen=True, kw_only=True)
class Protocol3Payload(Opening):
    """The Protocol 3 opening: S and the first batch of coded symbols
    (``recover`` is what that batch was provisioned against)."""

    symbols: SymbolBatch

    @property
    def body_bytes(self) -> int:
        return self.symbols.wire_size()


@dataclass
class Protocol3ReceiverState:
    """Receiver-side state across the symbol-stream round trips.

    ``candidate_set`` holds the mempool snapshot Z was swept from, so
    the exchange finishes against the set it began with even if the
    mempool changes between round trips.  ``target`` is the stream
    length the sweep says the difference will take by symbols alone,
    ``fpr_r`` / ``target_r`` filter R's rate and the shorter stream it
    leaves (:func:`plan_filter_r`; zero where R does not pay);
    :func:`continuation` aims the one request at them.
    """

    decoder: RIBLTDecoder
    candidate_set: CandidateSet      # the set Z, columnar
    n: int
    cap: int                         # hard bound on total symbols
    target: int                      # symbols the sweep says d will take
    fpr_r: float = 0.0               # f_R where filter R pays, else 0
    target_r: int = 0                # symbols once R's misses are pushed
    pushed: Optional[dict] = None    # short ID -> pushed tx; None till R rode

    @property
    def symbols(self) -> int:
        return self.decoder.size


def make_encoder(txs, config: GrapheneConfig) -> RIBLTEncoder:
    """The sender's symbol stream over a transaction set's short IDs.

    ``txs`` is a :class:`~repro.chain.columns.TxColumns` or any
    transaction sequence.  A pure function of ``(txs, config)``: any
    window of the stream can be re-served byte-identically to any peer
    at any time.
    """
    return RIBLTEncoder(TxColumns.of(txs).short_ids(config.short_id_bytes),
                        seed=config.seed ^ SEED_R)


def build_protocol3(txs, receiver_mempool_count: int,
                    config: Optional[GrapheneConfig] = None,
                    prefill=None,
                    encoder: Optional[RIBLTEncoder] = None,
                    ) -> tuple[Protocol3Payload, RIBLTEncoder]:
    """Sender side: Bloom S plus the opening symbol batch.

    The head -- plan, S, prefill (the coinbase unless given) -- is
    Protocol 1's (:func:`~repro.core.protocol1.open_exchange`).
    ``encoder`` lets a serving engine share one symbol stream across
    peers and continuation requests.
    """
    config = config or GrapheneConfig()
    columns, head = open_exchange(txs, receiver_mempool_count, config, None,
                                  prefill)
    if encoder is None:
        encoder = make_encoder(columns, config)
    batch = SymbolBatch(0, *encoder.window(
        0, first_batch_size(head["recover"])))
    return Protocol3Payload(symbols=batch, **head), encoder


def begin_protocol3(payload: Protocol3Payload, mempool: Mempool,
                    config: Optional[GrapheneConfig] = None,
                    ) -> Protocol3ReceiverState:
    """Receiver side: form Z through S, then ingest the first batch.

    Z is Protocol 1's (:func:`~repro.core.protocol1.sweep`); the decoder
    is seeded with its short-ID column and fed the opening symbols.
    May raise :class:`~repro.errors.MalformedIBLTError` if the opening
    batch itself peels inconsistently.
    """
    config = config or GrapheneConfig()
    candidates = sweep(payload, mempool, config)
    decoder = RIBLTDecoder(candidates.sids, seed=config.seed ^ SEED_R)
    z = len(candidates)
    cap = STREAM_CAP_FACTOR * max(16, payload.n + z)
    # After the sweep the difference is an identity, not an estimate:
    # z = x + y (x block transactions held, y false positives), the
    # block lacks n - x, so d = (n - x) + y = n - z + 2y -- and y <= a*
    # with beta-assurance (Theorem 1; a* rides in the opening).
    target = math.ceil(OVERHEAD * max(0, payload.n - z + 2 * payload.recover))
    fpr_r, target_r = plan_filter_r(payload, z, len(mempool), target,
                                    config)
    state = Protocol3ReceiverState(decoder=decoder, candidate_set=candidates,
                                   n=payload.n, cap=cap, target=target,
                                   fpr_r=fpr_r, target_r=target_r)
    ingest_symbols(state, payload.symbols)
    return state


def plan_filter_r(payload: Opening, z: int, m: int, target: int,
                  config: GrapheneConfig) -> tuple[float, int]:
    """Whether filter R pays on the continuation: ``(f_R, target_r)``,
    or ``(0.0, 0)`` where it does not.

    The receiver lacks ``n - z + y`` block transactions and ``y <= a*``
    with beta-assurance, so ``bound = n - z + a*`` caps them; ``b`` is
    Eq. 3 with a coded symbol for the IBLT cell, ``f_R = b / bound``.
    The sender pushes what misses R, leaving the stream S's false
    positives and R's, each bounded by Theorem 1.  R rides only when
    its request -- R, the shorter window, its false positives' short
    IDs -- is smaller than the one ``target`` makes, counted on the
    ``n - z`` certainly missing: a floor, so R can only be under-used.
    (``recover`` is ``a*`` over the ``m - n`` strangers of a mempool
    holding the block; one short of it holds ``m - z + y``, so Theorem 1
    is retaken over ``y = f_S (m - z + y)`` and the larger bound kept.)
    """
    missing = payload.n - z
    if missing <= 0:
        return 0.0, 0
    recover = payload.recover
    fpr_s = payload.bloom_s.actual_fpr()
    if 0.0 < fpr_s < 1.0 and m > z:
        recover = max(recover, math.ceil(
            a_star(fpr_s * (m - z) / (1.0 - fpr_s), config.beta)))
    b = closed_form_a(z, OVERHEAD, SYMBOL_BYTES)
    fpr = b / (missing + recover)
    target_r = math.ceil(
        OVERHEAD * (recover + math.ceil(a_star(b, config.beta))))
    streamed = len(payload.symbols)
    spared = (SYMBOL_BYTES * (next_batch_size(streamed, target)
                              - next_batch_size(streamed, target_r))
              + (1.0 - fpr) * missing * config.short_id_bytes)
    if fpr >= 1.0 or bloom_size_bytes(z, fpr) + BLOOM_HEADER_BYTES >= spared:
        return 0.0, 0
    return fpr, target_r


def continuation(state: Protocol3ReceiverState,
                 config: GrapheneConfig) -> tuple[int, Optional[BloomFilter]]:
    """The next request: symbols to ask for, and filter R over Z on the
    one request (the first) that carries it.  A sender that pushed
    nothing leaves ``target`` standing; else growth is by halves."""
    start = state.symbols
    if state.fpr_r and state.pushed is None:
        state.pushed = {}
        bloom_r = BloomFilter.from_fpr(len(state.candidate_set), state.fpr_r,
                                       seed=config.seed ^ 0xF00D)  # as P2's R
        bloom_r.update_packed(state.candidate_set.ids())
        return next_batch_size(start, state.target_r), bloom_r
    return next_batch_size(start, 0 if state.pushed else state.target), None


def ingest_symbols(state: Protocol3ReceiverState, batch: SymbolBatch,
                   pushed: Sequence = (),
                   config: Optional[GrapheneConfig] = None) -> bool:
    """Feed one wire batch to the decoder; returns decode completion.

    The stream is strictly sequential: a batch whose ``start`` is not
    the next expected symbol is a framing violation (retransmissions
    re-serve the identical window, so an honest sender never
    desynchronizes).

    ``pushed`` are the transactions that missed filter R: sender-only
    keys, subtracted out of the symbols already held
    (:meth:`RIBLTDecoder.add_known`).  One whose short ID Z holds is
    ignored -- R has no false negatives, an honest sender pushes none.
    """
    if batch.start != state.decoder.size:
        raise ParameterError(
            f"symbol batch starts at {batch.start}, expected "
            f"{state.decoder.size}")
    if batch.start + len(batch) > state.cap:
        raise ParameterError(
            f"symbol stream exceeds cap of {state.cap} symbols")
    if pushed:
        if state.pushed is None or len(pushed) > state.n:
            raise ParameterError(f"{len(pushed)} pushed transactions: unasked "
                                 f"for, or more than the block's {state.n}")
        width = (config or GrapheneConfig()).short_id_bytes
        sids = [tx.short_id(width) for tx in pushed]
        held = _np.isin(_np.array(sids, dtype=_np.uint64),
                        state.candidate_set.sids, kind="sort").tolist()
        fresh = {sid: tx for sid, tx, dup in zip(sids, pushed, held)
                 if not dup}
        state.pushed.update(fresh)
        state.decoder.add_known(fresh)
    return state.decoder.add_symbols(batch.counts, batch.key_sums,
                                     batch.check_sums)


def finish_protocol3(state: Protocol3ReceiverState,
                     config: Optional[GrapheneConfig] = None,
                     validate_block: Optional[Block] = None,
                     ) -> Protocol1Result:
    """Turn the decoder's state into what ``receive_protocol1`` returns.

    ``decoder.local`` holds short IDs only the sender has (missing
    transactions, fetched afterwards); ``decoder.remote`` holds Bloom
    false positives to strip from Z.  A complete decode settles exactly
    as Protocol 1's does (:func:`~repro.core.protocol1.settle`): one
    whose arithmetic does not reconcile with the announced block size
    ``n`` is reported as ``decode_complete=False`` -- the stream was
    malformed and the caller should fail cleanly rather than accept a
    silently wrong set.
    """
    decoder = state.decoder
    result = Protocol1Result(success=False,
                             candidate_set=state.candidate_set,
                             z=len(state.candidate_set),
                             decode_complete=decoder.complete)
    if not decoder.complete:
        return result
    return settle(result, decoder.local, decoder.remote, state.n,
                  validate_block, state.pushed)
