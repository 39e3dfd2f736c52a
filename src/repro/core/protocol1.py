"""Graphene Protocol 1 (paper 3.1, Figs. 2 and 4).

The sender answers a ``getdata`` (which carries the receiver's mempool
count ``m``) with a Bloom filter **S** of the block's ``n`` transaction
IDs at FPR ``f_S = a / (m - n)`` and an IBLT **I** of the block's short
IDs provisioned for ``a*`` items (Theorem 1).  The receiver passes her
mempool through S, forming the candidate set ``Z``; builds ``I'`` from
``Z``; subtracts ``I (-) I'``; removes the recovered false positives
from ``Z``; and validates the Merkle root.

Neither side visits transactions one object at a time.  The sender
builds S and I from the block's :class:`~repro.chain.columns.TxColumns`
(its ID buffer and its short-ID column); the receiver forms Z in one
packed sweep of the mempool's snapshot
(:class:`~repro.core.candidates.CandidateSet`), folds Z's short-ID
column into ``I'``, strips false positives with one ``isin`` and hands
the survivors' ID buffer to the packed order + Merkle pass.

The functions here also serve mempool synchronization (paper 3.2.1) by
treating the sender's whole mempool as the "block": pass
``validate_block=None`` and the Merkle check is skipped.

What Protocol 3 shares with Protocol 1 is written here and imported
there: :class:`Opening`, :func:`open_exchange`, :func:`sweep` and
:func:`settle`.  Protocol 2 settles through the same :func:`settle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from repro.chain.block import Block
from repro.chain.columns import TxColumns
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction
from repro.core.candidates import CandidateSet
from repro.core.params import FilterIBLTPlan, GrapheneConfig, optimize_a
from repro.errors import ParameterError
from repro.pds.bloom import BloomFilter
from repro.pds.iblt import IBLT
from repro.utils.serialization import compact_size_len

#: Seed offsets keeping the hash families of S/I and R/J independent,
#: which ping-pong decoding requires (paper 4.2).
SEED_S = 0x5150
SEED_I = 0x1B17
SEED_J = 0x2B27


@dataclass(frozen=True, kw_only=True)
class Opening:
    """Step 3 message, minus its reconciliation body: bookkeeping counts,
    prefilled transactions and Bloom filter S.  A subclass adds the body
    (IBLT I, or Protocol 3's first coded symbols) and its ``body_bytes``.

    ``prefilled`` carries transactions the sender knows the receiver
    cannot have (no inv ever exchanged -- e.g. the coinbase); the paper
    notes these "could be sent at Step 3 in order to reduce the number
    of transactions in I (-) I'".
    """

    n: int
    bloom_s: BloomFilter
    recover: int  # a*, what the body was provisioned for
    plan: FilterIBLTPlan
    prefilled: tuple = ()

    @property
    def bloom_bytes(self) -> int:
        return self.bloom_s.serialized_size()

    def wire_size(self) -> int:
        """Bytes on the wire: S + body + counts + any prefilled txns."""
        return (self.bloom_bytes + self.body_bytes
                + compact_size_len(self.n) + compact_size_len(self.recover)
                + compact_size_len(len(self.prefilled))
                + sum(tx.size for tx in self.prefilled))


@dataclass(frozen=True, kw_only=True)
class Protocol1Payload(Opening):
    """The Protocol 1 opening: S and IBLT I."""

    iblt_i: IBLT

    @property
    def iblt_bytes(self) -> int:
        return self.iblt_i.serialized_size()

    body_bytes = iblt_bytes


@dataclass
class Protocol1Result:
    """Receiver-side outcome of a Protocol 1, 2 or 3 decode.

    On success ``txs`` holds the canonically ordered block transactions.
    On failure the fields preserve everything Protocol 2 needs: the
    candidate set ``Z``, the observed count ``z`` and the subtracted
    IBLT (for ping-pong decoding later; Protocol 3 has none).
    """

    success: bool
    txs: Optional[list] = None
    candidate_set: Optional[CandidateSet] = None  # the set Z, columnar
    z: int = 0
    iblt_diff: Optional[IBLT] = None
    decode_complete: bool = False
    merkle_ok: bool = False
    missing_short_ids: frozenset = frozenset()
    #: What :func:`settle` kept: the rows of Z surviving false-positive
    #: removal (into ``candidate_set.source``) and the transactions the
    #: sender pushed, as a ``(rows, pushed)`` pair; None until settled.
    kept: Optional[tuple] = None

    @cached_property
    def reconciled(self) -> Sequence[Transaction]:
        """Candidates surviving false-positive removal, plus any the
        sender pushed: a :class:`TxColumns` once settled, else ``()``.

        Only meaningful when decode_complete; what a later fetch joins
        and mempool synchronization adopts.  Built on first read: a
        block relay that decodes outright never reads it.
        """
        if self.kept is None:
            return ()
        rows, pushed = self.kept
        survivors = self.candidate_set.source.take(rows)
        return survivors.plus(pushed) if pushed else survivors


def open_exchange(txs, receiver_mempool_count: int, config: GrapheneConfig,
                  plan: Optional[FilterIBLTPlan],
                  prefill) -> tuple[TxColumns, dict]:
    """Sender side of any opening: the packed ``txs`` and the
    :class:`Opening` fields -- plan, S, and the prefilled transactions.

    ``prefill=None`` prefills the coinbase rows, which no receiver can
    hold; any other ``prefill`` (``()`` included) is exactly what rides.
    Both protocols size S by the discrete S + I optimization: a false
    positive costs coded symbols just as it costs IBLT cells.
    """
    columns = TxColumns.of(txs)
    n = len(columns)
    if plan is None:
        plan = optimize_a(n, receiver_mempool_count, config)
    bloom = BloomFilter.from_fpr(n, plan.fpr, seed=config.seed ^ SEED_S)
    bloom.update_packed(columns.ids)
    if prefill is None:
        prefill = [tx for tx in columns.txs if tx.is_coinbase]
    return columns, dict(n=n, bloom_s=bloom, recover=plan.recover,
                         plan=plan, prefilled=tuple(prefill))


def build_protocol1(txs, receiver_mempool_count: int,
                    config: Optional[GrapheneConfig] = None,
                    plan: Optional[FilterIBLTPlan] = None,
                    prefill: Optional[Sequence[Transaction]] = None,
                    ) -> Protocol1Payload:
    """Sender side: construct S and I for a block (or a whole mempool).

    ``txs`` is the block's :class:`~repro.chain.columns.TxColumns`
    (``block.columns``) or any transaction sequence, packed once here.
    ``plan`` lets callers (and ablation benches) override the optimizer.
    ``prefill`` transactions ride along in full (step-3 note); left at
    None, the coinbase does, since no receiver can hold it
    (:func:`open_exchange`).
    """
    config = config or GrapheneConfig()
    columns, head = open_exchange(txs, receiver_mempool_count, config, plan,
                                  prefill)
    plan = head["plan"]
    iblt = IBLT(plan.iblt.cells, k=plan.iblt.k, seed=config.seed ^ SEED_I,
                cell_bytes=config.cell_bytes)
    iblt.update(columns.short_ids(config.short_id_bytes))
    return Protocol1Payload(iblt_i=iblt, **head)


def sweep(payload: Opening, mempool: Mempool,
          config: GrapheneConfig) -> CandidateSet:
    """Receiver side of any opening: form Z, the prefilled transactions
    plus the mempool's snapshot passed through S in one packed sweep."""
    if payload.n < 0:
        raise ParameterError(f"payload.n must be non-negative: {payload.n}")
    return CandidateSet(payload.prefilled, mempool, payload.bloom_s,
                        config.short_id_bytes)


def receive_protocol1(payload: Protocol1Payload, mempool: Mempool,
                      config: Optional[GrapheneConfig] = None,
                      validate_block: Optional[Block] = None) -> Protocol1Result:
    """Receiver side: filter the mempool through S, reconcile with I.

    ``validate_block`` supplies the header whose Merkle root certifies
    the decode; pass None for mempool synchronization, where success is
    defined by IBLT decode alone.
    """
    candidates = sweep(payload, mempool, config or GrapheneConfig())
    iblt_prime = IBLT(payload.iblt_i.cells, k=payload.iblt_i.k,
                      seed=payload.iblt_i.seed,
                      cell_bytes=payload.iblt_i.cell_bytes)
    iblt_prime.update(candidates.sids)

    diff = payload.iblt_i.subtract(iblt_prime)
    decode = diff.decode()
    result = Protocol1Result(success=False, candidate_set=candidates,
                             z=len(candidates), iblt_diff=diff,
                             decode_complete=decode.complete)
    if not decode.complete:
        return result
    return settle(result, decode.local, decode.remote, payload.n,
                  validate_block)


def settle(result: Protocol1Result, local, remote, n: int,
           validate_block: Optional[Block],
           pushed: Optional[dict] = None) -> Protocol1Result:
    """Turn a complete decode into the reconciled transaction set.

    ``local``: short IDs in the block but not in Z -- transactions the
    receiver is missing, for the caller to escalate or fetch.
    ``remote``: Bloom false positives to strip from Z.
    ``pushed``: ``short ID -> transaction`` for the part of ``local``
    already received in full (Protocol 3's answer to filter R;
    Protocol 2's T and the local keys its receiver held after all).

    Z stays row indices into its snapshot throughout: the strip, the
    canonical order and the Merkle check's one ID buffer are all taken
    over rows, and the transactions are gathered once, after the root
    matches.
    """
    candidates = result.candidate_set
    rows = candidates.rows_without(remote)
    # Consistency: |block| must equal surviving candidates plus the
    # missing transactions the decode claims.  A difference that is
    # all-zero after the subtract (e.g. a replay of the receiver's own
    # I' or coded symbols) peels "complete" with nothing in it; when the
    # expected difference is nonempty that is a silently wrong set, so
    # report a decode failure instead.  (Short-id collisions can also
    # trip this; they break the exchange regardless, and in block mode
    # the Merkle check is the backstop.)
    if n != len(rows) + len(local):
        result.decode_complete = False
        return result
    extra = ()
    if pushed:
        extra = tuple(pushed.values())
        local = local - pushed.keys()
    result.kept = (rows, extra)
    if local:
        result.missing_short_ids = frozenset(local)
        return result
    source = candidates.source
    if extra:
        source, rows = result.reconciled, None
    if validate_block is not None:
        ordered = validate_block.validated_order(source, rows)
        if ordered is None:
            return result
        result.merkle_ok = True
        result.txs = ordered
    else:
        result.txs = source.gather(source.canonical_rows(rows))
    result.success = True
    return result
