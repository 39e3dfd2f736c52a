"""Graphene Protocol 2 / Graphene Extended (paper 3.2, Figs. 3, 5, 6).

Runs when Protocol 1 fails -- the receiver's mempool did not contain the
whole block.  One extra roundtrip:

1. The receiver, knowing only the positive count ``z = x + y``, derives
   ``x*`` (Theorem 2) and ``y*`` (Theorem 3) with beta-assurance, builds
   Bloom filter **R** over the candidate set at
   ``f_R = b / (n - x*)`` and sends ``R, y*, b``.
2. The sender pushes the block transactions that miss R verbatim (set
   ``T``) and an IBLT **J** of the block's short IDs provisioned for
   ``b + y*`` items.
3. The receiver reconciles ``J (-) J'`` where ``J'`` covers ``Z + T``,
   strips false positives, learns the short IDs of any still-missing
   transactions, and validates the Merkle root.

The ``m ~ n`` special case (paper 3.3.2): when the receiver's numbers
degenerate (``z ~ m``, ``y* ~ m``, ``f_R ~ 1``) she pins ``f_R`` to 0.1
and the *sender* runs Theorems 2/3 in reverse over R, additionally
sending a third Bloom filter **F** so the receiver can discard candidate
transactions that are not in the block.  This path is the workhorse of
mempool synchronization (Fig. 18).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as _np

from repro.chain.block import Block
from repro.chain.columns import TxColumns
from repro.chain.mempool import Mempool
from repro.core.bounds import x_star, y_star
from repro.core.params import FilterIBLTPlan, GrapheneConfig, optimize_b
from repro.core.protocol1 import Protocol1Payload, Protocol1Result, SEED_J
from repro.errors import ParameterError
from repro.pds.bloom import BloomFilter
from repro.pds.iblt import IBLT
from repro.pds.pingpong import pingpong_decode
from repro.utils.serialization import compact_size_len

#: Receiver-side trigger for the m ~ n special case: both z/m and y*/z
#: above this ratio mean filter S carried essentially no information.
_SPECIAL_Z_TRIGGER = 0.9


@dataclass(frozen=True)
class Protocol2Request:
    """Receiver -> sender: Bloom filter R plus the derived bounds."""

    bloom_r: BloomFilter
    b: int
    ystar: int
    z: int
    xstar: int
    special_case: bool
    plan: Optional[FilterIBLTPlan]

    def wire_size(self) -> int:
        return (self.bloom_r.serialized_size() + compact_size_len(self.b)
                + compact_size_len(self.ystar) + 1)  # +1 special-case flag

    @property
    def bloom_bytes(self) -> int:
        return self.bloom_r.serialized_size()


@dataclass
class Protocol2ReceiverState:
    """Everything the receiver must remember between steps 2 and 5."""

    candidates: dict  # txid -> Transaction (the set Z)
    iblt_p1_diff: Optional[IBLT]
    payload_n: int
    fpr_s: float
    xstar: int
    ystar: int
    special_case: bool


@dataclass(frozen=True)
class Protocol2Response:
    """Sender -> receiver: missing transactions T, IBLT J, optional F."""

    missing_txs: tuple
    iblt_j: IBLT
    bloom_f: Optional[BloomFilter]
    recover: int

    def wire_size(self) -> int:
        return (self.txs_bytes + self.iblt_bytes + self.bloom_f_bytes
                + compact_size_len(len(self.missing_txs)))

    @property
    def txs_bytes(self) -> int:
        return sum(tx.size for tx in self.missing_txs)

    @property
    def iblt_bytes(self) -> int:
        return self.iblt_j.serialized_size()

    @property
    def bloom_f_bytes(self) -> int:
        return self.bloom_f.serialized_size() if self.bloom_f else 0


@dataclass
class Protocol2Result:
    """Receiver-side outcome of Protocol 2."""

    success: bool
    txs: Optional[list] = None
    decode_complete: bool = False
    #: Whether J (-) J' decoded on its own, before any ping-pong help
    #: (the "without" series of Fig. 16).
    decode_complete_solo: bool = False
    used_pingpong: bool = False
    merkle_ok: bool = False
    #: Short IDs of block transactions the receiver still lacks (R's
    #: false positives); the session fetches these with a final getdata.
    missing_short_ids: frozenset = frozenset()
    #: Transactions recovered so far (candidates minus false positives
    #: plus pushed T), keyed by txid.
    recovered: dict = field(default_factory=dict)


def build_protocol2_request(
        p1_result: Protocol1Result, payload: Protocol1Payload, m: int,
        config: Optional[GrapheneConfig] = None,
) -> tuple[Protocol2Request, Protocol2ReceiverState]:
    """Receiver: derive x*, y*, b and build Bloom filter R (steps 1-2)."""
    config = config or GrapheneConfig()
    if m < 0:
        raise ParameterError(f"m must be non-negative, got {m}")
    z = p1_result.z
    n = payload.n
    fpr_s = payload.plan.fpr if payload.plan else 1.0

    if fpr_s >= 1.0:
        # Degenerate S passed everything; z carries no information.
        xstar = 0
        ystar = z
    else:
        xstar = x_star(z, m, fpr_s, beta=config.beta, n=n)
        ystar = y_star(z, m, fpr_s, beta=config.beta, xstar=xstar, n=n)
    missing_bound = max(0, n - xstar)

    plan = optimize_b(z, missing_bound, ystar, config)
    # The m ~ n degeneracy (paper 3.3.2): S carried no information, so
    # z ~ m, x* ~ 0 and y* ~ z -- IBLT J would be sized to the whole
    # mempool.  Pin f_R instead and let the sender bound R's mistakes.
    special = missing_bound == 0 or (
        z >= _SPECIAL_Z_TRIGGER * max(1, m)
        and ystar >= _SPECIAL_Z_TRIGGER * max(1, z))

    if special:
        fpr_r = config.special_case_fpr
        bloom = BloomFilter.from_fpr(max(1, z), fpr_r, seed=config.seed ^ 0xF00D)
        b = max(1, math.ceil(fpr_r * max(1, missing_bound)))
        request = Protocol2Request(bloom_r=bloom, b=b, ystar=ystar, z=z,
                                   xstar=xstar, special_case=True, plan=None)
    else:
        bloom = BloomFilter.from_fpr(max(1, z), plan.fpr,
                                     seed=config.seed ^ 0xF00D)
        request = Protocol2Request(bloom_r=bloom, b=plan.a, ystar=ystar, z=z,
                                   xstar=xstar, special_case=False, plan=plan)
    bloom.update_packed(p1_result.candidate_set.ids())
    state = Protocol2ReceiverState(
        candidates=p1_result.candidates,
        iblt_p1_diff=p1_result.iblt_diff, payload_n=n, fpr_s=fpr_s,
        xstar=xstar, ystar=ystar, special_case=request.special_case)
    return request, state


def respond_protocol2(request: Protocol2Request, txs,
                      receiver_mempool_count: int,
                      config: Optional[GrapheneConfig] = None) -> Protocol2Response:
    """Sender: push transactions missing R, build IBLT J (steps 3-4).

    ``txs`` is the block's :class:`~repro.chain.columns.TxColumns` or
    any transaction sequence, packed once here.
    """
    config = config or GrapheneConfig()
    columns = TxColumns.of(txs)
    n = len(columns)
    in_r = request.bloom_r.contains_packed(columns.ids)
    missing = columns.take(_np.flatnonzero(~in_r)).txs

    table = config.table()
    bloom_f: Optional[BloomFilter] = None
    if request.special_case:
        # Reverse roles (paper 3.3.2): the sender bounds R's false
        # positives among its own block, substituting block size for
        # mempool size and f_R for the FPR.  f_R is the protocol's
        # fixed special-case constant, known to both sides -- it is
        # not on the wire, so a decoded request cannot carry it.
        fpr_r = config.special_case_fpr
        z_s = int(_np.count_nonzero(in_r))
        xstar_s = x_star(z_s, n, fpr_r, beta=config.beta) if fpr_r < 1.0 else 0
        ystar_s = y_star(z_s, n, fpr_r, beta=config.beta, xstar=xstar_s) \
            if fpr_r < 1.0 else z_s
        f_bound = max(0, receiver_mempool_count - xstar_s)
        plan_f = optimize_b(z_s, f_bound, ystar_s, config)
        bloom_f = BloomFilter.from_fpr(max(1, z_s), plan_f.fpr,
                                       seed=config.seed ^ 0xFEED)
        bloom_f.update_packed(columns.words[in_r].tobytes())
        recover = plan_f.a + ystar_s
    else:
        recover = request.b + request.ystar

    params = table.params_for(max(1, recover))
    iblt = IBLT(params.cells, k=params.k, seed=config.seed ^ SEED_J,
                cell_bytes=config.cell_bytes)
    iblt.update(columns.short_ids(config.short_id_bytes))
    return Protocol2Response(missing_txs=tuple(missing), iblt_j=iblt,
                             bloom_f=bloom_f, recover=max(1, recover))


def finish_protocol2(response: Protocol2Response,
                     state: Protocol2ReceiverState, mempool: Mempool,
                     config: Optional[GrapheneConfig] = None,
                     validate_block: Optional[Block] = None) -> Protocol2Result:
    """Receiver: reconcile J (-) J', strip mistakes, validate (step 5)."""
    config = config or GrapheneConfig()
    candidates = dict(state.candidates)
    if response.bloom_f is not None:
        # Special case: F tells the receiver which candidates the sender
        # believes are in the block; the rest are discarded up front.
        hits = response.bloom_f.contains_many(candidates)
        candidates = {txid: tx for (txid, tx), hit
                      in zip(candidates.items(), hits) if hit}
    dropped_by_f = {txid: tx for txid, tx in state.candidates.items()
                    if txid not in candidates}
    for tx in response.missing_txs:
        candidates[tx.txid] = tx

    jprime = IBLT(response.iblt_j.cells, k=response.iblt_j.k,
                  seed=response.iblt_j.seed,
                  cell_bytes=response.iblt_j.cell_bytes)
    jprime.update(tx.short_id(config.short_id_bytes)
                  for tx in candidates.values())

    diff = response.iblt_j.subtract(jprime)
    decode = diff.decode()
    decode_solo = decode.complete
    used_pingpong = False
    if not decode.complete and state.iblt_p1_diff is not None \
            and not state.special_case:
        # Ping-pong (paper 4.2): align the Protocol 1 difference with
        # J's by peeling the known T transactions out of it first --
        # they sit in I (block side) but were absent from Z.
        aligned = state.iblt_p1_diff.copy()
        for tx in response.missing_txs:
            aligned.peel(tx.short_id(config.short_id_bytes), +1)
        decode = pingpong_decode(diff, aligned)
        used_pingpong = True

    result = Protocol2Result(success=False, decode_complete=decode.complete,
                             decode_complete_solo=decode_solo,
                             used_pingpong=used_pingpong)
    if not decode.complete:
        return result

    # remote keys: candidates not in the block (false positives through
    # S, or through F in the special case) -- strip them.
    surviving = {
        txid: tx for txid, tx in candidates.items()
        if tx.short_id(config.short_id_bytes) not in decode.remote
    }
    # local keys: block transactions absent from the candidate set.
    # Some may be resurrectable locally (dropped by F wrongly, or in the
    # mempool but failed S); the remainder need a final getdata.  One
    # short-id map per pool replaces the old per-key linear rescans.
    still_missing = set()
    if decode.local:
        dropped_short: dict = {}
        for cand in dropped_by_f.values():
            dropped_short.setdefault(cand.short_id(config.short_id_bytes),
                                     cand)
        pool = mempool.columns()
        pool_short: dict = {}
        for cand in pool.take(pool.rows_with_short_ids(
                decode.local, config.short_id_bytes)).txs:
            pool_short.setdefault(cand.short_id(config.short_id_bytes), cand)
        for key in decode.local:
            tx = dropped_short.get(key) or pool_short.get(key)
            if tx is None:
                still_missing.add(key)
            else:
                surviving[tx.txid] = tx

    result.recovered = surviving
    if still_missing:
        result.missing_short_ids = frozenset(still_missing)
        return result

    txs = list(surviving.values())
    if validate_block is not None:
        ordered = validate_block.validated_order(txs)
        if ordered is None:
            return result
        result.merkle_ok = True
        result.txs = ordered
    else:
        result.txs = sorted(txs, key=lambda tx: tx.txid)
    result.success = True
    return result
