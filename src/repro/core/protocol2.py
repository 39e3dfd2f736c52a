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

Z stays Protocol 1's :class:`~repro.core.candidates.CandidateSet`, and a
complete decode settles as Protocols 1 and 3 do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as _np

from repro.chain.block import Block
from repro.chain.columns import TxColumns
from repro.chain.mempool import Mempool
from repro.core.bounds import x_star, y_star
from repro.core.candidates import CandidateSet
from repro.core.params import GrapheneConfig, optimize_b
from repro.core.protocol1 import (
    Protocol1Payload,
    Protocol1Result,
    SEED_J,
    settle,
)
from repro.errors import ParameterError
from repro.pds.bloom import BloomFilter
from repro.pds.iblt import IBLT
from repro.pds.param_table import default_param_table
from repro.pds.pingpong import pingpong_decode
from repro.utils.memo import BoundedMemo
from repro.utils.serialization import compact_size_len

#: The fixed ``f_R`` of the ``m ~ n`` special case, known to both sides
#: (paper 3.3.2 sets 0.1 and reports 0.001-0.2 all work).
SPECIAL_CASE_FPR = 0.1

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

    def wire_size(self) -> int:
        return (self.bloom_r.serialized_size() + compact_size_len(self.b)
                + compact_size_len(self.ystar) + 1)  # +1 special-case flag

    @property
    def bloom_bytes(self) -> int:
        return self.bloom_r.serialized_size()


@dataclass
class Protocol2ReceiverState:
    """Everything the receiver must remember between steps 2 and 5."""

    candidate_set: CandidateSet      # the set Z, columnar
    iblt_p1_diff: Optional[IBLT]
    n: int
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
class Protocol2Result(Protocol1Result):
    """Protocol 2's settled decode (``candidate_set`` is Z as F left
    it), plus how ``J (-) J'`` got there."""

    #: Whether J (-) J' decoded on its own, before any ping-pong help
    #: (the "without" series of Fig. 16).
    decode_complete_solo: bool = False
    used_pingpong: bool = False


#: Memoized ``(x*, y*)`` keyed by their exact inputs ``(z, m, fpr,
#: beta, n)``.  ``x*`` walks a Chernoff term per candidate count, which
#: every P2 request whose sweep lands on the same counts repeats.
#: Bounded at 4 096 pairs (each entry counts 1).
_BOUNDS_CACHE = BoundedMemo(4096, lambda key, bounds: 1)


def _bounds(z: int, m: int, fpr: float, beta: float,
            n: Optional[int] = None) -> tuple[int, int]:
    """``(x*, y*)`` of Theorems 2 and 3 -- ``(0, z)`` where the filter
    passed everything, so ``z`` carries no information."""
    if fpr >= 1.0:
        return 0, z
    key = (z, m, fpr, beta, n)
    bounds = _BOUNDS_CACHE.lookup(key)
    if bounds is None:
        xstar = x_star(z, m, fpr, beta=beta, n=n)
        bounds = xstar, y_star(z, m, fpr, beta=beta, xstar=xstar, n=n)
        _BOUNDS_CACHE.remember(key, bounds)
    return bounds


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
    # Z also holds the prefilled transactions (the coinbase) no mempool
    # has, so z can exceed m; the bounds count them as pool rows too.
    xstar, ystar = _bounds(z, max(m, z), fpr_s, config.beta, n)
    missing_bound = max(0, n - xstar)

    # The m ~ n degeneracy (paper 3.3.2): S carried no information, so
    # z ~ m, x* ~ 0 and y* ~ z -- IBLT J would be sized to the whole
    # mempool.  Pin f_R instead and let the sender bound R's mistakes.
    special = missing_bound == 0 or (
        z >= _SPECIAL_Z_TRIGGER * max(1, m)
        and ystar >= _SPECIAL_Z_TRIGGER * max(1, z))

    if special:
        fpr_r = SPECIAL_CASE_FPR
        b = max(1, math.ceil(fpr_r * max(1, missing_bound)))
    else:
        plan = optimize_b(z, missing_bound, ystar, config)
        fpr_r, b = plan.fpr, plan.a
    bloom = BloomFilter.from_fpr(max(1, z), fpr_r, seed=config.seed ^ 0xF00D)
    bloom.update_packed(p1_result.candidate_set.ids())
    request = Protocol2Request(bloom_r=bloom, b=b, ystar=ystar, z=z,
                               xstar=xstar, special_case=special)
    state = Protocol2ReceiverState(
        candidate_set=p1_result.candidate_set,
        iblt_p1_diff=p1_result.iblt_diff, n=n, special_case=special)
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

    table = default_param_table()
    bloom_f: Optional[BloomFilter] = None
    if request.special_case:
        # Reverse roles (paper 3.3.2): the sender bounds R's false
        # positives among its own block, substituting block size for
        # mempool size and f_R for the FPR.  f_R is the protocol's
        # fixed special-case constant, known to both sides -- it is
        # not on the wire, so a decoded request cannot carry it.
        z_s = int(_np.count_nonzero(in_r))
        xstar_s, ystar_s = _bounds(z_s, n, SPECIAL_CASE_FPR,
                                   config.beta)
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
    """Receiver: reconcile J (-) J', strip mistakes, validate (step 5).

    A complete decode ends in :func:`~repro.core.protocol1.settle`, with
    T and the local keys the receiver held after all as what was pushed.
    """
    config = config or GrapheneConfig()
    width = config.short_id_bytes
    candidates, dropped = state.candidate_set, None
    if response.bloom_f is not None:
        # Special case: F tells the receiver which candidates the sender
        # believes are in the block; the rest are discarded up front.
        hits = response.bloom_f.contains_packed(candidates.ids())
        candidates, dropped = candidates.where(hits), candidates.where(~hits)
    pushed = TxColumns.of(response.missing_txs)
    pushed_sids = pushed.short_ids(width)

    j = response.iblt_j
    jprime = IBLT(j.cells, k=j.k, seed=j.seed, cell_bytes=j.cell_bytes)
    jprime.update(_np.concatenate([candidates.sids, pushed_sids]))

    diff = j.subtract(jprime)
    decode = diff.decode()
    result = Protocol2Result(success=False, candidate_set=candidates,
                             decode_complete_solo=decode.complete)
    if not decode.complete and state.iblt_p1_diff is not None \
            and not state.special_case:
        # Ping-pong (paper 4.2): align the Protocol 1 difference with
        # J's by peeling the known T transactions out of it first --
        # they sit in I (block side) but were absent from Z.
        aligned = state.iblt_p1_diff.copy()
        for sid in pushed_sids.tolist():
            aligned.peel(sid, +1)
        decode = pingpong_decode(diff, aligned)
        result.used_pingpong = True
    result.decode_complete = decode.complete
    if not decode.complete:
        return result
    # T is block-side like the decode's local keys, and arrived in full;
    # so may some local keys the receiver turns out to hold.
    received = dict(zip(pushed_sids.tolist(), pushed.txs))
    if decode.local:
        received.update(_held_locally(decode.local, dropped, mempool,
                                      width))
    return settle(result, decode.local.union(received), decode.remote,
                  state.n, validate_block, received)


def _held_locally(local, dropped: Optional[CandidateSet], mempool: Mempool,
                  width: int) -> dict:
    """``short ID -> transaction``, in ``local``'s order, for the local
    keys held after all: the first candidate F dropped, else the first
    mempool row, with that short ID."""
    pool = mempool.columns()
    rows = pool.rows_with_short_ids(local, width)
    holders = [(pool.short_ids(width)[rows], pool.gather(rows))]
    if dropped is not None:
        wanted = _np.fromiter(local, dtype=_np.uint64, count=len(local))
        dropped = dropped.where(_np.isin(dropped.sids, wanted, kind="sort"))
        holders.insert(0, (dropped.sids, dropped.source.gather(dropped.rows)))
    found: dict = {}
    for sids, txs in holders:
        for sid, tx in zip(sids.tolist(), txs):
            found.setdefault(sid, tx)
    return {key: found[key] for key in local if key in found}
