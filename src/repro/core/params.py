"""Optimal sizing of Graphene's Bloom filter / IBLT pairs (paper 3.3).

Graphene sends the least data when the *sum* of a Bloom filter and the
IBLT that repairs its false positives is minimal.  The paper gives the
continuous optimum ``a = n / (8 r tau ln^2 2)`` (Eq. 3) and notes that
below ``a ~ 100`` the ceiling functions inside real implementations make
the continuous answer up to 20% off, so "implementations that desire
strictly optimal performance" should search the discrete space.  We do
both: candidates from the closed form plus an exhaustive sweep of the
small-``a`` region and a geometric grid above it, all evaluated with the
true byte-accurate cost function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.bounds import BETA_DEFAULT, a_star
from repro.errors import ParameterError
from repro.pds.bloom import bloom_size_bytes
from repro.pds.iblt import DEFAULT_CELL_BYTES, IBLT_HEADER_BYTES
from repro.pds.param_table import (
    IBLTParamTable,
    IBLTParams,
    default_param_table,
)
from repro.utils.memo import BoundedMemo

#: Wire overhead of a serialized Bloom filter (see BloomFilter.serialized_size).
BLOOM_HEADER_BYTES = 9

#: Below this candidate value the continuous Eq. 3/5 optimum is unreliable
#: and the space is swept exhaustively (paper 3.3.1).
EXHAUSTIVE_LIMIT = 150


@dataclass(frozen=True)
class GrapheneConfig:
    """Knobs shared by every Graphene exchange.

    Attributes
    ----------
    beta:
        Assurance level for Theorems 1-3 (paper default 239/240).
    cell_bytes:
        Serialized IBLT cell width ``r``, 1 to 255 (the IBLT wire
        header carries it as a ``u8``).
    short_id_bytes:
        Width of the short transaction IDs stored in IBLTs, 1 to 8:
        IBLT and coded-symbol keys are 64-bit, so a wider ID would be
        truncated inside the structures and no longer match its
        transaction when false positives are stripped.
    seed:
        Base of every structure's hash-family seed (each is
        ``seed ^ small-constant``).  Must fit the ``u32`` seed field
        of the Bloom/IBLT wire headers, from which the receiver
        rebuilds its side.
    protocol:
        Which Graphene exchange the engines run: 1 is the classic
        Protocol 1 with Protocol 2 fallback; 3 is the rateless-IBLT
        stream (:mod:`repro.core.protocol3`), which needs no
        difference estimate and has no fallback branch.

    Every IBLT is sized from the shipped table for a decode failure
    rate of ``1/240`` (:func:`~repro.pds.param_table.default_param_table`,
    paper 4.1).
    """

    beta: float = BETA_DEFAULT
    cell_bytes: int = DEFAULT_CELL_BYTES
    short_id_bytes: int = 8
    seed: int = 0
    protocol: int = 1

    def __post_init__(self):
        if self.protocol not in (1, 3):
            raise ParameterError(
                f"unknown protocol {self.protocol}; expected 1 "
                "(classic, P2 fallback) or 3 (rateless)")
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"beta must be in (0, 1), got {self.beta}")
        if not 1 <= self.cell_bytes <= 255:
            raise ParameterError(
                f"cell_bytes must be in [1, 255], got {self.cell_bytes}")
        if not 0 <= self.seed < 2 ** 32:
            raise ParameterError(
                f"seed must be in [0, 2**32), got {self.seed}")
        if not 1 <= self.short_id_bytes <= 8:
            raise ParameterError(
                f"short_id_bytes must be in [1, 8], got "
                f"{self.short_id_bytes}")

    def iblt_bytes(self, params: IBLTParams) -> int:
        return IBLT_HEADER_BYTES + params.cells * self.cell_bytes


@dataclass(frozen=True)
class FilterIBLTPlan:
    """A chosen (Bloom filter, IBLT) pair and its cost breakdown.

    ``a`` plays the role of the expected false positive count through the
    filter (called ``a`` for S+I in Protocol 1 and ``b`` for R+J in
    Protocol 2); ``recover`` is the item count the IBLT is provisioned
    for (``a*`` or ``b + y*``).
    """

    a: int
    fpr: float
    recover: int
    iblt: IBLTParams
    bloom_bytes: int
    iblt_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.bloom_bytes + self.iblt_bytes


def _iblt_cost(recover: int, table: IBLTParamTable,
               config: GrapheneConfig) -> tuple[IBLTParams, int]:
    params = table.params_for(max(1, recover))
    return params, config.iblt_bytes(params)


def _bloom_cost(items: int, fpr: float) -> int:
    if fpr >= 1.0:
        return 0  # degenerate filter: nothing on the wire
    return bloom_size_bytes(items, fpr) + BLOOM_HEADER_BYTES


def _candidate_values(closed_form: int, upper: int) -> list[int]:
    """Candidate integers: exhaustive small region + geometric grid + hint."""
    candidates = set(range(1, min(upper, EXHAUSTIVE_LIMIT) + 1))
    value = EXHAUSTIVE_LIMIT
    while value < upper:
        value = int(math.ceil(value * 1.15))
        candidates.add(min(value, upper))
    candidates.add(upper)
    for offset in (-2, -1, 0, 1, 2):
        hint = closed_form + offset
        if 1 <= hint <= upper:
            candidates.add(hint)
    return sorted(candidates)


def _cheapest_plan(candidates: list[int], upper: int, items: int,
                   recover_of, table: IBLTParamTable,
                   config: GrapheneConfig) -> FilterIBLTPlan:
    """The candidate ``a`` whose filter (``items`` at FPR ``a / upper``)
    plus IBLT (``recover_of(a)`` items) is smallest; first minimum wins.
    Only the winner becomes a plan: the sweep compares two integers."""
    best = None
    for a in candidates:
        fpr = min(1.0, a / upper)
        recover = recover_of(a)
        params, iblt_cost = _iblt_cost(recover, table, config)
        bloom_cost = _bloom_cost(items, fpr)
        total = bloom_cost + iblt_cost
        if best is None or total < best[0]:
            best = (total, a, fpr, recover, params, bloom_cost, iblt_cost)
    _, a, fpr, recover, params, bloom_cost, iblt_cost = best
    return FilterIBLTPlan(a=a, fpr=fpr, recover=recover, iblt=params,
                          bloom_bytes=bloom_cost, iblt_bytes=iblt_cost)


def closed_form_a(n: int, tau: float, cell_bytes: int) -> int:
    """Eq. 3 / Eq. 5: ``a = n / (8 r tau ln^2 2)`` with delta = 0."""
    if tau <= 0 or cell_bytes <= 0:
        raise ParameterError("tau and cell_bytes must be positive")
    ln2sq = math.log(2.0) ** 2
    return max(1, round(n / (8.0 * cell_bytes * tau * ln2sq)))


#: Memoized Protocol 1 plans keyed ``(n, m, config)``.  The sweep over
#: candidate ``a`` values re-runs for every relay of the same block to
#: a similarly-sized mempool; plans are frozen, so sharing the result
#: is safe.  Bounded at 4 096 plans (each entry counts 1).
_PLAN_CACHE = BoundedMemo(4096, lambda key, plan: 1)

#: Memoized Protocol 2 plans keyed ``(z, missing_bound, ystar, config)``,
#: the exact inputs of :func:`optimize_b`, bounded like ``_PLAN_CACHE``.
_PLAN_B_CACHE = BoundedMemo(4096, lambda key, plan: 1)


def optimize_a(n: int, m: int, config: Optional[GrapheneConfig] = None) -> FilterIBLTPlan:
    """Choose ``a`` minimizing the total size of Bloom filter S and IBLT I.

    ``n`` transactions are inserted into S (full IDs); the IBLT must
    recover ``a* = (1 + delta) a`` items with beta-assurance (Theorem 1).
    Covers the paper's edge cases: ``m == n`` degenerates to an FPR-1
    (absent) filter plus a minimal IBLT, and the full sweep includes
    ``a = m - n``, the IBLT-only end of the spectrum.
    """
    config = config or GrapheneConfig()
    if n < 0 or m < 0:
        raise ParameterError(f"n and m must be non-negative: {n}, {m}")
    key = (n, m, config)
    plan = _PLAN_CACHE.lookup(key)
    if plan is None:
        plan = _optimize_a_uncached(n, m, config)
        _PLAN_CACHE.remember(key, plan)
    return plan


def _optimize_a_uncached(n: int, m: int,
                         config: GrapheneConfig) -> FilterIBLTPlan:
    table = default_param_table()
    excess = m - n
    if n == 0:
        params, cost = _iblt_cost(1, table, config)
        return FilterIBLTPlan(a=0, fpr=1.0, recover=1, iblt=params,
                              bloom_bytes=0, iblt_bytes=cost)
    if excess <= 0:
        # Receiver claims no extra transactions: no false positives are
        # possible, the Bloom filter degenerates to FPR 1 (zero bytes) and
        # a small IBLT guards against the receiver actually missing txns.
        params, cost = _iblt_cost(1, table, config)
        return FilterIBLTPlan(a=0, fpr=1.0, recover=1, iblt=params,
                              bloom_bytes=0, iblt_bytes=cost)

    hint = closed_form_a(n, table.tau_for(max(1, min(excess, n) // 2)),
                         config.cell_bytes)
    return _cheapest_plan(
        _candidate_values(hint, excess), excess, n,
        lambda a: math.ceil(a_star(a, config.beta)), table, config)


def optimize_b(z: int, missing_bound: int, ystar: int,
               config: Optional[GrapheneConfig] = None) -> FilterIBLTPlan:
    """Choose ``b`` minimizing the total size of Bloom filter R and IBLT J.

    ``z`` candidate transactions are inserted into R with FPR
    ``f_R = b / missing_bound`` where ``missing_bound = n - x*`` upper
    bounds (w.p. beta) how many block transactions the receiver is
    missing.  IBLT J must recover ``b + y*`` items (paper 3.3.2).
    """
    config = config or GrapheneConfig()
    if z < 0 or ystar < 0:
        raise ParameterError(f"z and ystar must be non-negative: {z}, {ystar}")
    key = (z, missing_bound, ystar, config)
    plan = _PLAN_B_CACHE.lookup(key)
    if plan is None:
        plan = _optimize_b_uncached(z, missing_bound, ystar, config)
        _PLAN_B_CACHE.remember(key, plan)
    return plan


def _optimize_b_uncached(z: int, missing_bound: int, ystar: int,
                         config: GrapheneConfig) -> FilterIBLTPlan:
    table = default_param_table()
    if missing_bound <= 0:
        # Nothing provably missing; R degenerates, J still repairs y*.
        recover = max(1, ystar)
        params, cost = _iblt_cost(recover, table, config)
        return FilterIBLTPlan(a=0, fpr=1.0, recover=recover, iblt=params,
                              bloom_bytes=0, iblt_bytes=cost)

    hint = closed_form_a(z, table.tau_for(max(1, ystar + 1)),
                         config.cell_bytes) if z else 1
    return _cheapest_plan(
        _candidate_values(hint, missing_bound), missing_bound, z,
        lambda b: b + ystar, table, config)
