"""Algorithm 1: IBLT-Param-Search (paper section 4.1, Fig. 9).

Finds the smallest cell count ``c`` (a multiple of ``k``) such that an
IBLT with ``k`` hash functions decodes ``j`` items with probability at
least ``p``, then minimizes over ``k``.

Faithful to the paper's algorithm in structure: binary search over ``c``
justified by the monotonicity of the decode rate in ``c``, Monte-Carlo
``decode()`` trials over the *hypergraph* representation rather than real
IBLTs (the source of the order-of-magnitude speedup the paper reports),
and a confidence-interval stopping rule.  Our one refinement is that the
trials at each candidate ``c`` are batched and vectorized
(:func:`repro.pds.hypergraph.decode_many`), and each candidate's
statistics are kept independent, which strengthens the guarantee the
interval provides.

When the trial budget at a candidate ``c`` is exhausted without the
interval separating from ``p`` -- the pseudocode's ``L = (1-p)/5``
proximity band -- we classify ``c`` as *insufficient*, exactly like the
pseudocode's ``cl = c`` branch.  The search therefore errs on the side of
slightly larger IBLTs whose decode rate meets or exceeds the target,
matching the behaviour in the paper's Fig. 7.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.pds.hypergraph import decode_many
from repro.utils.stats import wilson_interval

#: Largest hedge factor considered, mirroring ``cmax = 20`` in Fig. 9.
DEFAULT_TAU_MAX = 20.0


@dataclass(frozen=True)
class SearchResult:
    """Optimal parameters for one ``(j, p)`` pair."""

    j: int
    k: int
    cells: int
    target_success: float

    @property
    def tau(self) -> float:
        """Hedge factor ``tau = c / j`` (Eq. 1)."""
        return self.cells / self.j if self.j else float(self.cells)


def _round_up(c: int, k: int) -> int:
    return c + (-c % k)


class _CandidateStats:
    """Adaptive Monte-Carlo classification of one candidate cell count."""

    def __init__(self, j: int, k: int, c: int, rng: np.random.Generator):
        self.j = j
        self.k = k
        self.c = c
        self.rng = rng
        self.trials = 0
        self.successes = 0

    def run_batch(self, size: int) -> None:
        self.successes += decode_many(self.j, self.k, self.c, size, self.rng)
        self.trials += size

    def interval(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)


def classify_cell_count(j: int, k: int, c: int, p: float,
                        rng: np.random.Generator,
                        max_trials: int = 6000,
                        initial_batch: int = 128) -> bool:
    """Return True iff an IBLT (j items, k hashes, c cells) meets rate ``p``.

    Runs exponentially growing batches of hypergraph decode trials until
    the Wilson interval of the success proportion lies entirely above or
    below ``p``, or the budget runs out (treated as "does not meet").
    """
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must be in (0, 1), got {p}")
    stats = _CandidateStats(j, k, c, rng)
    batch = initial_batch
    while stats.trials < max_trials:
        stats.run_batch(min(batch, max_trials - stats.trials))
        low, high = stats.interval()
        if low >= p:
            return True
        if high <= p:
            return False
        batch *= 2
    return False


def search_cells(j: int, k: int, p: float,
                 rng: Optional[np.random.Generator] = None,
                 tau_max: float = DEFAULT_TAU_MAX,
                 max_trials: int = 6000,
                 known_upper: Optional[int] = None) -> Optional[int]:
    """Binary-search the optimally small ``c`` for ``(j, k, p)``.

    Returns the smallest multiple of ``k`` whose decode rate is certified
    to be at least ``p``, or None if even ``tau_max * j`` cells fail
    (then ``k`` is a bad choice for this ``j``).  ``known_upper`` lets the
    outer loop over ``k`` prune candidates that cannot beat the best
    result found so far.
    """
    if j < 0:
        raise ParameterError(f"j must be non-negative, got {j}")
    if j == 0:
        return k
    rng = rng if rng is not None else np.random.default_rng()
    ch = _round_up(max(int(tau_max * j), 4 * k), k)
    if known_upper is not None:
        ch = min(ch, _round_up(known_upper, k))
    if not classify_cell_count(j, k, ch, p, rng, max_trials=max_trials):
        return None
    cl = k  # exclusive lower bound: k cells can hold at most k items anyway
    # Invariant: ch is certified sufficient, cl is not (or is the floor).
    while ch - cl > k:
        mid = _round_up((cl + ch) // 2, k)
        if mid >= ch:
            mid = ch - k
        if mid <= cl:
            break
        if classify_cell_count(j, k, mid, p, rng, max_trials=max_trials):
            ch = mid
        else:
            cl = mid
    return ch


def default_k_candidates(j: int) -> Sequence[int]:
    """Hash-function counts worth searching for a given ``j``.

    The paper searches k in roughly 3..12 and observes that smaller k
    wins as j grows; these windows cover the optimum with margin.
    """
    if j <= 30:
        return range(3, 11)
    if j <= 200:
        return range(3, 8)
    return range(3, 6)


def optimal_parameters(j: int, p: float,
                       ks: Optional[Iterable[int]] = None,
                       rng: Optional[np.random.Generator] = None,
                       max_trials: int = 6000) -> SearchResult:
    """Minimize cells over ``k`` for a target decode rate ``p``.

    This is the outer loop the paper describes around Algorithm 1.
    """
    rng = rng if rng is not None else np.random.default_rng()
    ks = list(ks) if ks is not None else list(default_k_candidates(max(j, 1)))
    best: Optional[SearchResult] = None
    for k in ks:
        upper = best.cells - 1 if best else None
        if upper is not None and upper < k:
            continue
        cells = search_cells(j, k, p, rng=rng, max_trials=max_trials,
                             known_upper=upper)
        if cells is None:
            continue
        if best is None or cells < best.cells:
            best = SearchResult(j=j, k=k, cells=cells, target_success=p)
    if best is None:
        raise ParameterError(
            f"no (c, k) within tau <= {DEFAULT_TAU_MAX} meets rate {p} for j={j}")
    return best


def measure_decode_rate(j: int, k: int, c: int, trials: int,
                        rng: Optional[random.Random] = None) -> float:
    """Empirical decode success rate of an IBLT shape, for validation."""
    if trials <= 0:
        raise ParameterError(f"trials must be positive, got {trials}")
    seed = rng.getrandbits(32) if rng is not None else None
    return decode_many(j, k, c, trials, np.random.default_rng(seed)) / trials
