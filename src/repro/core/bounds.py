"""Theorems 1-3: beta-assurance bounds on Bloom filter false positives.

Graphene's data structures are tuned for *expected* behaviour, but the
variance of Bloom filter false positives would sink the decode rate if
ignored.  The paper derives three Chernoff-style bounds (Appendix A)
that convert an assurance level ``beta`` into safe parameters:

* Theorem 1: ``a*`` -- an upper bound (w.p. beta) on the false positives
  through filter S when the receiver holds the whole block; it sizes
  IBLT I.
* Theorem 2: ``x*`` -- a lower bound (w.p. beta) on the number of true
  positives hidden inside the observed count ``z``; it sets filter R's
  FPR.
* Theorem 3: ``y*`` -- an upper bound (w.p. beta) on the false positives
  hidden inside ``z``; together with ``b`` it sizes IBLT J.
"""

from __future__ import annotations

import math

from repro.errors import ParameterError
from repro.utils.stats import chernoff_delta, chernoff_poisson_tail

#: The assurance level used throughout the paper's evaluation: 239/240.
BETA_DEFAULT = 239.0 / 240.0


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")


def a_star(a: float, beta: float = BETA_DEFAULT) -> float:
    """Theorem 1: bound the false positives through S with beta-assurance.

    ``a`` is the *expected* number of false positives,
    ``(m - n) * f_S``.  Returns ``a* = (1 + delta) a`` such that the
    realized count exceeds ``a*`` with probability at most ``1 - beta``.
    """
    _check_beta(beta)
    if a <= 0:
        raise ParameterError(f"a must be positive, got {a}")
    return (1.0 + chernoff_delta(a, beta)) * a


def x_star(z: int, m: int, fpr: float, beta: float = BETA_DEFAULT,
           n: int | None = None) -> int:
    """Theorem 2: lower-bound the true positives in ``z`` with beta-assurance.

    ``z`` mempool transactions passed through filter S (FPR ``fpr``) out
    of a mempool of ``m``.  Returns the largest ``x*`` such that
    ``Pr[x <= x*] <= 1 - beta`` under the Chernoff bound -- i.e.
    ``x* <= x`` with probability at least ``beta``.

    ``n`` (the block size) optionally caps the search, since the count of
    true positives can never exceed the block size.
    """
    _check_beta(beta)
    if m < 0 or z < 0 or z > m:
        raise ParameterError(f"need 0 <= z <= m, got z={z}, m={m}")
    if not 0.0 < fpr <= 1.0:
        raise ParameterError(f"fpr must be in (0, 1], got {fpr}")
    limit = z if n is None else min(z, n)
    budget = 1.0 - beta
    cumulative = 0.0
    best = 0
    for k in range(0, limit + 1):
        mu = (m - k) * fpr
        y_needed = z - k  # false positives required if only k are true
        if mu <= 0.0:
            term = 1.0 if y_needed <= 0 else 0.0
        elif y_needed <= mu:
            # Chernoff upper tail is vacuous at or below the mean.
            term = 1.0
        else:
            delta_k = y_needed / mu - 1.0
            term = chernoff_poisson_tail(mu, delta_k)
        cumulative += term
        if cumulative <= budget:
            best = k
        else:
            break
    return best


def y_star(z: int, m: int, fpr: float, beta: float = BETA_DEFAULT,
           xstar: int | None = None, n: int | None = None) -> int:
    """Theorem 3: upper-bound the false positives in ``z`` with beta-assurance.

    Returns ``y* = (1 + delta) (m - x*) fpr``, rounded up.  ``x*`` is
    computed with Theorem 2 unless supplied by the caller (receivers
    compute both from the same observation).
    """
    _check_beta(beta)
    if xstar is None:
        xstar = x_star(z, m, fpr, beta=beta, n=n)
    mu = (m - xstar) * fpr
    if mu <= 0.0:
        return 0
    delta = chernoff_delta(mu, beta)
    return math.ceil((1.0 + delta) * mu)
