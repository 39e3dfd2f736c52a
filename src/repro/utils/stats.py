"""Statistical helpers shared by the bounds derivations and Algorithm 1.

Two tools live here:

* :func:`chernoff_delta` solves the paper's Lemma 1 inversion -- given a
  Binomial mean ``mu`` and an assurance level ``beta``, it returns the
  relative overshoot ``delta`` such that ``Pr[A >= (1+delta) mu] <= 1-beta``.
  Theorems 1 and 3 are direct applications.

* :func:`wilson_interval` is the two-sided confidence interval used by
  the ``conf_int`` call in Algorithm 1 (IBLT-Param-Search, Fig. 9).
"""

from __future__ import annotations

import math


def chernoff_delta(mu: float, beta: float) -> float:
    """Return ``delta`` with ``Pr[A >= (1+delta) mu] <= 1 - beta``.

    From Lemma 1 of the paper: for a sum ``A`` of independent Bernoulli
    trials with mean ``mu``, ``Pr[A >= (1+d) mu] <= exp(-d^2 mu / (2+d))``.
    Setting the right side to ``1 - beta`` and solving the quadratic gives
    ``d = (s + sqrt(s^2 + 8s)) / 2`` with ``s = -ln(1-beta)/mu`` (Eq. 7).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    s = -math.log(1.0 - beta) / mu
    return 0.5 * (s + math.sqrt(s * s + 8.0 * s))


def chernoff_poisson_tail(mu: float, delta: float) -> float:
    """Return the classic bound ``(e^d / (1+d)^(1+d))^mu`` used by Thm 2."""
    if mu < 0.0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    if delta <= -1.0:
        raise ValueError(f"delta must exceed -1, got {delta}")
    if mu == 0.0:
        return 1.0
    log_bound = mu * (delta - (1.0 + delta) * math.log1p(delta))
    return math.exp(log_bound)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Two-sided Wilson score interval for a Binomial proportion.

    Returns ``(low, high)``.  Used by Algorithm 1 to decide whether an
    observed decode rate is confidently above or below the target.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"invalid counts: {successes}/{trials}")
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def binomial_sample(rng, n: int, p: float) -> int:
    """Draw a Binomial(n, p) sample from ``rng`` (a ``random.Random``).

    Uses a normal approximation for large ``n*p`` to keep Monte-Carlo
    experiments with mempools of tens of thousands of transactions fast,
    and exact Bernoulli summation otherwise.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    mean = n * p
    var = n * p * (1.0 - p)
    if mean > 50.0 and var > 50.0:
        draw = int(round(rng.gauss(mean, math.sqrt(var))))
        return min(n, max(0, draw))
    return sum(1 for _ in range(n) if rng.random() < p)
