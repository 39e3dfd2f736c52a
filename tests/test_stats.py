"""Tests for the statistics helpers (Lemma 1 machinery, Wilson CI)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import (
    binomial_sample,
    chernoff_delta,
    chernoff_poisson_tail,
    wilson_interval,
)


def _lemma1_tail(mu: float, delta: float) -> float:
    """Lemma 1's bound ``exp(-delta^2 mu / (2 + delta))``."""
    return math.exp(-delta * delta * mu / (2.0 + delta))


class TestChernoffDelta:
    def test_solves_lemma1_equality(self):
        # delta is defined so exp(-d^2 mu / (2+d)) == 1 - beta exactly.
        mu, beta = 20.0, 239.0 / 240.0
        delta = chernoff_delta(mu, beta)
        assert _lemma1_tail(mu, delta) == pytest.approx(1.0 - beta)

    def test_decreases_with_mu(self):
        beta = 0.99
        deltas = [chernoff_delta(mu, beta) for mu in (1, 10, 100, 1000)]
        assert deltas == sorted(deltas, reverse=True)

    def test_increases_with_beta(self):
        assert (chernoff_delta(10, 0.999)
                > chernoff_delta(10, 0.99)
                > chernoff_delta(10, 0.9))

    @pytest.mark.parametrize("bad_beta", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_beta(self, bad_beta):
        with pytest.raises(ValueError):
            chernoff_delta(10, bad_beta)

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            chernoff_delta(0.0, 0.99)

    def test_empirically_bounds_binomial(self):
        # Pr[A >= (1+delta) mu] should be <= 1 - beta (with slack).
        rng = random.Random(42)
        n, p, beta = 2000, 0.01, 0.99
        mu = n * p
        threshold = (1.0 + chernoff_delta(mu, beta)) * mu
        exceed = sum(
            sum(rng.random() < p for _ in range(n)) > threshold
            for _ in range(2000))
        assert exceed / 2000 <= (1 - beta) * 3  # generous Monte-Carlo slack


class TestTailBounds:
    def test_poisson_tail_bounds_upper_tail(self):
        # The (e^d/(1+d)^(1+d))^mu form is tighter than Lemma 1's form.
        for delta in (0.5, 1.0, 3.0):
            assert (chernoff_poisson_tail(10.0, delta)
                    <= _lemma1_tail(10.0, delta) + 1e-12)

    def test_poisson_tail_zero_mu(self):
        assert chernoff_poisson_tail(0.0, 1.0) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chernoff_poisson_tail(1.0, -1.5)


class TestWilsonInterval:
    def test_contains_proportion(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high

    def test_zero_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_perfect_successes_upper_is_one(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert low > 0.9

    def test_narrows_with_trials(self):
        low1, high1 = wilson_interval(50, 100)
        low2, high2 = wilson_interval(500, 1000)
        assert (high2 - low2) < (high1 - low1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_interval_is_ordered_and_bounded(self, successes, trials):
        if successes > trials:
            successes, trials = trials, successes
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= high <= 1.0


class TestBinomialSample:
    def test_edge_cases(self, rng):
        assert binomial_sample(rng, 0, 0.5) == 0
        assert binomial_sample(rng, 100, 0.0) == 0
        assert binomial_sample(rng, 100, 1.0) == 100

    def test_within_range(self, rng):
        for _ in range(100):
            value = binomial_sample(rng, 50, 0.3)
            assert 0 <= value <= 50

    def test_mean_accuracy_small(self, rng):
        n, p, trials = 40, 0.2, 4000
        mean = sum(binomial_sample(rng, n, p) for _ in range(trials)) / trials
        assert mean == pytest.approx(n * p, rel=0.1)

    def test_mean_accuracy_normal_approx(self, rng):
        # Large n*p path uses the Gaussian approximation.
        n, p, trials = 100_000, 0.01, 400
        mean = sum(binomial_sample(rng, n, p) for _ in range(trials)) / trials
        assert mean == pytest.approx(n * p, rel=0.05)
        assert math.sqrt(n * p * (1 - p)) > 30  # confirm approx regime

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            binomial_sample(rng, -1, 0.5)
        with pytest.raises(ValueError):
            binomial_sample(rng, 10, 1.5)
