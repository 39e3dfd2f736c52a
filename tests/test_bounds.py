"""Tests for Theorems 1-3 (a*, x*, y*)."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.bounds import (
    BETA_DEFAULT,
    a_star,
    x_star,
    y_star,
)
from repro.errors import ParameterError
from repro.utils.stats import binomial_sample


class TestAStar:
    def test_exceeds_mean(self):
        assert a_star(10.0) > 10.0

    def test_matches_closed_form(self):
        # a* = (1 + delta) a with delta = (s + sqrt(s^2 + 8s)) / 2.
        a, beta = 20.0, BETA_DEFAULT
        s = -math.log(1.0 - beta) / a
        delta = 0.5 * (s + math.sqrt(s * s + 8 * s))
        assert a_star(a, beta) == pytest.approx((1 + delta) * a)

    def test_relative_overshoot_shrinks_with_a(self):
        ratios = [a_star(a) / a for a in (1, 10, 100, 1000)]
        assert ratios == sorted(ratios, reverse=True)

    def test_higher_beta_higher_bound(self):
        assert a_star(10, 0.9999) > a_star(10, 0.99)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            a_star(0.0)
        with pytest.raises(ParameterError):
            a_star(10.0, 1.0)

    def test_empirical_coverage(self):
        # Pr[A <= a*] should be at least beta for Binomial false positives.
        rng = random.Random(7)
        m_minus_n, fpr, beta = 4000, 0.01, BETA_DEFAULT
        a = m_minus_n * fpr
        bound = a_star(a, beta)
        trials = 3000
        covered = sum(
            binomial_sample(rng, m_minus_n, fpr) <= bound
            for _ in range(trials))
        assert covered / trials >= beta - 0.01


class TestXStar:
    def test_lower_bounds_truth_typically(self):
        # x = 80 of 100 block txns held, m = 200, f = 0.02.
        rng = random.Random(11)
        m, x, fpr = 200, 80, 0.02
        hold = 0
        trials = 500
        for _ in range(trials):
            y = binomial_sample(rng, m - x, fpr)
            if x_star(x + y, m, fpr, n=100) <= x:
                hold += 1
        assert hold / trials >= BETA_DEFAULT - 0.02

    def test_never_exceeds_z(self):
        assert x_star(z=50, m=1000, fpr=0.1) <= 50

    def test_never_exceeds_n(self):
        assert x_star(z=500, m=1000, fpr=0.001, n=100) <= 100

    def test_zero_z(self):
        assert x_star(z=0, m=100, fpr=0.01) == 0

    def test_tightens_with_smaller_fpr(self):
        # Fewer expected false positives -> more of z must be true.
        loose = x_star(z=100, m=10_000, fpr=0.05)
        tight = x_star(z=100, m=10_000, fpr=0.0001)
        assert tight >= loose

    def test_fpr_one_uninformative(self):
        # Everything passes a degenerate filter: no lower bound.
        assert x_star(z=100, m=100, fpr=1.0) == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            x_star(z=10, m=5, fpr=0.1)
        with pytest.raises(ParameterError):
            x_star(z=1, m=5, fpr=0.0)
        with pytest.raises(ParameterError):
            x_star(z=1, m=5, fpr=0.1, beta=1.0)


class TestYStar:
    def test_upper_bounds_truth_typically(self):
        rng = random.Random(13)
        m, x, fpr = 400, 150, 0.05
        hold = 0
        trials = 500
        for _ in range(trials):
            y = binomial_sample(rng, m - x, fpr)
            if y_star(x + y, m, fpr, n=200) >= y:
                hold += 1
        assert hold / trials >= BETA_DEFAULT - 0.02

    def test_zero_when_nothing_can_be_false(self):
        # x* == m: no transactions left to be false positives.
        assert y_star(z=10, m=10, fpr=0.5, xstar=10) == 0

    def test_exceeds_expectation(self):
        m, xstar, fpr = 1000, 200, 0.02
        assert y_star(z=300, m=m, fpr=fpr, xstar=xstar) > (m - xstar) * fpr

    def test_explicit_xstar_respected(self):
        a = y_star(z=100, m=1000, fpr=0.05, xstar=0)
        b = y_star(z=100, m=1000, fpr=0.05, xstar=90)
        assert a > b

    def test_rejects_bad_beta(self):
        with pytest.raises(ParameterError):
            y_star(z=10, m=100, fpr=0.1, beta=0.0)
