"""Tests for the analytic bounds of section 5.1 / Theorem 4."""

from __future__ import annotations

import math

import pytest

from repro.analysis.theory import (
    exact_membership_bound_bytes,
    graphene_protocol1_bytes,
    graphene_vs_bloom_gain_bits,
)
from repro.core.bounds import BETA_DEFAULT, a_star
from repro.errors import ParameterError


def _cost_model_bytes(n, m, a, tau, delta=None, cell_bytes=12,
                      beta=BETA_DEFAULT):
    """The continuous ``T(a)`` of Eq. 2, the oracle the optimizer is
    checked against:
    ``T(a) = -n ln(a / (m-n)) / (8 ln^2 2) + r tau (1 + delta) a``."""
    if delta is None:
        delta = a_star(a, beta) / a - 1.0
    bloom = -n * math.log(a / (m - n)) / (8.0 * math.log(2.0) ** 2)
    return max(0.0, bloom) + cell_bytes * tau * (1.0 + delta) * a


class TestInformationBounds:
    def test_exact_bound_formula(self):
        # log2 C(10, 3) = log2 120 ~ 6.9 bits -> 1 byte.
        assert exact_membership_bound_bytes(3, 10) == pytest.approx(7 / 8)

    def test_exact_bound_edges(self):
        assert exact_membership_bound_bytes(0, 10) == 0.0
        assert exact_membership_bound_bytes(10, 10) == 0.0

    def test_exact_bound_rejects_bad(self):
        with pytest.raises(ParameterError):
            exact_membership_bound_bytes(5, 3)

    def test_carter_bound_below_exact_for_loose_fpr(self):
        # Carter et al.'s -n log2 f bits for approximate membership.
        n, m = 100, 10_000
        approx = -n * math.log2(0.01) / 8.0
        exact = exact_membership_bound_bytes(n, m)
        assert approx < exact


class TestTheorem4:
    def test_gain_positive_for_large_n(self):
        assert graphene_vs_bloom_gain_bits(2000, 4000) > 0

    def test_gain_grows_superlinearly(self):
        # Omega(n log n): gain per transaction increases with n.
        per_tx = [graphene_vs_bloom_gain_bits(n, 2 * n) / n
                  for n in (1000, 4000, 16000)]
        assert per_tx == sorted(per_tx)

    def test_small_n_can_lose(self):
        # Paper: below ~50-100 txns deterministic/simple solutions win.
        assert graphene_vs_bloom_gain_bits(50, 100) < \
            graphene_vs_bloom_gain_bits(5000, 10_000)

    def test_rejects_m_not_larger(self):
        with pytest.raises(ParameterError):
            graphene_vs_bloom_gain_bits(10, 10)


class TestCostModel:
    def test_matches_eq2_shape(self):
        # T(a) should be near the discrete optimizer's result at the
        # optimizer's own choice of a.
        from repro.core.params import GrapheneConfig, optimize_a
        config = GrapheneConfig()
        n, m = 2000, 4000
        plan = optimize_a(n, m, config)
        tau = plan.iblt.cells / max(1, plan.recover)
        model = _cost_model_bytes(n, m, plan.a, tau)
        assert model == pytest.approx(plan.total_bytes, rel=0.25)

    def test_convex_in_a(self):
        # The continuous cost has a single interior minimum.
        n, m = 2000, 4000
        costs = [_cost_model_bytes(n, m, a, 1.4)
                 for a in (1, 5, 20, 60, 200, 1000, 1999)]
        minimum = min(costs)
        idx = costs.index(minimum)
        assert 0 < idx < len(costs) - 1

    def test_eq3_near_continuous_minimum(self):
        from repro.core.params import closed_form_a
        n, m, tau, r = 5000, 10_000, 1.4, 12
        a_hint = closed_form_a(n, tau, r)
        here = _cost_model_bytes(n, m, a_hint, tau, delta=0.0,
                                 cell_bytes=r)
        for factor in (0.5, 2.0):
            there = _cost_model_bytes(
                n, m, max(1, int(a_hint * factor)), tau, delta=0.0,
                cell_bytes=r)
            assert here <= there + 1e-9

    def test_graphene_protocol1_bytes_positive(self):
        assert graphene_protocol1_bytes(100, 300) > 0


class TestAsymptoticGain:
    def test_gain_roughly_n_log_n(self):
        # gain(n) / (n log2 n) should stabilize to a positive constant.
        ratios = [
            graphene_vs_bloom_gain_bits(n, 2 * n) / (n * math.log2(n))
            for n in (4000, 16000)
        ]
        assert all(r > 0 for r in ratios)
        assert ratios[1] == pytest.approx(ratios[0], rel=0.5)
