"""Tests for the ordering-cost model (CTOR itself: tests/test_block.py)."""

from __future__ import annotations

import math

import pytest

from repro.chain.ordering import ordering_info_bytes


class TestOrderingCost:
    def test_zero_for_tiny(self):
        assert ordering_info_bytes(0) == 0
        assert ordering_info_bytes(1) == 0

    def test_matches_log_factorial(self):
        n = 1000
        expected_bits = math.lgamma(n + 1) / math.log(2)
        assert ordering_info_bytes(n) == math.ceil(expected_bits / 8)

    def test_superlinear_growth(self):
        # n log n growth: per-item cost increases with n.
        per_item_small = ordering_info_bytes(100) / 100
        per_item_large = ordering_info_bytes(10_000) / 10_000
        assert per_item_large > per_item_small

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ordering_info_bytes(-1)

    def test_dominates_graphene_for_large_n(self):
        # Paper 6.2: ordering info exceeds Graphene itself as n grows.
        from repro.analysis.theory import graphene_protocol1_bytes
        n = 10_000
        assert ordering_info_bytes(n) > graphene_protocol1_bytes(n, 2 * n)
