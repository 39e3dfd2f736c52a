"""Tests for ping-pong decoding (paper 4.2)."""

from __future__ import annotations

import random

import pytest

from repro.pds.iblt import IBLT
from repro.pds.param_table import default_param_table
from repro.pds.pingpong import pingpong_decode


def _difference_pair(items, cells_a, cells_b, k_a=4, k_b=4):
    """Two subtracted IBLTs over the same one-sided difference."""
    a1 = IBLT(cells_a, k=k_a, seed=101)
    a2 = IBLT(cells_a, k=k_a, seed=101)
    b1 = IBLT(cells_b, k=k_b, seed=202)
    b2 = IBLT(cells_b, k=k_b, seed=202)
    for key in items:
        a1.insert(key)
        b1.insert(key)
    return a1.subtract(a2), b1.subtract(b2)


class TestPingPong:
    def test_both_decodable_trivially_completes(self, rng):
        items = [rng.getrandbits(64) for _ in range(10)]
        first, second = _difference_pair(items, 60, 60)
        result = pingpong_decode(first, second)
        assert result.complete
        assert result.local == set(items)

    def test_rescues_undersized_primary(self, rng):
        # Primary too small to decode alone; sibling unlocks it.
        items = [rng.getrandbits(64) for _ in range(40)]
        first, second = _difference_pair(items, 44, 80)
        assert not first.decode().complete
        result = pingpong_decode(first, second)
        assert result.complete
        assert result.local == set(items)

    def test_order_does_not_matter(self, rng):
        items = [rng.getrandbits(64) for _ in range(40)]
        first, second = _difference_pair(items, 44, 80)
        assert pingpong_decode(second, first).complete

    def test_two_sided_difference(self, rng):
        xs = {rng.getrandbits(64) for _ in range(15)}
        ys = {rng.getrandbits(64) for _ in range(15)}
        a1 = IBLT(48, seed=1)
        a2 = IBLT(48, seed=1)
        b1 = IBLT(120, seed=2)
        b2 = IBLT(120, seed=2)
        for key in xs:
            a1.insert(key)
            b1.insert(key)
        for key in ys:
            a2.insert(key)
            b2.insert(key)
        result = pingpong_decode(a1.subtract(a2), b1.subtract(b2))
        assert result.complete
        assert result.local == xs
        assert result.remote == ys

    def test_hopeless_pair_reports_partial(self, rng):
        # Both structures far too small: no progress possible.
        items = [rng.getrandbits(64) for _ in range(200)]
        first, second = _difference_pair(items, 8, 8)
        result = pingpong_decode(first, second)
        assert not result.complete
        assert result.local <= set(items)

    def test_improves_failure_rate_statistically(self):
        # Fig. 11's headline: sibling at i == j lowers failure to ~(1-p)^2.
        rng = random.Random(9)
        table = default_param_table(240)
        j = 30
        params = table.params_for(j)
        single_fail = pair_fail = 0
        trials = 150
        for _ in range(trials):
            items = [rng.getrandbits(64) for _ in range(j)]
            first = IBLT(params.cells, k=params.k, seed=rng.getrandbits(30))
            second = IBLT(params.cells, k=params.k,
                          seed=rng.getrandbits(30) | 1)
            empty1 = IBLT(first.cells, k=first.k, seed=first.seed)
            empty2 = IBLT(second.cells, k=second.k, seed=second.seed)
            first.update(items)
            second.update(items)
            if not first.subtract(empty1).decode().complete:
                single_fail += 1
            if not pingpong_decode(first.subtract(empty1),
                                   second.subtract(empty2)).complete:
                pair_fail += 1
        assert pair_fail <= single_fail

    def test_result_sets_are_frozensets(self, rng):
        items = [rng.getrandbits(64) for _ in range(5)]
        first, second = _difference_pair(items, 40, 40)
        result = pingpong_decode(first, second)
        assert isinstance(result.local, frozenset)
        assert isinstance(result.remote, frozenset)

