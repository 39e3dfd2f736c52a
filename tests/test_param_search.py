"""Tests for Algorithm 1 (IBLT-Param-Search)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.pds.hypergraph import decode_many
from repro.pds.param_search import (
    classify_cell_count,
    default_k_candidates,
    measure_decode_rate,
    optimal_parameters,
    search_cells,
)


@pytest.fixture
def gen():
    return np.random.default_rng(12345)


class TestClassify:
    def test_ample_cells_classified_sufficient(self, gen):
        assert classify_cell_count(10, 4, 200, 0.9, gen)

    def test_starved_cells_classified_insufficient(self, gen):
        assert not classify_cell_count(100, 4, 104, 0.9, gen)

    def test_rejects_bad_p(self, gen):
        with pytest.raises(ParameterError):
            classify_cell_count(10, 4, 40, 1.0, gen)


class TestSearchCells:
    def test_returns_multiple_of_k(self, gen):
        cells = search_cells(20, 4, 0.95, rng=gen, max_trials=1500)
        assert cells is not None and cells % 4 == 0

    def test_found_size_actually_meets_rate(self, gen):
        p = 0.95
        cells = search_cells(30, 4, p, rng=gen, max_trials=2000)
        rate = decode_many(30, 4, cells, 2000, gen) / 2000
        assert rate >= p - 0.03  # Monte-Carlo slack

    def test_minimality(self, gen):
        # One k-step below the answer should measurably miss the target.
        p = 0.95
        cells = search_cells(30, 4, p, rng=gen, max_trials=2000)
        if cells > 8:
            rate_below = decode_many(30, 4, cells - 4, 3000, gen) / 3000
            assert rate_below < p + 0.02

    def test_j_zero(self, gen):
        assert search_cells(0, 4, 0.95, rng=gen) == 4

    def test_known_upper_prunes(self, gen):
        assert search_cells(50, 4, 0.95, rng=gen, known_upper=8,
                            max_trials=500) is None

    def test_grows_with_j(self, gen):
        small = search_cells(10, 4, 0.9, rng=gen, max_trials=1000)
        large = search_cells(80, 4, 0.9, rng=gen, max_trials=1000)
        assert large > small


class TestOptimalParameters:
    def test_beats_or_matches_single_k(self, gen):
        best = optimal_parameters(25, 0.9, rng=gen, max_trials=1000)
        k4 = search_cells(25, 4, 0.9, rng=gen, max_trials=1000)
        assert best.cells <= k4

    def test_tau_reported(self, gen):
        result = optimal_parameters(25, 0.9, rng=gen, max_trials=800)
        assert result.tau == pytest.approx(result.cells / 25)

    def test_restricted_k_list(self, gen):
        result = optimal_parameters(25, 0.9, ks=[3], rng=gen, max_trials=800)
        assert result.k == 3


class TestKCandidates:
    def test_windows_cover_paper_range(self):
        assert set(default_k_candidates(5)) <= set(range(3, 13))
        assert 3 in default_k_candidates(1000)

    def test_small_j_searches_more_ks(self):
        assert len(list(default_k_candidates(5))) >= len(
            list(default_k_candidates(5000)))


class TestMeasureDecodeRate:
    def test_rate_in_unit_interval(self):
        rate = measure_decode_rate(20, 4, 60, 200)
        assert 0.0 <= rate <= 1.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ParameterError):
            measure_decode_rate(10, 4, 40, 0)
