"""Tests for the fork-rate analysis."""

from __future__ import annotations

import math

import pytest

from repro.analysis.forks import (
    delay_for_fork_budget,
    fork_probability,
    fork_rate_curve,
    max_block_size_for_budget,
    measure_propagation_delay,
)
from repro.errors import ParameterError
from repro.net.node import RelayProtocol


class TestForkModel:
    def test_zero_delay_zero_forks(self):
        assert fork_probability(0.0) == 0.0

    def test_matches_closed_form(self):
        assert fork_probability(30.0, 600.0) == pytest.approx(
            1 - math.exp(-0.05))

    def test_monotone_in_delay(self):
        values = [fork_probability(d) for d in (1, 10, 60, 300)]
        assert values == sorted(values)

    def test_inverse_roundtrip(self):
        budget = 0.02
        delay = delay_for_fork_budget(budget)
        assert fork_probability(delay) == pytest.approx(budget)

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            fork_probability(-1.0)
        with pytest.raises(ParameterError):
            fork_probability(1.0, 0.0)
        with pytest.raises(ParameterError):
            delay_for_fork_budget(1.0)


class TestPropagationMeasurement:
    def test_measurement_fields(self):
        measured = measure_propagation_delay(
            RelayProtocol.GRAPHENE, 100, nodes=6, degree=2, seed=1)
        assert measured.covered_at > 0
        assert measured.total_bytes > 0
        assert len(measured.nodes) == 6

    def test_graphene_faster_than_full_blocks(self):
        kwargs = dict(nodes=6, degree=2, bandwidth=150_000.0, seed=2)
        graphene = measure_propagation_delay(
            RelayProtocol.GRAPHENE, 400, **kwargs)
        full = measure_propagation_delay(
            RelayProtocol.FULL_BLOCK, 400, **kwargs)
        assert graphene.covered_at < full.covered_at

    def test_rejects_empty_block(self):
        with pytest.raises(ParameterError):
            measure_propagation_delay(RelayProtocol.GRAPHENE, 0)


class TestForkCurves:
    def test_fork_rate_grows_with_block_size_for_full_blocks(self):
        rows = fork_rate_curve(RelayProtocol.FULL_BLOCK,
                               block_sizes=(100, 1000),
                               nodes=6, degree=2,
                               bandwidth=100_000.0, seed=3)
        assert rows[1]["fork_probability"] > rows[0]["fork_probability"]

    def test_graphene_forks_less_than_full_blocks(self):
        kwargs = dict(nodes=6, degree=2, bandwidth=100_000.0, seed=4)
        graphene = fork_rate_curve(RelayProtocol.GRAPHENE,
                                   block_sizes=(1000,), **kwargs)
        full = fork_rate_curve(RelayProtocol.FULL_BLOCK,
                               block_sizes=(1000,), **kwargs)
        assert (graphene[0]["fork_probability"]
                < full[0]["fork_probability"])

    def test_budget_admits_larger_graphene_blocks(self):
        # The introduction's claim, end to end: under the same fork
        # budget, Graphene admits at least the block size full-block
        # relay admits (and typically much more).
        kwargs = dict(nodes=6, degree=2, bandwidth=60_000.0, seed=5)
        candidates = (500, 1000, 2000, 4000)
        graphene_max = max_block_size_for_budget(
            RelayProtocol.GRAPHENE, 0.005, candidates=candidates, **kwargs)
        full_max = max_block_size_for_budget(
            RelayProtocol.FULL_BLOCK, 0.005, candidates=candidates, **kwargs)
        assert graphene_max >= full_max
        assert graphene_max >= 1000
