"""Tests for the Bloom/IBLT joint size optimization (Eqs. 2-5)."""

from __future__ import annotations

import math
import random

import pytest

from repro.core import params as params_module
from repro.core.bounds import a_star
from repro.core.params import (
    EXHAUSTIVE_LIMIT,
    FilterIBLTPlan,
    GrapheneConfig,
    closed_form_a,
    optimize_a,
    optimize_b,
)
from repro.core.protocol2 import SPECIAL_CASE_FPR
from repro.errors import ParameterError
from repro.pds.bloom import bloom_size_bytes
from repro.pds.param_table import default_param_table


class TestClosedForm:
    def test_eq3_value(self):
        # a = n / (8 r tau ln^2 2).
        n, r, tau = 2000, 12, 1.4
        expected = n / (8 * r * tau * math.log(2) ** 2)
        assert closed_form_a(n, tau, r) == round(expected)

    def test_minimum_one(self):
        assert closed_form_a(1, 1.5, 12) == 1

    def test_rejects_bad(self):
        with pytest.raises(ParameterError):
            closed_form_a(10, 0, 12)


class TestOptimizeA:
    def test_plan_is_locally_optimal(self, config):
        # No nearby integer a should produce a smaller total.
        n, m = 2000, 4000
        plan = optimize_a(n, m, config)
        from repro.core.bounds import a_star
        table = default_param_table()
        for a in (plan.a - 1, plan.a + 1):
            if not 1 <= a <= m - n:
                continue
            recover = math.ceil(a_star(a, config.beta))
            params = table.params_for(recover)
            total = (bloom_size_bytes(n, a / (m - n)) + 9
                     + config.iblt_bytes(params))
            assert plan.total_bytes <= total

    def test_m_equals_n_degenerates(self, config):
        plan = optimize_a(100, 100, config)
        assert plan.fpr == 1.0
        assert plan.bloom_bytes == 0
        assert plan.iblt_bytes > 0

    def test_n_zero(self, config):
        plan = optimize_a(0, 50, config)
        assert plan.fpr == 1.0

    def test_fpr_consistent_with_a(self, config):
        n, m = 500, 2000
        plan = optimize_a(n, m, config)
        assert plan.fpr == pytest.approx(plan.a / (m - n))

    def test_recover_exceeds_a(self, config):
        plan = optimize_a(1000, 3000, config)
        assert plan.recover > plan.a  # Theorem 1 head-room

    def test_total_below_both_extremes(self, config):
        # The optimum beats both the near-zero-FPR filter and IBLT-only.
        n, m = 2000, 6000
        plan = optimize_a(n, m, config)
        # IBLT-only: a = m - n.
        iblt_only = optimize_a(n, m, config).total_bytes  # sanity anchor
        assert plan.total_bytes <= iblt_only
        tiny_fpr_bloom = bloom_size_bytes(n, 1.0 / (m - n)) + 9
        table = default_param_table()
        assert plan.total_bytes <= tiny_fpr_bloom + config.iblt_bytes(
            table.params_for(2))

    def test_grows_sublinearly_in_m(self, config):
        # Fig. 14: cost grows slowly as extra mempool txns accumulate.
        n = 2000
        t1 = optimize_a(n, n + n // 2, config).total_bytes
        t2 = optimize_a(n, n + 5 * n, config).total_bytes
        assert t2 < 2.5 * t1

    def test_much_smaller_than_compact_blocks(self, config):
        from repro.baselines.compact_blocks import compact_blocks_bytes
        n, m = 2000, 4000
        assert optimize_a(n, m, config).total_bytes < compact_blocks_bytes(n)

    def test_rejects_negative(self, config):
        with pytest.raises(ParameterError):
            optimize_a(-1, 10, config)


class TestOptimizeB:
    def test_basic_shape(self, config):
        plan = optimize_b(z=500, missing_bound=100, ystar=20, config=config)
        assert 1 <= plan.a <= 100
        assert plan.fpr == pytest.approx(plan.a / 100)
        assert plan.recover == plan.a + 20

    def test_missing_bound_zero_degenerates(self, config):
        plan = optimize_b(z=100, missing_bound=0, ystar=5, config=config)
        assert plan.fpr == 1.0
        assert plan.bloom_bytes == 0
        assert plan.recover >= 5

    def test_recover_includes_ystar(self, config):
        plan = optimize_b(z=300, missing_bound=50, ystar=40, config=config)
        assert plan.recover >= 40

    def test_rejects_negative(self, config):
        with pytest.raises(ParameterError):
            optimize_b(z=-1, missing_bound=10, ystar=0, config=config)


class TestGrapheneConfig:
    def test_defaults_match_paper(self, config):
        assert config.beta == pytest.approx(239 / 240)
        assert config.cell_bytes == 12
        assert config.short_id_bytes == 8
        assert SPECIAL_CASE_FPR == 0.1

    def test_table_lookup(self):
        # Every plan is sized from the 1/240 table (paper 4.1).
        assert default_param_table() is default_param_table(240)

    def test_iblt_bytes(self, config):
        params = default_param_table().params_for(10)
        assert config.iblt_bytes(params) == 12 + params.cells * 12

    @pytest.mark.parametrize("seed", [-1, 2 ** 32, 2 ** 32 + 7])
    def test_seed_must_fit_the_wire_field(self, seed):
        # The receiver rebuilds S/I'/J' from the u32 seed in the wire
        # header; a wider seed used to be masked there and every relay
        # under it silently fell through to the full block.
        with pytest.raises(ParameterError):
            GrapheneConfig(seed=seed)

    @pytest.mark.parametrize("width", [-1, 0, 9, 12])
    def test_short_id_width_must_fit_a_64_bit_key(self, width):
        # IBLT keys are masked to 64 bits while false positives are
        # stripped by comparing whole short IDs, so at 9 bytes and up a
        # stripped key matched no candidate and 6 of 10 relays ended
        # success=False; 0 escaped as a bare ValueError.
        with pytest.raises(ParameterError):
            GrapheneConfig(short_id_bytes=width)

    @pytest.mark.parametrize("protocol", [0, 2, 4])
    def test_protocol_must_be_one_or_three(self, protocol):
        # Protocol 2 is P1's fallback, not an opening: a sender engine
        # handed protocol=2 used to serve Protocol 1 without a word.
        with pytest.raises(ParameterError):
            GrapheneConfig(protocol=protocol)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, -0.1])
    def test_beta_must_be_a_probability_below_one(self, beta):
        # beta = 1.5 used to construct and fail only at the first relay.
        with pytest.raises(ParameterError):
            GrapheneConfig(beta=beta)

    @pytest.mark.parametrize("cell_bytes", [-1, 0, 256])
    def test_cell_bytes_must_fit_the_u8_header_field(self, cell_bytes):
        # 0 used to fail deep inside closed_form_a; the IBLT header
        # carries the width as a u8, so 256 cannot be sent.
        with pytest.raises(ParameterError):
            GrapheneConfig(cell_bytes=cell_bytes)
        assert GrapheneConfig(cell_bytes=255).cell_bytes == 255

    @pytest.mark.parametrize("width", range(1, 9))
    def test_every_legal_short_id_width_relays(self, width):
        from repro.chain.scenarios import make_block_scenario
        from repro.core.session import BlockRelaySession
        # One- and two-byte IDs collide by the dozen at any real size;
        # a handful of transactions keeps them distinct.
        n, extra = (4, 4) if width < 3 else (300, 600)
        sc = make_block_scenario(n, extra, fraction=1.0, seed=3)
        assert len({tx.short_id(width) for tx in sc.receiver_mempool}) \
            == n + extra
        result = BlockRelaySession(
            GrapheneConfig(short_id_bytes=width)).relay(
                sc.block, sc.receiver_mempool)
        assert result.success and result.protocol_used == 1
        assert [tx.txid for tx in result.txs] == sc.block.txids

    def test_largest_seed_relays(self):
        from repro.chain.scenarios import make_block_scenario
        from repro.core.session import BlockRelaySession
        sc = make_block_scenario(n=500, extra=500, fraction=1.0, seed=3)
        result = BlockRelaySession(GrapheneConfig(seed=2 ** 32 - 1)).relay(
            sc.block, sc.receiver_mempool)
        assert result.success and result.protocol_used == 1


class TestCandidateSweep:
    def test_small_region_exhaustive(self, config):
        # The paper's <100 discrete-search requirement: every integer in
        # the small region must be a candidate.
        from repro.core.params import _candidate_values
        values = _candidate_values(50, 1000)
        assert set(range(1, EXHAUSTIVE_LIMIT + 1)) <= set(values)

    def test_includes_upper(self):
        from repro.core.params import _candidate_values
        assert 1000 in _candidate_values(50, 1000)

    def test_small_upper(self):
        from repro.core.params import _candidate_values
        assert _candidate_values(1, 3) == [1, 2, 3]


class TestParamTableEdges:
    """Boundary rows of the IBLT parameter table (clamp, never
    under-allocate): an estimate at or below the smallest certified
    entry gets the smallest certified shape, and a request past the
    last row extrapolates with the tail hedge plus margin."""

    def test_zero_clamps_to_smallest_row(self):
        for denom in (24, 240, 2400):
            table = default_param_table(denom)
            row_j, row_k, row_cells = table.rows[0]
            params = table.params_for(0)
            assert params.cells == row_cells
            assert params.k == row_k

    def test_zero_never_smaller_than_one(self):
        for denom in (24, 240, 2400):
            table = default_param_table(denom)
            assert table.params_for(0).cells >= table.params_for(1).cells

    def test_first_row_exact(self):
        table = default_param_table(240)
        row_j, row_k, row_cells = table.rows[0]
        params = table.params_for(row_j)
        assert (params.cells, params.k) == (row_cells, row_k)

    def test_last_row_exact(self):
        table = default_param_table(240)
        row_j, row_k, row_cells = table.rows[-1]
        params = table.params_for(row_j)
        assert (params.cells, params.k) == (row_cells, row_k)

    def test_between_rows_rounds_up(self):
        table = default_param_table(240)
        (j_lo, _, _), (j_hi, k_hi, cells_hi) = table.rows[3], table.rows[4]
        if j_hi - j_lo > 1:
            params = table.params_for(j_lo + 1)
            assert (params.cells, params.k) == (cells_hi, k_hi)

    def test_beyond_table_extrapolates_with_margin(self):
        table = default_param_table(240)
        max_j, _, max_cells = table.rows[-1]
        tail_tau = max_cells / max_j
        params = table.params_for(max_j + 1)
        assert params.cells >= (max_j + 1) * tail_tau
        assert params.cells % params.k == 0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            default_param_table(240).params_for(-1)


class TestWinnerOnlyPlan:
    """``optimize_a`` / ``optimize_b`` build a plan for the winning
    candidate only; the sweep that built one per candidate is kept here
    as the reference (first minimum wins)."""

    @staticmethod
    def _reference(candidates, upper, items, recover_of, config):
        table = default_param_table()
        best = None
        for a in candidates:
            fpr, recover = min(1.0, a / upper), recover_of(a)
            params, iblt_cost = params_module._iblt_cost(
                recover, table, config)
            plan = FilterIBLTPlan(
                a=a, fpr=fpr, recover=recover, iblt=params,
                bloom_bytes=params_module._bloom_cost(items, fpr),
                iblt_bytes=iblt_cost)
            if best is None or plan.total_bytes < best.total_bytes:
                best = plan
        return best

    @pytest.mark.parametrize("config", [
        GrapheneConfig(), GrapheneConfig(beta=0.99, cell_bytes=17)],
        ids=["default", "beta99-cell17"])
    def test_field_identical_on_seeded_inputs(self, config):
        rng = random.Random(20190819)
        table = default_param_table()
        differing = 0
        for _ in range(1300):  # x 2 calls x 2 configs = 5 200 plans
            n, excess = rng.randrange(1, 3000), rng.randrange(1, 6000)
            hint = closed_form_a(
                n, table.tau_for(max(1, min(excess, n) // 2)),
                config.cell_bytes)
            expected = self._reference(
                params_module._candidate_values(hint, excess), excess, n,
                lambda a: math.ceil(a_star(a, config.beta)), config)
            differing += params_module._optimize_a_uncached(
                n, n + excess, config) != expected
            z, bound, ystar = (rng.randrange(0, 600), rng.randrange(1, 200),
                               rng.randrange(0, 60))
            hint = closed_form_a(z, table.tau_for(max(1, ystar + 1)),
                                 config.cell_bytes) if z else 1
            expected = self._reference(
                params_module._candidate_values(hint, bound), bound, z,
                lambda b: b + ystar, config)
            differing += optimize_b(z, bound, ystar, config) != expected
        assert differing == 0
