"""Tests for the IBLT parameter tables and their conservative lookup."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import ParameterError
from repro.pds.iblt import IBLT
from repro.pds.param_table import (
    DEFAULT_DENOM,
    IBLTParamTable,
    SUPPORTED_DENOMS,
    default_param_table,
)


def _linear_params_for(table, j):
    """The lookup as a scan, the specification the bisect must equal:
    the first row certified for at least ``j`` items (the first row for
    ``j == 0``), past the last row whatever ``params_for`` extrapolates."""
    for row_j, k, cells in table.rows:
        if row_j >= j:
            return (cells, k)
    return None


class TestLookup:
    @pytest.mark.parametrize("table", [
        default_param_table(DEFAULT_DENOM),
        IBLTParamTable([(5, 3, 15), (5, 4, 20), (9, 4, 28)], 240),
    ], ids=["csv", "repeated-j"])
    def test_bisect_equals_the_linear_scan(self, table):
        max_j = table.rows[-1][0]
        for j in range(max_j + 51):
            params = table.params_for(j)
            expected = _linear_params_for(table, j)
            if j <= max_j:
                assert (params.cells, params.k) == expected, j
            else:
                assert expected is None
                assert params.k == table.rows[-1][1]
                assert params.cells >= table.params_for(max_j).cells

    def test_exact_grid_hit(self):
        table = IBLTParamTable([(10, 4, 40), (20, 4, 60)], 240)
        assert table.params_for(10).cells == 40

    def test_between_grid_points_rounds_up(self):
        table = IBLTParamTable([(10, 4, 40), (20, 4, 60)], 240)
        assert table.params_for(15).cells == 60

    def test_beyond_table_extrapolates_conservatively(self):
        table = IBLTParamTable([(100, 4, 140)], 240)
        params = table.params_for(1000)
        assert params.cells >= 1400  # tau 1.4 times safety margin
        assert params.cells % params.k == 0

    def test_j_zero_clamps_to_smallest_certified_row(self):
        # An estimate of zero still has residual variance behind it, so
        # the lookup must never under-allocate below a certified shape.
        table = IBLTParamTable([(10, 4, 40)], 240)
        assert table.params_for(0).cells == 40

    def test_rejects_negative(self):
        table = IBLTParamTable([(10, 4, 40)], 240)
        with pytest.raises(ParameterError):
            table.params_for(-1)

    def test_empty_table_rejected(self):
        with pytest.raises(ParameterError):
            IBLTParamTable([], 240)

    def test_tau_for(self):
        table = IBLTParamTable([(10, 4, 40)], 240)
        assert table.tau_for(10) == pytest.approx(4.0)


class TestShippedTables:
    @pytest.mark.parametrize("denom", SUPPORTED_DENOMS)
    def test_loads(self, denom):
        table = default_param_table(denom)
        assert len(table) > 0
        assert table.denom == denom

    def test_cached(self):
        assert default_param_table(240) is default_param_table(240)

    def test_rejects_bad_denom(self):
        with pytest.raises(ParameterError):
            default_param_table(1)

    #: Rows, and a digest of them, of each shipped table.
    SHIPPED = {24: (42, "2d75c5a3b2f55ae3"), 240: (46, "0f09279dc3de249c"),
               2400: (42, "7091f827de21c50c")}

    @pytest.mark.parametrize("denom", SUPPORTED_DENOMS)
    def test_shipped_rows_unchanged(self, denom):
        rows = default_param_table(denom).rows
        assert (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()
                [:16]) == self.SHIPPED[denom]

    def test_a_rate_with_no_table_raises(self):
        """No shapes are served at a rate no search certified: the error
        names the shipped rates and the live search."""
        with pytest.raises(ParameterError) as info:
            default_param_table(100000)
        message = str(info.value)
        assert "1/100000" in message and "--search" in message
        assert all(f"1/{denom}" in message for denom in SUPPORTED_DENOMS)

    def test_cells_always_divisible_by_k(self):
        table = default_param_table(DEFAULT_DENOM)
        for j, k, cells in table.rows:
            assert cells % k == 0, f"row j={j}"

    def test_cells_monotone_in_j(self):
        table = default_param_table(DEFAULT_DENOM)
        cells = [row[2] for row in sorted(table.rows)]
        assert all(b >= a for a, b in zip(cells, cells[1:]))

    def test_stricter_rate_needs_more_cells(self):
        loose = default_param_table(24)
        strict = default_param_table(2400)
        for j in (10, 50, 100):
            assert strict.params_for(j).cells >= loose.params_for(j).cells

    def test_tau_reasonable_for_large_j(self):
        # Peeling thresholds put tau in [1.15, 1.6] for large j.
        table = default_param_table(DEFAULT_DENOM)
        assert 1.1 <= table.tau_for(1000) <= 1.8

    def test_shipped_params_really_decode(self, rng):
        # End-to-end: a real IBLT at the table's shape decodes j items.
        table = default_param_table(DEFAULT_DENOM)
        params = table.params_for(50)
        failures = 0
        for _ in range(60):
            keys = [rng.getrandbits(64) for _ in range(50)]
            iblt = IBLT(params.cells, k=params.k, seed=rng.getrandbits(30))
            iblt.update(keys)
            if not iblt.decode().complete:
                failures += 1
        # Target failure rate 1/240; 60 trials should essentially never
        # see more than a couple of failures.
        assert failures <= 2
