"""Ablation: Eq. 3's continuous optimum vs the exact discrete search.

Paper 3.3.1: the closed form ``a = n / (8 r tau ln^2 2)`` is accurate
only for a >= 100; below that, ceiling effects make T(a') up to 20%
worse than the true minimum, so implementations "should take an extra
step" and search the discrete space.  We quantify that gap.
"""

from __future__ import annotations

import math

from repro.core.bounds import a_star
from repro.core.params import GrapheneConfig, closed_form_a, optimize_a
from repro.pds.bloom import bloom_size_bytes
from repro.pds.param_table import default_param_table

SCENARIOS = (
    (200, 400), (200, 1200),        # small blocks: a < 100 regime
    (2000, 4000), (10000, 20000),   # larger blocks: closed form fine
)


def _total_for_a(n: int, m: int, a: int, config: GrapheneConfig) -> int:
    table = default_param_table()
    recover = math.ceil(a_star(a, config.beta))
    params = table.params_for(recover)
    fpr = min(1.0, a / (m - n))
    bloom = 0 if fpr >= 1.0 else bloom_size_bytes(n, fpr) + 9
    return bloom + config.iblt_bytes(params)


def _sweep():
    config = GrapheneConfig()
    rows = []
    for n, m in SCENARIOS:
        discrete = optimize_a(n, m, config)
        hint = min(m - n, closed_form_a(n, default_param_table().tau_for(
            max(1, discrete.recover)), config.cell_bytes))
        continuous_total = _total_for_a(n, m, hint, config)
        rows.append({
            "n": n, "m": m,
            "discrete_a": discrete.a,
            "closed_form_a": hint,
            "discrete_total": discrete.total_bytes,
            "closed_form_total": continuous_total,
            "penalty": continuous_total / discrete.total_bytes - 1.0,
        })
    return rows


def test_ablation_discrete_search(benchmark, record_rows):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    record_rows("ablation_discrete_search", rows)

    for row in rows:
        # The discrete search never loses to the closed form.
        assert row["discrete_total"] <= row["closed_form_total"], row
        # And the penalty stays within the ~20% band the paper reports
        # (generous factor for discretization specifics).
        assert row["penalty"] <= 0.35, row
