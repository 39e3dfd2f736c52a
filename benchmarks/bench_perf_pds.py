"""PDS hot-path before/after microbenchmarks (BENCH_PDS trajectory).

Runs the :mod:`perf_pds` suite -- columnar/batch structures vs the
scalar reference implementations in :mod:`repro.pds.reference` -- and records
the rows twice: ``benchmarks/results/perf_pds.json`` like every other
bench, and a top-level ``BENCH_PDS.json`` that ``scripts/check_perf.py``
uses as the committed regression baseline.

Acceptance floor asserted here: >= 3x on IBLT build+decode and >= 2x on
the end-to-end Protocol 1 session, both at n = 2000.
"""

from __future__ import annotations

import json
from pathlib import Path

from perf_pds import run_suite

BENCH_PDS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PDS.json"


def test_perf_pds_suite(benchmark, record_rows):
    rows = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    record_rows("perf_pds", rows)
    BENCH_PDS_PATH.write_text(json.dumps(
        {"units": "seconds",
         "note": ("seed_s times the scalar repro.pds.reference "
                  "implementations (riblt_*: the structure's own "
                  "scalar walk), columnar_s the live structures, "
                  "in one process on one machine"),
         "cases": rows}, indent=1) + "\n")

    by_case = {(r["case"], r["n"]): r["speedup"] for r in rows}
    assert by_case[("iblt_build_decode", 2000)] >= 3.0
    assert by_case[("protocol1_session", 2000)] >= 2.0
