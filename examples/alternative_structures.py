"""Swapping Graphene's reconciliation structure (paper 2.1).

The paper notes that IBLT alternatives trade CPU for size.  This example
measures that swap on one concrete reconciliation task: the IBLT against
CPISync (characteristic polynomials).

Run:  python examples/alternative_structures.py
"""

from __future__ import annotations

import random
import time

from repro.pds.cpisync import cpisync_size_bytes, make_digest, reconcile
from repro.pds.iblt import IBLT
from repro.pds.param_table import default_param_table

DIFF = 40


def reconciler_comparison() -> None:
    rng = random.Random(1)
    shared = [rng.getrandbits(64) for _ in range(500)]
    mine = [rng.getrandbits(64) for _ in range(DIFF // 2)]
    theirs = [rng.getrandbits(64) for _ in range(DIFF - DIFF // 2)]

    print(f"reconciling a {DIFF}-item symmetric difference:")
    params = default_param_table(240).params_for(DIFF)
    start = time.perf_counter()
    a = IBLT(params.cells, k=params.k, seed=2)
    b = IBLT(params.cells, k=params.k, seed=2)
    a.update(shared + mine)
    b.update(shared + theirs)
    result = (a - b).decode()
    iblt_time = time.perf_counter() - start
    assert result.complete
    print(f"  {'IBLT':<18} {12 + params.cells * 12:>7,} B   "
          f"{iblt_time * 1000:7.1f} ms   (1/240-certified shape)")

    start = time.perf_counter()
    digest = make_digest(shared + mine, mbar=DIFF)
    remote, local = reconcile(digest, shared + theirs)
    cpi_time = time.perf_counter() - start
    assert remote == frozenset(mine) and local == frozenset(theirs)
    print(f"  {'CPISync':<18} {cpisync_size_bytes(DIFF):>7,} B   "
          f"{cpi_time * 1000:7.1f} ms   (near-optimal bytes, more CPU)")

    print("\nThe paper's balance: IBLTs pay a constant-factor byte "
          "premium for decode speed\nthat holds up at blockchain scale "
          "(section 2.1).")


def main() -> None:
    reconciler_comparison()


if __name__ == "__main__":
    main()
