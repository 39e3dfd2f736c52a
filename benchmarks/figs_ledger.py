"""The paper's figures as a byte ledger: every figure driver at fixed
small arguments and seeds, plus the seeded baseline outcomes and the
collision-attack tallies.

Each case is one driver call (or one sweep) and its rows, exactly as the
code returns them.  Nothing here reads a clock, so the rows are the same
on every host: ``scripts/check_perf.py --suite figs`` compares a live run
to the committed ``BENCH_FIGS.json`` and fails on any difference, and
``--update`` rewrites it in the change that moves a figure on purpose.
The arguments are chosen to keep the whole ledger under half a minute;
they are a fingerprint of the drivers, not the published curves (those
are ``make bench``).
"""

from __future__ import annotations

import json
from dataclasses import asdict

from repro.analysis import experiments as exp
from repro.baselines.compact_blocks import CompactBlocksRelay
from repro.baselines.xthin import XThinRelay
from repro.chain.scenarios import (
    make_block_scenario,
    mempool_multiple_to_extra,
)
from repro.security.collision_attack import run_collision_attack

#: Driver name -> the keyword arguments the ledger calls it with.
FIGURE_ARGS = {
    "fig07_rows": dict(j_values=(10, 50, 200), denoms=(24, 240), trials=500),
    "fig10_rows": dict(),
    "fig11_rows": dict(j_values=(10, 50), sibling_fractions=(0.5, 1.0),
                       trials=100),
    "fig12_rows": dict(block_sizes=(200, 1000, 2000), trials=2),
    "fig13_rows": dict(block_sizes=(100, 400, 1000), mempool_size=6000,
                       trials=1),
    "fig14_rows": dict(block_sizes=(200, 2000), multiples=(0.5, 1.0, 4.0),
                       trials=2),
    "fig15_rows": dict(block_sizes=(200,), multiples=(1.0, 2.0), trials=60),
    "fig16_rows": dict(block_sizes=(200,), fractions=(0.5, 0.9), trials=30),
    "fig17_rows": dict(block_sizes=(200, 2000), fractions=(0.0, 0.5, 0.8),
                       trials=2),
    "fig18_rows": dict(block_sizes=(200, 2000), fractions=(0.4, 0.8, 1.0),
                       trials=2),
    "fig19_rows": dict(block_sizes=(200, 2000), fractions=(0.3, 0.9),
                       trials=500),
    "fig20_rows": dict(block_sizes=(200, 2000), fractions=(0.3, 0.9),
                       trials=500),
    "sec51_rows": dict(),
    "sec532_rows": dict(block_sizes=(200, 2000), fractions=(0.9, 0.95),
                        trials=2),
    "forkrate_rows": dict(),
    "throughput_rows": dict(),
}

#: The baseline sweep: 4 block sizes x 4 held fractions x 5 seeds, each
#: relayed by Compact Blocks (plain and SipHash-keyed) and XThin -- 240
#: outcomes.
BASELINE_NS = (50, 256, 1000, 2000)
BASELINE_FRACTIONS = (1.0, 0.9, 0.6, 0.0)
BASELINE_SEEDS = tuple(range(5))
SIPHASH_KEY = bytes(range(16))

COLLISION_SEEDS = range(50)


def _plain(rows) -> list:
    """Rows as JSON reads them back, so a live run and the committed
    ledger compare like with like (tuples become lists)."""
    return json.loads(json.dumps(rows))


def figure_case(name: str) -> dict:
    rows = getattr(exp, name)(**FIGURE_ARGS[name])
    return {"case": name, "args": _plain(FIGURE_ARGS[name]),
            "rows": _plain(rows)}


def baselines_case() -> dict:
    relays = (("compact_blocks", CompactBlocksRelay()),
              ("compact_blocks_siphash",
               CompactBlocksRelay(use_siphash=True, siphash_key=SIPHASH_KEY)),
              ("xthin", XThinRelay()))
    rows = []
    for n in BASELINE_NS:
        for fraction in BASELINE_FRACTIONS:
            for seed in BASELINE_SEEDS:
                scenario = make_block_scenario(
                    n, mempool_multiple_to_extra(n, 1.0), fraction,
                    seed=1000 * seed + n)
                for name, relay in relays:
                    outcome = relay.relay(scenario.block,
                                          scenario.receiver_mempool)
                    rows.append({"relay": name, "n": n,
                                 "fraction": fraction, "seed": seed,
                                 **asdict(outcome)})
    return {"case": "baseline_outcomes", "rows": _plain(rows)}


def collision_case() -> dict:
    results = [run_collision_attack(seed=seed) for seed in COLLISION_SEEDS]
    tallies = {key: sum(getattr(r, key) for r in results)
               for key in ("xthin_failed", "compact_blocks_failed",
                           "compact_blocks_siphash_failed",
                           "graphene_failed", "t2_passed_s", "t1_passed_r")}
    return {"case": "collision_attack", "seeds": len(results),
            "tallies": tallies,
            "rows": _plain([{"fs": r.fs, "fr": r.fr} for r in results])}


def run_suite() -> list:
    """Every case of the ledger, in a fixed order."""
    return ([figure_case(name) for name in FIGURE_ARGS]
            + [baselines_case(), collision_case()])

