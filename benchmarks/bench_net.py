"""Network-scale propagation benchmark (the BENCH_NET trajectory).

Where :mod:`bench_relay_throughput` times one block over 20 nodes, this
suite times the scaled regime the simulator core is built for:
sustained multi-block propagation across 100- and 1000-node scale-free
topologies, reported as simulator events per second and wall-clock
seconds per simulated block.

Cases:

* ``net_100``  -- 100 nodes, 20 blocks at 1 s intervals (the smoke
  test's multi-block regime, sized for repetition).
* ``net_1000`` -- 1000 nodes, 200 blocks at 2 s intervals: the
  acceptance-scale run (one repetition; at ~10^5 relay exchanges the
  steady state dominates any warm-up).

Every case asserts full block coverage before reporting -- a broken
run must never freeze a baseline.  ``python benchmarks/bench_net.py``
additionally writes ``benchmarks/results/net_propagation.json`` with
the propagation-delay percentiles and fork rates the EXPERIMENTS.md
generator renders.
"""

from __future__ import annotations

import time

from repro.obs.scenario import run_propagation_scenario

#: Repetitions for the repeatable (small) case; best rate is kept.
SMALL_REPS = 3


def bench_propagation(nodes: int, blocks: int, *, degree: int = 8,
                      block_txns: int = 24, interval: float = 2.0,
                      seed: int = 2026, reps: int = 1,
                      warmup: bool = False) -> dict:
    """Time ``blocks`` blocks across ``nodes`` nodes; best-of-``reps``."""
    def run():
        t0 = time.perf_counter()
        result = run_propagation_scenario(
            nodes=nodes, degree=degree, blocks=blocks,
            block_txns=block_txns, interval=interval, seed=seed)
        # BENCH_NET.json's rates time the run's metrics fold (delay
        # sort included) with the simulation.
        result.registry
        secs = time.perf_counter() - t0
        assert result.coverage == 1.0, (
            f"net_{nodes}: only {result.coverage:.2%} of deliveries "
            "landed; refusing to report a broken run")
        return secs, result

    if warmup:
        run()
    best_secs = float("inf")
    best = None
    for _ in range(reps):
        secs, result = run()
        if secs < best_secs:
            best_secs, best = secs, result
    events = best.simulator.events_processed
    return {
        "case": f"net_{nodes}",
        "unit": "events_per_s",
        "ops": events,
        "secs": best_secs,
        "s_per_block": round(best_secs / blocks, 4),
        "params": {"nodes": nodes, "degree": degree, "blocks": blocks,
                   "block_txns": block_txns, "interval": interval,
                   "seed": seed},
        "propagation": {
            "p50": round(best.delay_quantile(0.5), 4),
            "p90": round(best.delay_quantile(0.9), 4),
            "p99": round(best.delay_quantile(0.99), 4),
            "fork_rate": round(best.fork_rate, 4),
            "coverage": best.coverage,
            "wire_bytes": best.total_bytes,
            "simulated_seconds": best.simulator.now,
        },
    }


def run_suite() -> list[dict]:
    """Run every case; rows carry ``{case, unit, ops, secs, ops_per_s}``."""
    rows = [
        bench_propagation(100, 20, interval=1.0, block_txns=16,
                          reps=SMALL_REPS, warmup=True),
        bench_propagation(1000, 200, interval=2.0, block_txns=24, reps=1),
    ]
    for row in rows:
        row["secs"] = round(row["secs"], 6)
        row["ops_per_s"] = round(row["ops"] / row["secs"], 2) \
            if row["secs"] else float("inf")
    return rows


def write_results(rows, path=None) -> str:
    """Write the EXPERIMENTS.md source rows for the propagation runs."""
    import json
    from pathlib import Path
    if path is None:
        path = Path(__file__).resolve().parent / "results" / \
            "net_propagation.json"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows, indent=1) + "\n")
    return str(path)


if __name__ == "__main__":
    import json
    suite = run_suite()
    print(json.dumps(suite, indent=1))
    print("wrote", write_results(suite))
