#!/usr/bin/env python
"""Guard the hot paths against performance regressions.

Three suites, selected with ``--suite``:

* ``pds`` (default) -- re-runs :mod:`perf_pds` and compares each case's
  live (``columnar_s``) time against the committed ``BENCH_PDS.json``.
* ``relay`` -- re-runs :mod:`bench_relay_throughput` (whole-pipeline
  relay throughput) and compares each case's rate against the committed
  ``BENCH_RELAY.json``.
* ``net`` -- re-runs :mod:`bench_net` (100- and 1000-node multi-block
  propagation) and compares events/sec against the committed
  ``BENCH_NET.json``.
* ``p3`` -- re-runs :mod:`bench_p3` (Protocol 3 vs P1/P2, oracle-sized
  P1 and CPISync over the Fig. 14/18 grids) and compares the byte
  accounting against the committed ``BENCH_P3.json``.  Unlike the
  other suites this one measures bytes under fixed seeds, not wall
  clock, so it is machine-independent: any drift beyond
  ``P3_BYTES_DRIFT`` is a hard failure everywhere, and the 2.5x
  bytes-vs-oracle acceptance bound is re-enforced on every run.

Either comparison exits nonzero when a case regresses by more than
``--threshold`` (default 1.5x).  The comparison is to wall clock on the
current machine, so a slower machine than the one that wrote the
baseline can trip it; when the recorded ``machine`` stanza differs from
the current host the regression is demoted to a loud warning (exit 0)
instead of a hard failure, and the recorded stanza is printed so the
reader knows what to re-baseline against.  Pass ``--update`` after
verifying to rewrite the baseline with fresh numbers.  Updates are refused when the suite's
acceptance floors regress: the PDS speedups must stay above 3x / 2x,
and the relay loopback case must stay at least 5x over the pre-
optimization rates recorded in the baseline's ``pre`` stanza.

Usage::

    python scripts/check_perf.py                       # PDS compare
    python scripts/check_perf.py --suite relay         # relay compare
    python scripts/check_perf.py --suite relay --update
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

PDS_BASELINE_PATH = REPO / "BENCH_PDS.json"
RELAY_BASELINE_PATH = REPO / "BENCH_RELAY.json"
NET_BASELINE_PATH = REPO / "BENCH_NET.json"
P3_BASELINE_PATH = REPO / "BENCH_P3.json"

#: The p3 suite is deterministic byte accounting (fixed seeds, no wall
#: clock), so the compare tolerance is tight: a case fails when its
#: total grows past baseline * (1 + drift).  Shrinking totals pass.
P3_BYTES_DRIFT = 0.02

#: Whole-pipeline relay rates measured at this repo's state *before*
#: the hot-path round 2 optimization pass, on the same machine class
#: the committed baseline was written on.  ``--suite relay --update``
#: refuses to write a baseline whose loopback_relay rate is below
#: RELAY_FLOORS x these numbers, so the recorded speedup cannot be
#: silently eroded by later changes.
RELAY_PRE = {
    "loopback_relay": 468.75,
    "loopback_relay_2000": 59.99,
    "mempool_sync": 91.37,
    "simulator_relay": 257.53,
}

#: Minimum acceptable post/pre rate ratio per relay case at update time.
RELAY_FLOORS = {"loopback_relay": 5.0}


def machine_stanza() -> dict:
    """Describe the machine a baseline was written on (best effort)."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is baked into the image
        numpy_version = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpus": os.cpu_count(),
    }


def verdict(failures: list, baseline: dict, threshold: float) -> int:
    """Exit code for a finished compare: 0 clean, 1 regressed.

    A regression measured on the machine that wrote the baseline is a
    hard failure.  On any other host the wall-clock compare is not
    apples to apples, so the failure is demoted to a warning and the
    recorded stanza is printed for whoever re-baselines.
    """
    if not failures:
        print("\nall cases within threshold")
        return 0
    print(f"\n{len(failures)} case(s) slower than {threshold}x "
          "the committed baseline", file=sys.stderr)
    recorded = baseline.get("machine")
    current = machine_stanza()
    if recorded is not None and recorded != current:
        print("WARNING: this host differs from the machine the baseline "
              "was recorded on; treating the slowdown as a warning, not "
              "a failure.  Recorded machine stanza:", file=sys.stderr)
        print(json.dumps(recorded, indent=1), file=sys.stderr)
        for key in sorted(set(recorded) | set(current)):
            if recorded.get(key) != current.get(key):
                print(f"  {key}: recorded={recorded.get(key)!r} "
                      f"current={current.get(key)!r}", file=sys.stderr)
        print("re-run on the baseline machine, or refresh with --update "
              "after verifying", file=sys.stderr)
        return 0
    return 1


def run_pds(args: argparse.Namespace) -> int:
    from perf_pds import run_suite

    if not PDS_BASELINE_PATH.exists() and not args.update:
        print(f"no baseline at {PDS_BASELINE_PATH}; run with --update first",
              file=sys.stderr)
        return 2

    rows = run_suite()
    speedups = {(r["case"], r["n"]): r["speedup"] for r in rows}

    if args.update:
        floors = {("iblt_build_decode", 2000): 3.0,
                  ("protocol1_session", 2000): 2.0}
        for key, floor in floors.items():
            if speedups[key] < floor:
                print(f"refusing update: {key[0]} n={key[1]} speedup "
                      f"{speedups[key]:.2f}x below the {floor:.0f}x floor",
                      file=sys.stderr)
                return 1
        PDS_BASELINE_PATH.write_text(json.dumps(
            {"units": "seconds",
             "machine": machine_stanza(),
             "note": ("seed_s times the scalar repro.pds.reference "
                      "implementations (riblt_*: the structure's own "
                      "scalar walk), columnar_s the live structures, "
                      "in one process on one machine"),
             "cases": rows}, indent=1) + "\n")
        print(f"baseline rewritten: {PDS_BASELINE_PATH}")
        return 0

    doc = json.loads(PDS_BASELINE_PATH.read_text())
    baseline = {(r["case"], r["n"]): r for r in doc["cases"]}
    failures = []
    for row in rows:
        key = (row["case"], row["n"])
        committed = baseline.get(key)
        if committed is None:
            continue
        ratio = (row["columnar_s"] / committed["columnar_s"]
                 if committed["columnar_s"] else 1.0)
        limit = committed["columnar_s"] * args.threshold + args.slack
        slow = row["columnar_s"] > limit
        flag = "REGRESSION" if slow else "ok"
        print(f"{row['case']:20s} n={row['n']:6d}  "
              f"baseline={committed['columnar_s']:.4f}s  "
              f"now={row['columnar_s']:.4f}s  x{ratio:.2f}  {flag}")
        if slow:
            failures.append((key, ratio))

    return verdict(failures, doc, args.threshold)


def run_relay(args: argparse.Namespace) -> int:
    from bench_relay_throughput import run_suite

    if not RELAY_BASELINE_PATH.exists() and not args.update:
        print(f"no baseline at {RELAY_BASELINE_PATH}; run with --update "
              "first", file=sys.stderr)
        return 2

    rows = run_suite()
    rates = {r["case"]: r["ops_per_s"] for r in rows}

    if args.update:
        for case, floor in RELAY_FLOORS.items():
            pre = RELAY_PRE[case]
            if rates[case] < floor * pre:
                print(f"refusing update: {case} at {rates[case]:.2f} "
                      f"{rows[0]['unit']} is below {floor:.0f}x the "
                      f"pre-optimization rate {pre:.2f}",
                      file=sys.stderr)
                return 1
        RELAY_BASELINE_PATH.write_text(json.dumps(
            {"units": "ops_per_s",
             "machine": machine_stanza(),
             "note": ("best-of-REPS whole-pipeline relay rates (engines + "
                      "codec + telemetry + transport) on one machine; "
                      "'pre' holds the same cases measured immediately "
                      "before the hot-path round 2 optimizations"),
             "pre": RELAY_PRE,
             "cases": rows}, indent=1) + "\n")
        print(f"baseline rewritten: {RELAY_BASELINE_PATH}")
        return 0

    baseline = json.loads(RELAY_BASELINE_PATH.read_text())
    committed_rows = {r["case"]: r for r in baseline["cases"]}
    failures = []
    for row in rows:
        committed = committed_rows.get(row["case"])
        if committed is None:
            continue
        ratio = (committed["ops_per_s"] / row["ops_per_s"]
                 if row["ops_per_s"] else float("inf"))
        slow = ratio > args.threshold
        flag = "REGRESSION" if slow else "ok"
        print(f"{row['case']:22s} baseline={committed['ops_per_s']:9.2f} "
              f"now={row['ops_per_s']:9.2f} {row['unit']:12s} "
              f"slowdown x{ratio:.2f}  {flag}")
        if slow:
            failures.append((row["case"], ratio))

    return verdict(failures, baseline, args.threshold)


def run_net(args: argparse.Namespace) -> int:
    from bench_net import run_suite, write_results

    if not NET_BASELINE_PATH.exists() and not args.update:
        print(f"no baseline at {NET_BASELINE_PATH}; run with --update "
              "first", file=sys.stderr)
        return 2

    rows = run_suite()

    if args.update:
        for row in rows:
            if row["propagation"]["coverage"] != 1.0:
                print(f"refusing update: {row['case']} coverage "
                      f"{row['propagation']['coverage']:.2%} != 100%",
                      file=sys.stderr)
                return 1
        NET_BASELINE_PATH.write_text(json.dumps(
            {"units": "events_per_s",
             "machine": machine_stanza(),
             "note": ("multi-block propagation over scale-free "
                      "topologies through the full node stack; "
                      "s_per_block is wall clock per simulated block; "
                      "net_1000 is the acceptance-scale single-rep run"),
             "cases": rows}, indent=1) + "\n")
        write_results(rows)
        print(f"baseline rewritten: {NET_BASELINE_PATH}")
        return 0

    baseline = json.loads(NET_BASELINE_PATH.read_text())
    committed_rows = {r["case"]: r for r in baseline["cases"]}
    failures = []
    for row in rows:
        committed = committed_rows.get(row["case"])
        if committed is None:
            continue
        ratio = (committed["ops_per_s"] / row["ops_per_s"]
                 if row["ops_per_s"] else float("inf"))
        slow = ratio > args.threshold
        flag = "REGRESSION" if slow else "ok"
        print(f"{row['case']:10s} baseline={committed['ops_per_s']:10.2f} "
              f"now={row['ops_per_s']:10.2f} {row['unit']:12s} "
              f"({row['s_per_block']:.3f}s/block)  "
              f"slowdown x{ratio:.2f}  {flag}")
        if slow:
            failures.append((row["case"], ratio))

    return verdict(failures, baseline, args.threshold)


def run_p3(args: argparse.Namespace) -> int:
    from bench_p3 import RATIO_BOUND, check_bounds, run_suite, write_results

    if not P3_BASELINE_PATH.exists() and not args.update:
        print(f"no baseline at {P3_BASELINE_PATH}; run with --update "
              "first", file=sys.stderr)
        return 2

    rows = run_suite()
    problems = check_bounds(rows)
    for problem in problems:
        print(f"BOUND VIOLATION: {problem}", file=sys.stderr)
    committed_rows = {}
    if P3_BASELINE_PATH.exists():
        committed_rows = {r["case"]: r for r in json.loads(
            P3_BASELINE_PATH.read_text())["cases"]}

    if args.update:
        if problems:
            print("refusing update: an acceptance bound regressed",
                  file=sys.stderr)
            return 1
        P3_BASELINE_PATH.write_text(json.dumps(
            {"units": "bytes",
             "machine": machine_stanza(),
             "ratio_bound": RATIO_BOUND,
             "note": ("deterministic byte accounting of Protocol 3 vs "
                      "P1/P2, an oracle-sized P1 and CPISync over the "
                      "Fig. 14/18 grids under fixed seeds; machine-"
                      "independent, so drift is a hard failure on any "
                      "host"),
             "cases": rows}, indent=1) + "\n")
        write_results(rows)
        print(f"baseline rewritten: {P3_BASELINE_PATH}")
        # Bytes are deterministic: say which rows the rewrite moved.
        for row in rows:
            was = committed_rows.get(row["case"])
            print(f"{row['case']:20s} "
                  + ("unchanged" if was == row else "new" if was is None
                     else f"p3_bytes {was['p3_bytes']} -> "
                          f"{row['p3_bytes']}"))
        return 0

    failures = []
    for row in rows:
        committed = committed_rows.get(row["case"])
        if committed is None:
            continue
        ratio = (row["p3_bytes"] / committed["p3_bytes"]
                 if committed["p3_bytes"] else float("inf"))
        grew = row["p3_bytes"] > committed["p3_bytes"] * (1 + P3_BYTES_DRIFT)
        flag = "REGRESSION" if grew else "ok"
        print(f"{row['case']:18s} baseline={committed['p3_bytes']:10.1f} "
              f"now={row['p3_bytes']:10.1f} bytes  x{ratio:.4f}  {flag}")
        if grew:
            failures.append((row["case"], ratio))

    if problems:
        return 1
    if failures:
        print(f"\n{len(failures)} case(s) grew more than "
              f"{P3_BYTES_DRIFT:.0%} over the committed byte baseline; "
              "the accounting is deterministic, so this is a real "
              "protocol change -- verify it and re-run with --update",
              file=sys.stderr)
        return 1
    print("\nall cases within drift tolerance; oracle bound holds")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=("pds", "relay", "net", "p3"),
                        default="pds",
                        help="which baseline to check (default: pds)")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="fail when a case regresses by this factor "
                             "(default: 1.5)")
    parser.add_argument("--slack", type=float, default=0.0005,
                        help="absolute seconds of grace on top of the "
                             "threshold for the pds suite, so sub-"
                             "millisecond cases cannot trip on timer "
                             "noise (default: 0.0005)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the suite's baseline with fresh "
                             "numbers")
    args = parser.parse_args()
    if args.suite == "relay":
        return run_relay(args)
    if args.suite == "net":
        return run_net(args)
    if args.suite == "p3":
        return run_p3(args)
    return run_pds(args)


if __name__ == "__main__":
    sys.exit(main())
