"""The relay benchmark: six workloads, end-to-end and per-layer metrics.

Two ways in, one measurement underneath.

**Suite** -- what a person runs::

    python benchmarks/e2e/run.py [--seed S] [--repeat K] [--only W] [--quick]

runs the workloads one after another, ``K`` run sets over the same seed
(order alternating between sets), each pass in a child interpreter of
its own; the first set also runs the traced pass.  Every metric is
printed by name with its unit, and the whole result is written to
``benchmarks/e2e/results/``.  ``compare.py`` reads two such files.

**One workload, one JSON line** -- what a driver runs::

    python benchmarks/e2e/run.py --workload W --seed N --seconds R --trace 0|1

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` splits the run's budget between an untraced and a traced
pass over the same inputs and prints the per-layer metrics.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.

Either way the exit code is non-zero when any relay fails its oracle or
a workload stops exercising the path it was chosen for.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from compare import quartiles  # noqa: E402
from workloads import NOMINAL_SECONDS, WORKLOADS  # noqa: E402

#: A child pass may not outlive this (the contract allows a run 180 s).
CHILD_TIMEOUT_S = 170

LINK_NOTE = "loopback interface, not a real link"


def load_specs() -> tuple:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = json.loads((HERE / "metrics.json").read_text())
    return benchmark, metrics


def child_env() -> dict:
    """Children import the program from this checkout's ``src``.

    The hash seed is pinned so that dict and set layouts -- and with
    them both the timings and any set-iteration order -- repeat from
    run to run.
    """
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(script: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)


def run_worker(name: str, seed: int, ops: int, inputs, trace_out=None) -> dict:
    args = ["--workload", name, "--seed", seed, "--ops", ops]
    if inputs is not None:
        args += ["--inputs", inputs]
    if trace_out is not None:
        args += ["--trace-out", trace_out]
    done = run_child("worker.py", *args)
    lines = done.stdout.strip().splitlines()
    if not lines or done.returncode not in (0, 1):
        raise RuntimeError(f"worker for {name} died "
                           f"(exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def measure(name: str, seed: int, seconds: float, traced: bool,
            quick: bool = False, halve: bool = False) -> dict:
    """One run of one workload: generate inputs, then the pass(es).

    Returns ``{"untraced": worker output, "traced": worker output or
    None, "setup_s": the generator's elapsed time + the untraced
    worker's own set-up}``.  The traced pass always runs half the
    operations; ``halve`` halves the untraced pass too (the driver's
    traced run has one run's budget for both).
    """
    workload = WORKLOADS[name]
    ops = workload.scaled_ops(seconds, quick=quick, halve=halve)
    traced_ops = workload.scaled_ops(seconds, quick=quick, halve=True)
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="inputs-", dir=RESULTS))
    try:
        inputs, generate_s = None, 0.0
        count = workload.input_records(ops)
        if count:
            inputs = scratch / "records.pkl"
            done = run_child("inputs.py", "--workload", name, "--seed", seed,
                             "--count", count, "--out", inputs)
            if done.returncode:
                raise RuntimeError(f"input generation for {name} failed:\n"
                                   f"{done.stderr}")
            generate_s = json.loads(done.stdout.splitlines()[-1])["setup_s"]
        untraced = run_worker(name, seed, ops, inputs)
        traced_out = None
        if traced:
            traced_out = run_worker(name, seed, traced_ops, inputs,
                                    trace_out=RESULTS / f"trace-{name}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"untraced": untraced, "traced": traced_out,
            "setup_s": generate_s + untraced["setup_s"]}


def end_to_end_metrics(run: dict) -> dict:
    metrics = dict(run["untraced"]["end_to_end"])
    metrics["setup_s"] = run["setup_s"]
    return metrics


def per_layer_metrics(run: dict, names) -> dict:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    layers = dict(run["traced"]["layers"])
    untraced = run["untraced"]["end_to_end"]
    traced_p50 = run["traced"]["end_to_end"].get("relay_p50_ms")
    if untraced and traced_p50:
        layers["trace.overhead_share"] = \
            traced_p50 / untraced["relay_p50_ms"] - 1
        layers["relay_p90_ms"] = untraced["relay_p90_ms"]
    return {name: float(layers.get(name, 0.0)) for name in names}


def run_errors(run: dict) -> list:
    errors = list(run["untraced"]["errors"])
    if run["traced"] is not None:
        errors += [f"traced pass: {error}"
                   for error in run["traced"]["errors"]]
    return errors


# -- driver mode ------------------------------------------------------------

def driver_main(args, benchmark) -> int:
    traced = bool(args.trace)
    run = measure(args.workload, args.seed, args.seconds, traced=traced,
                  halve=traced)
    if traced:
        specs = benchmark["per_layer"]
        values = per_layer_metrics(run, [spec["name"] for spec in specs])
    else:
        specs = benchmark["end_to_end"]
        values = end_to_end_metrics(run)
    errors = run_errors(run)
    for error in errors:
        print(f"{args.workload}: {error}", file=sys.stderr)
    passes = [run["untraced"]] + ([run["traced"]] if traced else [])
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {spec["name"]: {"value": values[spec["name"]],
                                   "unit": spec["unit"]}
                    for spec in specs}}))
    return 1 if errors else 0


# -- suite mode -------------------------------------------------------------

def environment(seed: int) -> dict:
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "link": LINK_NOTE}


def print_tables(result: dict, benchmark: dict) -> None:
    units = {spec["name"]: spec["unit"]
             for spec in benchmark["end_to_end"] + benchmark["per_layer"]}
    for name, entry in result["workloads"].items():
        sets = entry["end_to_end"]
        print(f"\n== {name}: {entry['samples']} samples/run, "
              f"{entry['failed']} of {entry['attempted']} relays failed, "
              f"{len(sets)} run set(s)")
        if WORKLOADS[name].kind == "socket":
            print(f"   traffic crosses the {LINK_NOTE}")
        print(f"   {'end-to-end metric':<28}{'unit':<8}"
              f"{'median':>14}{'q1':>14}{'q3':>14}")
        for metric in sets[0]:
            q1, q2, q3 = quartiles([one[metric] for one in sets])
            print(f"   {metric:<28}{units.get(metric, ''):<8}"
                  f"{q2:>14.4f}{q1:>14.4f}{q3:>14.4f}")
        print("   as measured, before speed normalisation (see tally.py):")
        for metric in entry["raw"][0]:
            q1, q2, q3 = quartiles([one[metric] for one in entry["raw"]])
            print(f"   {metric:<36}{q2:>14.4f}{q1:>14.4f}{q3:>14.4f}")
        if entry["per_layer"]:
            print(f"   {'per-layer metric (traced pass)':<36}{'unit':<8}"
                  f"{'value':>14}")
            for metric, value in entry["per_layer"].items():
                if value:
                    print(f"   {metric:<36}{units.get(metric, ''):<8}"
                          f"{value:>14.4f}")
            idle = [metric for metric, value in entry["per_layer"].items()
                    if not value]
            print("   read 0 here (layer not entered, or nothing to count): "
                  + ", ".join(idle))
    fresh = result["workloads"].get("fresh_p1_2000")
    socket = result["workloads"].get("socket_pair_2000")
    if fresh and socket and socket["per_layer"]:
        base = quartiles([one["relay_p50_ms"]
                          for one in fresh["end_to_end"]])[1]
        print(f"\npeer.socket_overhead_ms "
              f"{socket['per_layer']['peer.socket_overhead_ms']:.4f} ms per "
              f"relay, against fresh_p1_2000 relay_p50_ms {base:.4f} ms as "
              "its base (same engine work, no sockets)")


def suite_main(args, benchmark, metrics) -> int:
    seed = args.seed if args.seed is not None else metrics["seeds"]["default"]
    names = [args.only] if args.only else list(WORKLOADS)
    repeat = 1 if args.quick else args.repeat
    layer_names = [spec["name"] for spec in benchmark["per_layer"]]
    env = environment(seed)
    print("relay benchmark: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    result = {"environment": env, "quick": args.quick,
              "seconds": args.seconds, "workloads": {}}
    failures = []
    for set_no in range(repeat):
        order = names if set_no % 2 == 0 else names[::-1]
        for name in order:
            started = time.perf_counter()
            run = measure(name, seed, args.seconds, traced=set_no == 0,
                          quick=args.quick)
            entry = result["workloads"].setdefault(name, {
                "end_to_end": [], "raw": [], "per_layer": {}, "attempted": 0,
                "failed": 0, "samples": run["untraced"]["samples"]})
            entry["end_to_end"].append(end_to_end_metrics(run))
            entry["raw"].append(run["untraced"]["raw"])
            entry["attempted"] += run["untraced"]["attempted"]
            entry["failed"] += run["untraced"]["failed"]
            if run["traced"] is not None:
                entry["per_layer"] = per_layer_metrics(run, layer_names)
            failures += [f"{name}: {error}" for error in run_errors(run)]
            print(f"  set {set_no + 1}/{repeat} {name}: "
                  f"{time.perf_counter() - started:.1f} s", flush=True)
    # Workload order alternates between sets; report in table order.
    result["workloads"] = {name: result["workloads"][name] for name in names}
    print_tables(result, benchmark)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out = RESULTS / f"run-seed{seed}-{stamp}.json"
    out.write_text(json.dumps(result, indent=1))
    print(f"\nwrote {out.relative_to(ROOT)}; traces in "
          f"{RESULTS.relative_to(ROOT)}/trace-<workload>.jsonl")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=None,
                        help="the only workload input (default: the "
                        "default seed in metrics.json)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal timed seconds per workload; scales "
                        "every operation count by seconds/%d (default: "
                        "run_seconds of BENCHMARK.json)" % NOMINAL_SECONDS)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="driver mode: one workload, one JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 prints per-layer metrics")
    parser.add_argument("--repeat", type=int, default=5,
                        help="suite mode: run sets over the same seed")
    parser.add_argument("--only", choices=WORKLOADS,
                        help="suite mode: run a single workload")
    parser.add_argument("--quick", action="store_true",
                        help="suite mode: ops / 20, one set; checks the "
                        "schema and the oracles, not the numbers")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    benchmark, metrics = load_specs()
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.workload:
        if args.seed is None:
            parser.error("--workload needs --seed")
        return driver_main(args, benchmark)
    return suite_main(args, benchmark, metrics)


if __name__ == "__main__":
    sys.exit(main())
