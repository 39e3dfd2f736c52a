"""Compare two suite results: ``compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the candidate; both are
files ``run.py`` wrote.  One row per workload and bounded end-to-end
metric: both medians with their quartiles, the ratio ``B/A`` (base:
``A``), the bound from ``BENCHMARK.json`` and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``regression``  it is worse by more than the bound;
``unresolved``  either side's run-to-run spread (interquartile distance
                over median) is wider than the bound and the two sides'
                runs overlap, so the bound cannot be judged either way.

The byte and round-trip metrics listed as ``exact`` in ``metrics.json``
repeat digit for digit for one seed and one ``--seconds``; when both
files share those, any worsening at all is a ``regression``.  The change
in ``failed_share`` is printed per workload, and any rise fails the
comparison.  The exit code is non-zero on any ``regression``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: list, cand: list, better: str, bound: float,
            exact: bool) -> str:
    """Judge one workload x metric from the two sides' per-set values."""
    base_median = statistics.median(base)
    cand_median = statistics.median(cand)
    worse_by = cand_median - base_median if better == "lower" \
        else base_median - cand_median
    if exact:
        return "regression" if worse_by > 0 else "ok"
    overlap = min(base) <= max(cand) and min(cand) <= max(base)
    if max(spread(base), spread(cand)) > bound and overlap:
        return "unresolved"
    if base_median and worse_by / base_median > bound:
        return "regression"
    return "ok"


def failed_share(entry: dict) -> float:
    return entry["failed"] / entry["attempted"] if entry["attempted"] else 0.0


def compare(base: dict, cand: dict, benchmark: dict, metrics: dict) -> list:
    """Rows ``(workload, metric, verdict, text)`` for every shared pair."""
    same_inputs = (
        base["environment"]["seed"] == cand["environment"]["seed"]
        and base["seconds"] == cand["seconds"]
        and base["quick"] == cand["quick"])
    rows = []
    for name, base_entry in base["workloads"].items():
        cand_entry = cand["workloads"].get(name)
        if cand_entry is None:
            continue
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            a = [one[metric] for one in base_entry["end_to_end"]]
            b = [one[metric] for one in cand_entry["end_to_end"]]
            exact = same_inputs and metric in metrics["exact"]
            outcome = verdict(a, b, spec["better"], spec["bound"], exact)
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            bound = "exact" if exact else f"{spec['bound']:.0%}"
            rows.append((name, metric, outcome, (
                f"{name:<18}{metric:<24}"
                f"{a2:>12.4f} [{a1:.4f}, {a3:.4f}]  "
                f"{b2:>12.4f} [{b1:.4f}, {b3:.4f}]  "
                f"B/A {b2 / a2 if a2 else float('nan'):6.3f} "
                f"(base {a2:.4f} {spec['unit']})  bound {bound:<6} "
                f"{outcome}")))
        fa, fb = failed_share(base_entry), failed_share(cand_entry)
        outcome = "regression" if fb > fa else "ok"
        rows.append((name, "failed_share", outcome, (
            f"{name:<18}{'failed_share':<24}{fa:>12.6f}{'':<22}"
            f"{fb:>12.6f}{'':<22}change {fb - fa:+.6f}  bound 0      "
            f"{outcome}")))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, cand = (json.loads(Path(path).read_text()) for path in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = json.loads((HERE / "metrics.json").read_text())
    rows = compare(base, cand, benchmark, metrics)
    print(f"A = {argv[0]} (base)\nB = {argv[1]}")
    print(f"{'workload':<18}{'metric':<24}{'A median [q1, q3]':<36}"
          f"{'B median [q1, q3]':<36}")
    for _, _, _, text in rows:
        print(text)
    counts = {outcome: sum(1 for row in rows if row[2] == outcome)
              for outcome in ("ok", "unresolved", "regression")}
    print(", ".join(f"{count} {outcome}"
                    for outcome, count in counts.items()))
    return 1 if counts["regression"] else 0


if __name__ == "__main__":
    sys.exit(main())
