#!/usr/bin/env python
"""CI gate over a smoke test's run report.

Loads a report JSON and exits nonzero unless every recorded invariant
passed.  Splitting the gate from the run keeps the failure mode
readable in CI logs: the smoke output shows *what ran*, this check
shows *which accounting invariant drifted* -- and it also fails loudly
when the report is missing or stale, so a refactor cannot silently
stop producing it.

Two profiles, one per smoke stage::

    python scripts/smoke_net.py          # simulator smoke
    python scripts/check_run_report.py   # gates results/run_report.json

    python scripts/smoke_mesh.py         # 3-server socket mesh smoke
    python scripts/check_run_report.py --profile mesh \\
        --report results/mesh_report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_REPORT = REPO / "results" / "run_report.json"

#: Invariants each profile's smoke run must have checked; a report
#: without them is stale or produced by a drifted writer, which is
#: itself a failure.
REQUIRED = {
    "net": (
        "graphene_line_coverage",
        "compact_blocks_line_coverage",
        "xthin_line_coverage",
        "full_block_line_coverage",
        "loopback_parity_n1",
        "relay_parts_fold_to_costbreakdown",
        "relay_retry_bytes_within_total",
        "relay_metrics_match_costbreakdown",
        "chaos_coverage",
        "chaos_no_stranded_state",
    ),
    "mesh": (
        "mesh_fetch_success",
        "mesh_failover_mark",
        "mesh_announcer_registry",
        "mesh_surviving_path_parity",
        "mesh_parts_fold_to_costbreakdown",
        "mesh_retry_bytes_within_total",
        "mesh_retry_accounting",
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", type=Path, default=DEFAULT_REPORT)
    parser.add_argument("--profile", choices=sorted(REQUIRED),
                        default="net",
                        help="which smoke stage's invariant set to "
                             "require")
    args = parser.parse_args(argv)

    if not args.report.exists():
        print(f"REPORT FAIL: {args.report} does not exist -- run the "
              f"matching smoke script for profile {args.profile!r} first")
        return 1
    try:
        report = json.loads(args.report.read_text())
    except json.JSONDecodeError as exc:
        print(f"REPORT FAIL: {args.report} is not valid JSON: {exc}")
        return 1

    invariants = report.get("invariants", [])
    by_name = {inv.get("name"): inv for inv in invariants}
    status = 0
    for name in REQUIRED[args.profile]:
        if name not in by_name:
            print(f"REPORT FAIL: required invariant {name!r} missing "
                  "from the report")
            status = 1
    failed = [inv for inv in invariants if not inv.get("ok")]
    for inv in failed:
        print(f"REPORT FAIL: {inv.get('name')}: {inv.get('detail', '')}")
        status = 1
    if status == 0:
        print(f"report ok: {len(invariants)} invariants held "
              f"({args.report})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
