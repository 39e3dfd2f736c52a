#!/usr/bin/env python
"""Run every ``repro`` subcommand once at small arguments; each must exit 0.

``serve`` and ``peer`` need each other and a socket, so they run in
``make smoke-socket`` / ``make smoke-mesh``; every other subcommand is in
:data:`COMMANDS`.

Usage::

    python scripts/smoke_cli.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: One small invocation per subcommand (``serve`` / ``peer``: see above).
COMMANDS = (
    ("relay", "--n", "200", "--extra", "200", "--fraction", "0.9",
     "--breakdown"),
    ("sync", "--n", "200", "--common", "0.5"),
    ("iblt-params", "--j", "50"),
    ("experiment", "sec51", "--plot"),
    ("attack", "--trials", "3"),
    ("netsim", "--nodes", "8", "--block-size", "100"),
    ("net", "--nodes", "30", "--blocks", "3", "--block-txns", "8",
     "--interval", "1"),
    ("trace", "--nodes", "6", "--summary", "--limit", "5"),
    ("report", "--nodes", "8"),
    ("fuzz", "--cases", "20", "--no-artifacts"),
)


def run_each(commands) -> int:
    """Run ``python <command>`` for each command from the repository
    root with ``src`` importable; 0 when every one exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    failed = []
    for command in commands:
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, *command],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env,
                              cwd=REPO, timeout=300)
        label = " ".join(command)
        print(f"  {label:68s} exit {proc.returncode}  "
              f"{time.perf_counter() - started:5.2f}s")
        if proc.returncode != 0:
            failed.append(label)
            print(proc.stdout, file=sys.stderr)
    if failed:
        print(f"FAIL: {len(failed)} exited nonzero: {'; '.join(failed)}",
              file=sys.stderr)
        return 1
    print(f"all {len(commands)} exited 0")
    return 0


if __name__ == "__main__":
    sys.exit(run_each([("-m", "repro", *argv) for argv in COMMANDS]))
