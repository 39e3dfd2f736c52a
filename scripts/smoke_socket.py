#!/usr/bin/env python
"""Two-process socket smoke: serve a block over localhost TCP, fetch
it from a separate process, and require byte parity with loopback.

This is the CI stage that proves the asyncio peer stack end to end
*across a process boundary* -- real sockets, real scheduling, no
shared interpreter state:

    python scripts/smoke_socket.py          # or: make smoke-socket

1. ``repro serve --port 0 --once`` in a subprocess; parse the bound
   port from its 'listening on HOST:PORT' line.
2. ``repro peer --check-parity`` in a second subprocess against that
   port: the peer asserts its CostBreakdown and telemetry stream are
   byte-identical to the loopback relay of the same seeded scenario.
3. Both processes must exit 0, and the server must report exactly one
   served connection and exactly one opening built for it.

Both processes rebuild the identical scenario from (n, extra,
fraction, seed), so nothing but protocol bytes crosses the wire.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCENARIO = ["--n", "200", "--extra", "200", "--fraction", "0.4",
            "--seed", "2026"]
STARTUP_DEADLINE = 30.0


def python_env() -> dict:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def main() -> int:
    env = python_env()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--once",
         *SCENARIO],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=REPO)
    try:
        port = None
        deadline = time.monotonic() + STARTUP_DEADLINE
        while port is None:
            if time.monotonic() > deadline:
                print("FAIL: server never printed its port")
                return 1
            line = server.stdout.readline()
            if not line:
                print("FAIL: server exited before binding "
                      f"(rc={server.poll()})")
                return 1
            sys.stdout.write(f"  [serve] {line}")
            if line.startswith("listening on "):
                port = int(line.rsplit(":", 1)[1])

        peer = subprocess.run(
            [sys.executable, "-m", "repro", "peer", "--port", str(port),
             "--check-parity", *SCENARIO],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=REPO, timeout=120)
        for line in peer.stdout.splitlines():
            print(f"  [peer]  {line}")
        if peer.returncode != 0:
            print(f"FAIL: peer exited {peer.returncode} "
                  "(fetch failed or parity mismatch)")
            return 1

        out, _ = server.communicate(timeout=30)
        for line in out.splitlines():
            print(f"  [serve] {line}")
        if server.returncode != 0:
            print(f"FAIL: server exited {server.returncode}")
            return 1
        if "served 1 connection(s), built 1 opening(s)" not in out:
            print("FAIL: server did not report exactly one connection "
                  "served from exactly one opening")
            return 1
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    print("smoke-socket OK: two-process relay byte-identical to loopback")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
