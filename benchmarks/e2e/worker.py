"""One pass over one workload, in a fresh interpreter.

``run.py`` starts this module once per pass -- untraced for the
end-to-end numbers, traced for the per-layer numbers -- so no pass
inherits another's memo layers, allocator state or peak RSS.  The last
line of standard output is one JSON object (see :func:`main`).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tally import Tally  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--inputs", type=Path, default=None)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="traced pass: write spans here")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tally = Tally(workload.relays_per_op)
    tally.calibrate()  # a reading on each side of importing the program
    if workload.kind == "loopback":
        from loopback import run_pass
    elif workload.kind == "socket":
        from socketpair import run_pass
    else:
        from simlossy import run_pass
    tally.add_setup(time.perf_counter() - _PROCESS_START)
    layers = run_pass(workload, args, tally)

    errors = []
    if tally.failed:
        errors.append(f"{tally.failed} of {tally.attempted} relays failed "
                      "the oracle")
    share = tally.fallback_share
    if not workload.fallback_min <= share <= workload.fallback_max:
        errors.append(f"fallback share {share:.3f} outside the workload's "
                      f"[{workload.fallback_min}, {workload.fallback_max}]")
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "ops": args.ops,
        "traced": args.trace_out is not None,
        "attempted": tally.attempted, "failed": tally.failed,
        "gave_up": tally.gave_up,
        "samples": len(tally.samples_ms), "errors": errors,
        "setup_s": tally.setup_s,
        "raw": tally.raw() if tally.samples_ms else {},
        "fallback_share": share,
        "end_to_end": tally.end_to_end() if tally.samples_ms else {},
        "layers": layers}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
