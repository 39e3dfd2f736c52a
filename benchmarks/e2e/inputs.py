"""Input generation, in a process of its own.

The workloads are about blocks a node has *never seen*.  The scenario
builder (`chain.scenarios.make_block_scenario`) assembles each block
with `Block.assemble`, which computes -- and memoizes -- the Merkle
root the receiver is later supposed to pay for.  Generating inputs in
the worker would therefore hand every "fresh" relay a warm Merkle memo.
So generation runs here, in a separate interpreter, and the worker
receives only the pickled blocks and mempools: whatever the generator
warmed stays behind in its process.

Run as ``python inputs.py --workload W --seed S --count N --out FILE``.
Records are written as consecutive pickles; :func:`read_records` yields
them back one at a time so a worker holds one scenario in memory, not
hundreds.  The last line of standard output is the generator's share of
``setup_s``: its elapsed seconds, speed-normalised like every other
time the benchmark reports (see `tally.py`).
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tally import (REFERENCE_INTERVAL_S, REFERENCE_NOMINAL_MS,  # noqa: E402
                   reference_kernel)
from workloads import WORKLOADS, input_seed, ring_extras  # noqa: E402


def make_record(workload, seed: int, index: int):
    """One input record: ``(block, mempool)`` or ``(block, [mempools])``."""
    from repro.chain.mempool import Mempool
    from repro.chain.scenarios import make_block_scenario

    if not workload.ring:
        scenario = make_block_scenario(
            workload.n, workload.extra, workload.fraction,
            seed=input_seed(seed, index))
        return scenario.block, scenario.receiver_mempool
    # Fan-out: one block; every ring mempool holds the whole block plus
    # a prefix of one shared run of unrelated transactions.
    extras = ring_extras(workload)
    scenario = make_block_scenario(workload.n, max(extras), 1.0,
                                   seed=input_seed(seed, index))
    pool = scenario.receiver_mempool.transactions()
    return scenario.block, [Mempool(pool[:workload.n + extra])
                            for extra in extras]


def write_records(workload, seed: int, count: int, out: Path) -> list:
    """Write ``count`` records; returns reference-kernel readings (ms)
    taken along the way, at most one per record."""
    readings = []
    read_at = 0.0
    with open(out, "wb") as handle:
        for index in range(count):
            pickle.dump(make_record(workload, seed, index), handle,
                        protocol=pickle.HIGHEST_PROTOCOL)
            started = perf_counter()
            if started - read_at >= REFERENCE_INTERVAL_S:
                reference_kernel()
                read_at = perf_counter()
                readings.append((read_at - started) * 1e3)
    return readings


def read_records(path):
    """Yield the records of ``path`` in order, one unpickle at a time."""
    with open(path, "rb") as handle:
        while True:
            try:
                # Only ever a file this benchmark's generator just wrote.
                yield pickle.load(handle)
            except EOFError:
                return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    started = perf_counter()
    readings = write_records(WORKLOADS[args.workload], args.seed,
                             args.count, args.out)
    elapsed = perf_counter() - started - sum(readings) / 1e3
    print(json.dumps({"setup_s": elapsed * REFERENCE_NOMINAL_MS
                      / statistics.median(readings)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
