"""The six relay workloads: what runs, how many times, and why.

This table is the only place a workload's shape is written down.  The
runner (`run.py`), the input generator (`inputs.py`) and the workers
all read it; `BENCHMARK.json` repeats only each name and its reason.

Operation counts are fixed per workload, never derived from a clock:
byte, round-trip and simulator counts must repeat exactly for a seed,
so the same seed has to mean the same relays on every commit.  The
counts below give roughly ten seconds of timed work per workload on the
2-core host the benchmark was defined on; ``--seconds`` scales all of
them by one common factor (``seconds / NOMINAL_SECONDS``).
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``--seconds`` value at which ``ops`` below apply unscaled.
NOMINAL_SECONDS = 10

#: Untimed relays run before timing starts, per workload.
WARMUP_OPS = 5

#: A percentile needs samples beyond it: never time fewer than this.
MIN_SAMPLES = 120

#: ``--quick`` divides every op count by this (schema/oracle check only).
QUICK_DIVISOR = 20


@dataclass(frozen=True)
class Workload:
    """One workload: a transport kind plus its scenario parameters."""

    name: str
    kind: str            # "loopback" | "socket" | "sim"
    ops: int             # timed operations at NOMINAL_SECONDS
    relays_per_op: int   # completed relays one operation stands for
    n: int               # transactions per block
    extra: int           # unrelated transactions in the receiver mempool
    fraction: float      # share of the block the receiver already holds
    protocol: int = 1    # GrapheneConfig.protocol
    ring: int = 0        # >0: one block served to a ring of mempools
    #: Share of relays allowed to leave the P1/P3 fast path.  The
    #: workload asserts it, so one that silently stops exercising the
    #: path it was chosen for fails the run instead of reporting.
    fallback_min: float = 0.0
    fallback_max: float = 1.0

    def scaled_ops(self, seconds: float, quick: bool = False,
                   halve: bool = False) -> int:
        """Timed operations for a run of nominally ``seconds`` seconds.

        ``halve`` is the traced pairing (an untraced and a traced pass
        over the same inputs share one run's budget).  Outside
        ``quick`` the count never drops below :data:`MIN_SAMPLES`.
        """
        ops = self.ops * seconds / NOMINAL_SECONDS
        if halve:
            ops /= 2
        if quick:
            return max(2, round(ops / QUICK_DIVISOR))
        return max(MIN_SAMPLES, round(ops))

    def input_records(self, ops: int) -> int:
        """Pickled input records a pass over ``ops`` operations reads."""
        if self.kind == "sim":
            return 0  # the scenario builder draws its own block per seed
        if self.ring:
            return 1  # one block, one ring of mempools
        return ops + WARMUP_OPS


def ring_extras(workload: Workload) -> list:
    """Extra-transaction counts of the fan-out ring (1600 ... 2400)."""
    low, high = workload.extra - 400, workload.extra + 400
    steps = workload.ring - 1
    return [low + round((high - low) * j / steps)
            for j in range(workload.ring)]


WORKLOADS = {w.name: w for w in (
    Workload("fresh_p1_2000", "loopback", ops=300, relays_per_op=1,
             n=2000, extra=2000, fraction=1.0, fallback_max=0.05),
    Workload("fanout_p1_2000", "loopback", ops=2500, relays_per_op=1,
             n=2000, extra=2000, fraction=1.0, ring=8),
    Workload("fallback_p2_200", "loopback", ops=2000, relays_per_op=1,
             n=200, extra=200, fraction=0.9, fallback_min=0.9),
    Workload("rateless_p3_2000", "loopback", ops=300, relays_per_op=1,
             n=2000, extra=2000, fraction=0.95, protocol=3),
    Workload("socket_pair_2000", "socket", ops=300, relays_per_op=2,
             n=2000, extra=2000, fraction=1.0),
    Workload("sim_lossy_20", "sim", ops=500, relays_per_op=19,
             n=200, extra=200, fraction=1.0),
)}

#: Simulator scenario shape behind ``sim_lossy_20`` (nodes - 1 relays).
SIM_NODES = 20
SIM_DEGREE = 4
SIM_LOSS = 0.05


def input_seed(seed: int, index: int) -> int:
    """Scenario seed of input record ``index`` under run seed ``seed``.

    Distinct per (seed, index), so no two relays of a run -- and no two
    runs with different seeds -- ever share a block or a mempool.
    """
    return (seed << 20) + index
