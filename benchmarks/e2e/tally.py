"""Per-pass totals and the per-relay oracle, shared by every worker."""

from __future__ import annotations

import math
import resource
import statistics
from hashlib import sha256
from time import perf_counter

#: What one reference-kernel run took on the host the benchmark was
#: defined on, in a fast phase.  Normalised times are quoted at this
#: speed, so they read like that host's milliseconds.
REFERENCE_NOMINAL_MS = 1.0

#: Take a new reference reading once this much wall time has passed
#: since the last one (short relays share a reading; long ones get one
#: on each side).
REFERENCE_INTERVAL_S = 0.02

#: Loop count of :func:`reference_kernel` (about a millisecond).
REFERENCE_ROUNDS = 1200


def reference_kernel() -> int:
    """A fixed piece of work with the program's instruction mix.

    Short-input SHA-256, integer arithmetic and dict stores in a
    bytecode loop: what the relay's own hot loops are made of.  It is
    harness code; no program change can make it faster.
    """
    digest = b"graphene relay benchmark ref ker"
    table: dict = {}
    total = 0
    for _ in range(REFERENCE_ROUNDS):
        digest = sha256(digest).digest()
        word = int.from_bytes(digest[:8], "little")
        table[word & 0x3FF] = total
        total += word % 977
    return total


class Tally:
    """Running totals of one pass; folds into the end-to-end metrics.

    One *operation* stands for ``relays_per_op`` relays (2 on the socket
    pair, 19 on the simulator).  Its wall time divided by that count is
    one latency sample, so the percentiles are not a mix of the first
    and the last finisher of the same operation.

    **Speed normalisation.**  The host this runs on drifts: the same
    pure-CPU loop takes 20-40 % longer for seconds at a time, then
    recovers, and a run's median follows whichever phases it caught.
    So the pass times :func:`reference_kernel` between operations
    (:meth:`calibrate`), and each latency sample -- and each stretch of
    set-up time -- is scaled by
    ``REFERENCE_NOMINAL_MS / (mean of the readings on either side)``.
    A normalised millisecond is a millisecond at the reference speed;
    the raw samples are kept beside them and reported as ``raw_*``.
    """

    def __init__(self, relays_per_op: int):
        self.relays_per_op = relays_per_op
        self.samples_ms: list = []   # normalised, one per completed op
        self.raw_ms: list = []       # as measured
        self.reference_ms: list = []
        self._pending: list = []     # raw samples awaiting a reading
        self._pending_setup = 0.0    # raw set-up seconds awaiting one
        self._reading_at = 0.0
        self.attempted = 0
        self.failed = 0
        self.wire_bytes = 0
        self.compact_bytes = 0
        self.messages = 0
        self.fallbacks = 0
        self.gave_up = 0
        self.setup_s = 0.0

    def calibrate(self, force: bool = False) -> None:
        """Take a reference reading if one is due; settle pending samples.

        Call right before an operation starts, and once with ``force``
        after the last one.
        """
        now = perf_counter()
        if self.reference_ms and not force \
                and now - self._reading_at < REFERENCE_INTERVAL_S:
            return
        reference_kernel()
        reading = (perf_counter() - now) * 1e3
        around = (self.reference_ms[-1] + reading) / 2 \
            if self.reference_ms else reading
        self.reference_ms.append(reading)
        self._reading_at = perf_counter()
        for raw in self._pending:
            self.samples_ms.append(raw * REFERENCE_NOMINAL_MS / around)
        self._pending.clear()
        self.setup_s += self._pending_setup * REFERENCE_NOMINAL_MS / around
        self._pending_setup = 0.0

    def add_setup(self, seconds: float) -> None:
        """Count untimed preparation (imports, loading, warm-up relays)
        toward ``setup_s``, normalised like a latency sample."""
        self._pending_setup += seconds

    def add_op(self, wall_ns: int, failed_relays: int) -> None:
        self.attempted += self.relays_per_op
        self.failed += failed_relays
        if not failed_relays:
            raw = wall_ns / 1e6 / self.relays_per_op
            self.raw_ms.append(raw)
            self._pending.append(raw)

    def add_relay(self, wire_bytes: int, compact_bytes: int,
                  messages: int, fallback: bool,
                  gave_up: bool = False) -> None:
        self.wire_bytes += wire_bytes
        self.compact_bytes += compact_bytes
        self.messages += messages
        self.fallbacks += fallback
        self.gave_up += gave_up

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def speed_factor(self) -> float:
        """Run-level scale from measured to normalised milliseconds."""
        return REFERENCE_NOMINAL_MS / statistics.median(self.reference_ms)

    @property
    def fallback_share(self) -> float:
        return self.fallbacks / self.completed if self.completed else 0.0

    @property
    def gave_up_share(self) -> float:
        return self.gave_up / self.completed if self.completed else 0.0

    def percentile(self, q: float, samples=None) -> float:
        """Nearest-rank percentile over every *attempted* operation.

        A failed operation has no latency: it sorts after every sample,
        so failures push the percentiles up.  A rank that lands on a
        failure reads as the slowest completed sample (JSON has no
        infinity, and ``failed`` already rejects the run).
        """
        ordered = sorted(self.samples_ms if samples is None else samples)
        operations = self.attempted // self.relays_per_op
        rank = max(1, math.ceil(q * operations))
        return ordered[min(rank, len(ordered)) - 1]

    def end_to_end(self) -> dict:
        completed = self.completed
        return {
            "relay_p50_ms": self.percentile(0.5),
            "relay_p90_ms": self.percentile(0.9),
            "relays_per_s": 1e3 / statistics.fmean(self.samples_ms),
            "wire_bytes_per_relay": self.wire_bytes / completed,
            "bytes_ratio_vs_compact": self.wire_bytes / self.compact_bytes,
            "round_trips_per_relay": self.messages / 2 / completed,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def raw(self) -> dict:
        """The same latency figures as measured, before normalisation."""
        return {
            "raw_relay_p50_ms": self.percentile(0.5, self.raw_ms),
            "raw_relay_p90_ms": self.percentile(0.9, self.raw_ms),
            "raw_relays_per_s": 1e3 / statistics.fmean(self.raw_ms),
            "reference_kernel_ms": statistics.median(self.reference_ms),
        }


def crossing_messages(events) -> int:
    """Messages of a receiver's event stream that crossed a transport.

    The stream also holds the ``inv`` that triggered the exchange (no
    transport carried it on loopback) and zero-byte ``timeout`` marks.
    """
    return sum(1 for event in events
               if event.command != "inv" and event.outcome != "timeout")


def merkle_root_of(txids: list) -> bytes:
    """Bitcoin-style Merkle root, computed here and not by the program.

    The oracle must not trust the code under test (nor its memo): an
    odd node pairs with itself, leaves are the txids as they are.
    """
    level = list(txids) or [bytes(32)]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [sha256(sha256(level[i] + level[i + 1]).digest()).digest()
                 for i in range(0, len(level), 2)]
    return level[0]


def block_delivered(block, got_block) -> bool:
    """The oracle on one relay's output.

    The reconstructed block carries the sender's header, its
    transactions are the block's in the block's order, and they hash to
    the header's Merkle root.
    """
    if got_block is None:
        return False
    txids = [tx.txid for tx in got_block.txs]
    return (got_block.header == block.header
            and txids == [tx.txid for tx in block.txs]
            and merkle_root_of(txids) == block.header.merkle_root)


def compact_baseline(block, mempool) -> int:
    """Compact Blocks bytes for relaying ``block`` to ``mempool``."""
    from repro.baselines.compact_blocks import compact_blocks_bytes

    missing = sum(1 for tx in block.txs if tx.txid not in mempool)
    return compact_blocks_bytes(block.n, missing=missing)
