"""Machine-readable run reports with accounting invariants.

A :class:`RunReport` is what a simulation run leaves behind for CI: a
named list of checked :class:`Invariant` results plus a metrics
snapshot, serialized to JSON (``results/run_report.json`` from
``scripts/smoke_net.py``).  The point is that CI catches *accounting
drift*, not just crashes: a refactor that silently double-charges
retry bytes or diverges the simulator from the loopback accounting
fails the report check even though every exchange still completes.

The invariants this module knows how to check:

* **loopback/simulator byte conservation** -- a simulated relay's
  telemetry folds to the exact :class:`CostBreakdown` the loopback
  session produces for the same scenario
  (:func:`check_cost_parity`);
* **retry bytes are a subset of total bytes** -- every
  ``outcome="retry"`` event re-charges a byte decomposition that some
  earlier send of the same command in the same stream actually carried
  (:func:`check_stream_invariants`);
* **metrics equal the fold** -- the metrics registry's byte counters
  sum to ``CostBreakdown.from_events`` over the same streams, part by
  part (:func:`check_metrics_match_costs`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional

from repro.core.sizing import CostBreakdown
from repro.core.telemetry import total_wire_bytes
from repro.obs.metrics import MetricsRegistry

#: Telemetry phases, re-exported for table rendering order.
from repro.core.telemetry import PHASES


@dataclass
class Invariant:
    """One named pass/fail check with a human-readable detail."""

    name: str
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class RunReport:
    """Accumulates invariants and metrics for one run."""

    name: str
    invariants: List[Invariant] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    context: dict = field(default_factory=dict)
    #: :func:`repro.utils.memo.memo_stats`, read once the run is over.
    memos: dict = field(default_factory=dict)
    #: :func:`repro.chain.merkle.helper_stats`, read with :attr:`memos`.
    merkle_helper: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one check; returns ``ok`` so callers can branch."""
        self.invariants.append(Invariant(name, bool(ok), detail))
        return bool(ok)

    def extend(self, invariants: Iterable[Invariant]) -> None:
        self.invariants.extend(invariants)

    def add_metrics(self, registry: MetricsRegistry) -> None:
        self.metrics = registry.snapshot()

    @property
    def ok(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    @property
    def failed(self) -> List[Invariant]:
        return [inv for inv in self.invariants if not inv.ok]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "invariants": [inv.as_dict() for inv in self.invariants],
            "context": self.context,
            "metrics": self.metrics,
            "memos": {name: dict(zip(MEMO_COLUMNS, counts))
                      for name, counts in self.memos.items()},
            "merkle_helper": self.merkle_helper,
        }

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=1,
                                   sort_keys=True) + "\n")
        return path


# ---------------------------------------------------------------------------
# Invariant checkers
# ---------------------------------------------------------------------------

def check_cost_parity(name: str, expected: CostBreakdown,
                      actual: CostBreakdown) -> Invariant:
    """Byte conservation: two accountings of one exchange must agree."""
    expected_dict, actual_dict = expected.as_dict(), actual.as_dict()
    if expected_dict == actual_dict:
        return Invariant(name, True,
                         f"{expected.total(include_txs=True)} bytes, "
                         "part-for-part")
    diffs = {part: (expected_dict[part], actual_dict[part])
             for part in expected_dict
             if expected_dict[part] != actual_dict[part]}
    return Invariant(name, False, f"mismatched parts: {diffs}")


def _retry_invariant(events) -> Optional[str]:
    """None if retries are honest; else a description of the drift.

    A retry re-emits an earlier request verbatim, so its byte
    decomposition must match some preceding *sent* event of the same
    command -- and retry bytes can never exceed the stream total.
    """
    seen_sends = []
    retry_bytes = 0
    for event in events:
        if event.outcome == "retry":
            retry_bytes += event.wire_bytes
            matches = any(prev.command == event.command
                          and dict(prev.parts) == dict(event.parts)
                          for prev in seen_sends)
            if not matches:
                return (f"retry of {event.command!r} charges "
                        f"{dict(event.parts)} which no earlier send of "
                        "that command carried")
        if event.direction == "sent":
            seen_sends.append(event)
    total = total_wire_bytes(events, include_txs=True)
    if retry_bytes > total:
        return f"retry bytes {retry_bytes} exceed stream total {total}"
    return None


def check_stream_invariants(streams: dict,
                            prefix: str = "relay") -> List[Invariant]:
    """Per-stream accounting checks over ``{key: [MessageEvent]}``.

    * every part name folds into :class:`CostBreakdown` (unknown part
      names mean a producer drifted from the schema);
    * retry events re-charge bytes an earlier send actually carried,
      and retry bytes stay within the stream total.
    """
    invariants = []
    part_errors, retry_errors = [], []
    for key, events in streams.items():
        label = key.hex()[:12] if isinstance(key, bytes) else str(key)
        try:
            CostBreakdown.from_events(events)
        except Exception as exc:  # unknown part / negative bytes
            part_errors.append(f"{label}: {exc}")
        drift = _retry_invariant(events)
        if drift is not None:
            retry_errors.append(f"{label}: {drift}")
    invariants.append(Invariant(
        f"{prefix}_parts_fold_to_costbreakdown", not part_errors,
        "; ".join(part_errors) or f"{len(streams)} streams"))
    invariants.append(Invariant(
        f"{prefix}_retry_bytes_within_total", not retry_errors,
        "; ".join(retry_errors) or f"{len(streams)} streams"))
    return invariants


def check_metrics_match_costs(registry: MetricsRegistry,
                              streams: dict,
                              prefix: str = "relay") -> Invariant:
    """The registry's byte counters equal the CostBreakdown fold.

    Compares part-by-part: ``{prefix}_part_bytes{part=X}`` summed over
    nodes must equal field ``X`` of ``CostBreakdown.from_events`` over
    the concatenation of ``streams``, and the phase-bucketed
    ``{prefix}_bytes`` total must equal ``total(include_txs=True)``.
    """
    merged = CostBreakdown()
    for events in streams.values():
        merged = merged.merge(CostBreakdown.from_events(events))
    mismatches = []
    for part, expected in merged.as_dict().items():
        measured = registry.sum(f"{prefix}_part_bytes", part=part)
        if measured != expected:
            mismatches.append(f"{part}: metrics={measured} "
                              f"costbreakdown={expected}")
    grand_expected = merged.total(include_txs=True)
    grand_measured = registry.sum(f"{prefix}_bytes")
    if grand_measured != grand_expected:
        mismatches.append(f"total: metrics={grand_measured} "
                          f"costbreakdown={grand_expected}")
    return Invariant(
        f"{prefix}_metrics_match_costbreakdown", not mismatches,
        "; ".join(mismatches) or f"{grand_expected} bytes, part-for-part")


# ---------------------------------------------------------------------------
# Table rendering (the `python -m repro report` output)
# ---------------------------------------------------------------------------

def _render_rows(rows) -> str:
    """``rows``, the header first, right-aligned in columns with a rule
    under the header."""
    widths = [max(len(str(row[i])) for row in rows)
              for i in range(len(rows[0]))]
    rule = ["-" * width for width in widths]
    return "\n".join("  ".join(str(cell).rjust(width)
                               for cell, width in zip(row, widths))
                     for row in [rows[0], rule, *rows[1:]])


#: The fields of one :func:`repro.utils.memo.memo_stats` row.
MEMO_COLUMNS = ("hits", "misses", "entries", "pinned")


def render_memo_table(memos: dict) -> str:
    """The process's memos, one row each: ``memo_stats()``'s counts."""
    rows = [("memo",) + MEMO_COLUMNS]
    rows += [(name.removeprefix("repro."),) + tuple(counts)
             for name, counts in memos.items()]
    return _render_rows(rows)


def render_helper_line(counts: dict) -> str:
    """:func:`repro.chain.merkle.helper_stats` on one line."""
    return (f"merkle helper: {counts['split']} trees split; hashed inline "
            f"{counts['busy']} busy, {counts['gone']} gone, "
            f"{counts['not_ready']} not ready; {counts['starts']} started")


def render_byte_table(registry: MetricsRegistry,
                      prefix: str = "relay") -> str:
    """Per-node bytes by phase, plus a totals row.

    Every cell is a counter sum from the registry, so the grand total
    is exactly what :func:`check_metrics_match_costs` compares against
    ``CostBreakdown.from_events``.
    """
    nodes = registry.label_values(f"{prefix}_bytes", "node")
    header = ["node"] + list(PHASES) + ["total"]
    rows = [header]
    for node in nodes:
        cells = [int(registry.sum(f"{prefix}_bytes", node=node,
                                  phase=phase)) for phase in PHASES]
        rows.append([node] + cells + [sum(cells)])
    totals = [int(registry.sum(f"{prefix}_bytes", phase=phase))
              for phase in PHASES]
    rows.append(["total"] + totals + [sum(totals)])
    return _render_rows(rows)


def render_outcome_table(registry: MetricsRegistry,
                         prefix: str = "relay") -> str:
    """Per-node exchange outcomes (count and bytes per outcome)."""
    nodes = registry.label_values(f"{prefix}_outcomes", "node")
    outcomes = registry.label_values(f"{prefix}_outcomes", "outcome")
    if not outcomes:
        return "(no resolved exchanges)"
    header = ["node"] + [f"{o}(n/B)" for o in outcomes]
    rows = [header]
    for node in nodes:
        cells = []
        for outcome in outcomes:
            count = int(registry.sum(f"{prefix}_outcomes", node=node,
                                     outcome=outcome))
            nbytes = int(registry.sum(f"{prefix}_outcome_bytes", node=node,
                                      outcome=outcome))
            cells.append(f"{count}/{nbytes}")
        rows.append([node] + cells)
    totals = []
    for outcome in outcomes:
        count = int(registry.sum(f"{prefix}_outcomes", outcome=outcome))
        nbytes = int(registry.sum(f"{prefix}_outcome_bytes",
                                  outcome=outcome))
        totals.append(f"{count}/{nbytes}")
    rows.append(["total"] + totals)
    return _render_rows(rows)
