"""Per-exchange tracing over the relay telemetry stream.

A :class:`Tracer` timestamps every :class:`~repro.core.telemetry.MessageEvent`
with the simulator clock as it is recorded and groups them -- together
with recovery *marks* (escalate / failover / abandon / done) -- into
per-exchange :class:`Span` objects: one span per block relay or mempool
sync round at one node, with child :class:`PhaseSpan` entries per
protocol phase.  Spans export as JSONL (one span per line, sorted keys)
and as a human-readable timeline.

The tracer is a pure observer.  It never schedules events, never
consumes link randomness, and records through
:class:`TracedStream` -- a ``list`` subclass the nodes use *in place
of* the plain telemetry lists, so every consumer of them
(``CostBreakdown.from_events``, the experiment drivers, the retention
caps) is oblivious to it.  A traced run is therefore byte- and
clock-identical to an untraced one (pinned by ``tests/test_obs.py``).

Typical use::

    sim = Simulator()
    nodes = [Node(f"n{i}", sim) for i in range(20)]
    tracer = Tracer(sim).attach(*nodes)
    ...  # wire topology, mine, sim.run()
    print(tracer.timeline())
    Path("trace.jsonl").write_text(tracer.to_jsonl())
"""

from __future__ import annotations

import itertools
import json
import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.telemetry import MessageEvent
from repro.errors import ParameterError
from repro.net.simulator import Simulator

#: Exchange kinds the node layer emits (manual streams may add more).
SPAN_KINDS = ("relay", "serve", "sync", "sync-serve")

#: Span statuses, in derivation precedence order.  Serving-side spans
#: ("serve", "sync-serve") are stateless request/response streams with
#: no completion of their own; they report "served".
SPAN_STATUSES = ("done", "failed", "abandoned", "served", "open")


def format_key(key) -> str:
    """Render an exchange key (Merkle root, sync nonce) for display."""
    if isinstance(key, (bytes, bytearray)):
        return bytes(key).hex()[:12]
    return str(key)


@dataclass(frozen=True)
class TraceRecord:
    """One telemetry event, stamped with the simulator clock."""

    t: float
    seq: int   # tracer-wide monotonic index; total order for equal t
    node: str
    kind: str
    key: str
    event: MessageEvent


@dataclass(frozen=True)
class TraceMark:
    """A point annotation on an exchange (recovery step, completion)."""

    t: float
    seq: int
    node: str
    kind: str
    key: str
    name: str
    detail: Tuple[Tuple[str, str], ...] = ()

    def as_dict(self) -> dict:
        return {"t": self.t, "name": self.name, "detail": dict(self.detail)}


class TracedStream(list):
    """A telemetry stream that also reports appends to its tracer.

    Engines and the recovery subsystem only ever ``append`` to their
    telemetry lists, so that is the one traced operation; everything
    else (iteration, folding, pruning) behaves like the plain list the
    untraced nodes use, keeping traced and untraced runs on one fold.
    """

    __slots__ = ("tracer", "node", "kind", "key")

    def __init__(self, tracer: "Tracer", node: str, kind: str, key: str):
        super().__init__()
        self.tracer = tracer
        self.node = node
        self.kind = kind
        self.key = key

    def append(self, event: MessageEvent) -> None:
        super().append(event)
        self.tracer._record(self.node, self.kind, self.key, event)


@dataclass
class PhaseSpan:
    """Child span: one protocol phase within an exchange."""

    phase: str
    start: float
    end: float
    messages: int = 0
    bytes: int = 0
    outcomes: List[str] = None

    def as_dict(self) -> dict:
        return {"phase": self.phase, "start": self.start, "end": self.end,
                "messages": self.messages, "bytes": self.bytes,
                "outcomes": list(self.outcomes or [])}


@dataclass
class Span:
    """One exchange (block relay or sync round) observed at one node."""

    node: str
    kind: str
    key: str
    start: float
    end: float
    status: str
    messages: int
    bytes: int
    timeouts: int
    retries: int
    phases: List[PhaseSpan]
    marks: List[TraceMark]
    records: List[TraceRecord]

    def as_dict(self) -> dict:
        return {
            "node": self.node, "kind": self.kind, "key": self.key,
            "start": self.start, "end": self.end, "status": self.status,
            "messages": self.messages, "bytes": self.bytes,
            "timeouts": self.timeouts, "retries": self.retries,
            "phases": [p.as_dict() for p in self.phases],
            "marks": [m.as_dict() for m in self.marks],
            "events": [dict(t=r.t, **r.event.as_dict())
                       for r in self.records],
        }


def _derive_status(marks: List[TraceMark], records: List[TraceRecord]) -> str:
    names = {mark.name for mark in marks}
    for mark_name, status in (("done", "done"), ("failed", "failed"),
                              ("abandon", "abandoned")):
        if mark_name in names:
            return status
    # No marks (manual streams, loopback replays): derive from the last
    # phase-resolving outcome in the event stream.
    for record in reversed(records):
        outcome = record.event.outcome
        if outcome in ("done", "decoded"):
            return "done"
        if outcome == "failed":
            return "failed"
    if records and all(r.event.role == "sender" for r in records):
        return "served"
    return "open"


def assemble_spans(records, marks=()) -> List[Span]:
    """Group timestamped records (and marks) into per-exchange spans.

    Standalone entry point so a *recorded* stream -- e.g. trace records
    loaded back from JSONL, or events stamped by a test harness -- can
    be assembled without a live tracer.
    """
    groups: Dict[tuple, Tuple[list, list]] = {}
    for record in records:
        groups.setdefault((record.node, record.kind, record.key),
                          ([], []))[0].append(record)
    for mark in marks:
        group = groups.get((mark.node, mark.kind, mark.key))
        if group is not None:
            group[1].append(mark)
    spans = []
    for (node, kind, key), (recs, span_marks) in groups.items():
        recs = sorted(recs, key=lambda r: r.seq)
        span_marks = sorted(span_marks, key=lambda m: m.seq)
        end = recs[-1].t
        if span_marks:
            end = max(end, span_marks[-1].t)
        phases: Dict[str, PhaseSpan] = {}
        timeouts = retries = 0
        for record in recs:
            event = record.event
            phase = phases.get(event.phase)
            if phase is None:
                phase = phases[event.phase] = PhaseSpan(
                    phase=event.phase, start=record.t, end=record.t,
                    outcomes=[])
            phase.end = max(phase.end, record.t)
            phase.messages += 1
            phase.bytes += event.wire_bytes
            if event.outcome:
                phase.outcomes.append(event.outcome)
            timeouts += event.outcome == "timeout"
            retries += event.outcome == "retry"
        spans.append(Span(
            node=node, kind=kind, key=key,
            start=recs[0].t, end=end,
            status=_derive_status(span_marks, recs),
            messages=len(recs),
            bytes=sum(r.event.wire_bytes for r in recs),
            timeouts=timeouts, retries=retries,
            phases=sorted(phases.values(), key=lambda p: p.start),
            marks=span_marks, records=recs))
    spans.sort(key=lambda s: (s.start, s.records[0].seq))
    return spans


class WallClock:
    """A ``.now`` clock over real time, for tracing socket runs.

    :class:`Tracer` only ever reads its clock's ``now`` attribute, so
    any object exposing one works.  The simulator provides virtual
    time; this is the wall-time twin the asyncio peer stack
    (:mod:`repro.net.peer`) passes when tracing a relay over a real
    connection: monotonic seconds since the clock was created, so span
    timestamps start near zero just like a simulation's.
    """

    __slots__ = ("_origin",)

    def __init__(self):
        self._origin = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._origin


class Tracer:
    """Collects timestamped telemetry and assembles exchange spans."""

    def __init__(self, simulator):
        # A simulator is read through a weak reference: it owns its
        # nodes, and they this tracer.  Any other clock (a WallClock)
        # is the tracer's own.
        self._clock = weakref.ref(simulator) \
            if isinstance(simulator, Simulator) else lambda: simulator
        self.records: List[TraceRecord] = []
        self.marks: List[TraceMark] = []
        self._seq = itertools.count()

    def attach(self, *nodes) -> "Tracer":
        """Point ``nodes`` at this tracer; returns self for chaining."""
        for node in nodes:
            node.tracer = self
        return self

    def stream(self, node_id: str, kind: str, key) -> TracedStream:
        """A fresh telemetry list whose appends are timestamped here."""
        return TracedStream(self, node_id, kind, format_key(key))

    def _now(self) -> float:
        clock = self._clock()
        if clock is None:
            raise ParameterError("tracer outlived its simulator")
        return clock.now

    def _record(self, node: str, kind: str, key: str,
                event: MessageEvent) -> None:
        self.records.append(TraceRecord(
            t=self._now(), seq=next(self._seq),
            node=node, kind=kind, key=key, event=event))

    def mark(self, node_id: str, kind: str, key, name: str,
             **detail) -> None:
        """Annotate an exchange with a recovery/completion step."""
        self.marks.append(TraceMark(
            t=self._now(), seq=next(self._seq), node=node_id,
            kind=kind, key=format_key(key), name=name,
            detail=tuple(sorted((str(k), str(v))
                                for k, v in detail.items()))))

    # -- assembly and export ---------------------------------------------

    def spans(self, kind: Optional[str] = None) -> List[Span]:
        spans = assemble_spans(self.records, self.marks)
        if kind is not None:
            spans = [span for span in spans if span.kind == kind]
        return spans

    def to_jsonl(self, kind: Optional[str] = None) -> str:
        """One JSON object per span, deterministic key order."""
        lines = [json.dumps(span.as_dict(), sort_keys=True)
                 for span in self.spans(kind)]
        return "\n".join(lines) + ("\n" if lines else "")

    def timeline(self, events: bool = True, kind: Optional[str] = None,
                 limit: Optional[int] = None) -> str:
        """Human-readable span timeline, one exchange per block.

        ``events=False`` collapses each span to its summary line;
        ``limit`` keeps only the first N spans (chronological order).
        """
        lines = []
        spans = self.spans(kind)
        shown = spans if limit is None else spans[:limit]
        for span in shown:
            extras = ""
            if span.timeouts or span.retries:
                extras = (f", {span.timeouts} timeouts,"
                          f" {span.retries} retries")
            phase_names = " ".join(p.phase for p in span.phases)
            lines.append(
                f"[{span.start:10.4f} → {span.end:10.4f}] {span.node:<5} "
                f"{span.kind:<10} {span.key:<12} {span.status:<9} "
                f"{span.messages:>3} msgs {span.bytes:>9,} B  "
                f"[{phase_names}]{extras}")
            if not events:
                continue
            entries = [(r.seq, r) for r in span.records] \
                + [(m.seq, m) for m in span.marks]
            for _, entry in sorted(entries):
                if isinstance(entry, TraceMark):
                    detail = " ".join(f"{k}={v}" for k, v in entry.detail)
                    lines.append(f"    {entry.t:10.4f}  ** {entry.name}"
                                 + (f" ({detail})" if detail else ""))
                    continue
                event = entry.event
                arrow = "->" if event.direction == "sent" else "<-"
                outcome = f"  {event.outcome}" if event.outcome else ""
                lines.append(
                    f"    {entry.t:10.4f}  {arrow} {event.command:<22}"
                    f" {event.phase:<5} {event.wire_bytes:>9,} B{outcome}")
        if limit is not None and len(spans) > limit:
            lines.append(f"... {len(spans) - limit} more spans")
        return "\n".join(lines)
