"""Structured per-message telemetry for the relay engines.

Every message an engine sends or receives is described by one
:class:`MessageEvent`: the wire command, the direction, the protocol
phase, the roundtrip it belongs to, and a byte decomposition keyed by
:class:`~repro.core.sizing.CostBreakdown` field names.  One event
stream therefore serves every consumer at once:

* ``CostBreakdown.from_events`` folds a stream into the paper's
  cost accounting (Figs. 14, 17, 18);
* the network simulator charges ``wire_bytes`` to per-peer stats and
  link transmission time, so loopback and simulated relays agree on
  bytes by construction;
* experiment drivers read ``outcome`` per event instead of re-deriving
  decode results.

The byte numbers are the *analytic* sizes the paper accounts for
(``wire_size()`` / ``serialized_size()``), not ``len(blob)`` of the
codec output: the simulation encodes transactions as fixed 41-byte
metadata records while the size model charges each transaction's
declared ``tx.size``, and the paper's accounting includes the message
envelope only where the protocol description does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ParameterError

DIRECTIONS = ("sent", "received")
ROLES = ("receiver", "sender")

#: Protocol phases in exchange order (``inv`` and ``push`` bracket the
#: numbered-protocol phases; ``push`` only occurs in mempool sync and
#: ``p3`` only in rateless exchanges, which replace ``p1``/``p2``).
PHASES = ("inv", "p1", "p2", "p3", "fetch", "push")

#: Outcomes an event may resolve with.  "" marks a plain transfer; the
#: decode outcomes ("decoded", "fallback", "fetch", "done", "failed",
#: plus "continue" for a Protocol 3 batch that needs more symbols)
#: are set by the engines on phase-resolving messages; "timeout" (the
#: awaited response never arrived, zero bytes) and "retry" (the request
#: was retransmitted and its bytes charged again) come from the relay
#: recovery subsystem (:mod:`repro.net.recovery`).
OUTCOMES = ("", "decoded", "fallback", "fetch", "continue", "done",
            "failed", "timeout", "retry")


@dataclass(frozen=True, slots=True)
class MessageEvent:
    """One message observed by an engine endpoint.

    ``slots=True`` keeps the per-message footprint flat (no instance
    ``__dict__``), and ``wire_bytes`` is computed once at construction
    instead of summing ``parts`` on every consumer read -- relays emit
    thousands of these, so both matter on the hot path.
    """

    command: str
    direction: str  # "sent" | "received", relative to `role`
    role: str       # "receiver" | "sender": which engine recorded it
    phase: str      # see PHASES
    roundtrip: int  # 0 = inv, 1 = getdata/P1, 2 = P2, 3 = fetch
    #: Byte decomposition, keyed by CostBreakdown field names.
    parts: Mapping[str, int] = field(default_factory=dict)
    #: Outcome, set on the messages that resolve a phase ("decoded",
    #: "fallback", "fetch", "done", "failed") or mark a recovery step
    #: ("timeout", "retry"); see :data:`OUTCOMES`.
    outcome: str = ""
    #: Total bytes this message is accounted at on the wire.  Derived
    #: from ``parts`` in ``__post_init__``; any value passed in is
    #: overwritten, so it can never disagree with the decomposition.
    wire_bytes: int = 0

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ParameterError(f"bad direction {self.direction!r}")
        if self.role not in ROLES:
            raise ParameterError(f"bad role {self.role!r}")
        if self.phase not in PHASES:
            raise ParameterError(f"bad phase {self.phase!r}")
        if self.outcome not in OUTCOMES:
            raise ParameterError(f"bad outcome {self.outcome!r}")
        total = 0
        for name, nbytes in self.parts.items():
            if nbytes < 0:
                raise ParameterError(
                    f"negative byte count for part {name!r}: {nbytes}")
            total += nbytes
        object.__setattr__(self, "wire_bytes", total)

    def as_dict(self) -> dict:
        """A plain-JSON view (trace/JSONL export, ``repro.obs``)."""
        return {
            "command": self.command,
            "direction": self.direction,
            "role": self.role,
            "phase": self.phase,
            "roundtrip": self.roundtrip,
            "outcome": self.outcome,
            "parts": dict(self.parts),
            "bytes": self.wire_bytes,
        }


@dataclass(slots=True)
class StreamTotals:
    """The one fold of an event stream: bytes per part, messages per
    direction, bytes per phase, count and bytes per outcome.

    :meth:`add` is the only code that sums an event's parts.  A recorder
    keeps one, updated in O(parts) per append; :meth:`of` returns that,
    or folds any other iterable through the same :meth:`add`, so
    ``CostBreakdown.from_events``, :func:`total_wire_bytes` and the
    ``repro.obs`` metrics fold read identical numbers off any stream.
    """

    part_totals: dict = field(default_factory=dict)
    direction_counts: dict = field(default_factory=dict)
    phase_bytes: dict = field(default_factory=dict)
    outcome_counts: dict = field(default_factory=dict)
    outcome_bytes: dict = field(default_factory=dict)

    def add(self, event: MessageEvent) -> None:
        totals = self.part_totals
        for name, nbytes in event.parts.items():
            totals[name] = totals.get(name, 0) + nbytes
        counts = self.direction_counts
        counts[event.direction] = counts.get(event.direction, 0) + 1
        phases = self.phase_bytes
        phases[event.phase] = phases.get(event.phase, 0) + event.wire_bytes
        if event.outcome:
            outcomes = self.outcome_counts
            outcomes[event.outcome] = outcomes.get(event.outcome, 0) + 1
            obytes = self.outcome_bytes
            obytes[event.outcome] = \
                obytes.get(event.outcome, 0) + event.wire_bytes

    @classmethod
    def of(cls, events) -> "StreamTotals":
        """The totals of ``events``: a recorder's own, else a fresh fold."""
        if isinstance(events, EventRecorder):
            return events.totals
        totals = cls()
        for event in events:
            totals.add(event)
        return totals


class EventRecorder(list):
    """An event stream that keeps its :class:`StreamTotals` as it grows.

    The engines, nodes and recovery ladder only ever ``append`` to
    their telemetry streams, so that is the one operation folded;
    everything else behaves like the plain list the rest of the package
    expects.
    """

    __slots__ = ("totals",)

    def __init__(self):
        super().__init__()
        self.totals = StreamTotals()

    def append(self, event: MessageEvent) -> None:
        super().append(event)
        self.totals.add(event)


class AggregateRecorder(EventRecorder):
    """An event stream that keeps only its :class:`StreamTotals`.

    At network scale, retaining one :class:`MessageEvent` per message is
    O(messages) memory per node; above the scenario layer's node-count
    threshold each relay stream is one of these instead.  ``append``
    folds the event and discards it, so every consumer of the totals
    sees identical numbers while per-event walks see an empty list.
    """

    __slots__ = ()

    def append(self, event: MessageEvent) -> None:
        self.totals.add(event)


def total_wire_bytes(events, include_txs: bool = False) -> int:
    """Sum of event wire bytes, with the paper's default accounting.

    Transaction payloads (``pushed_tx_bytes`` / ``fetched_tx_bytes``
    parts) are excluded unless ``include_txs`` -- the same convention as
    :meth:`~repro.core.sizing.CostBreakdown.total`.
    """
    tx_parts = ("pushed_tx_bytes", "fetched_tx_bytes")
    return sum(nbytes for name, nbytes
               in StreamTotals.of(events).part_totals.items()
               if include_txs or name not in tx_parts)
