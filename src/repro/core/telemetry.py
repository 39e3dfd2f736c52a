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

A stream is a plain ``list`` at every scale.  Events are built through
:func:`message_event`, which interns them: a relay's messages repeat
across peers and blocks (the ``inv``, a getdata, one block's opening
served to every peer), so a 1000-node run's streams hold references to
a handful of shared, immutable objects rather than one object per
message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.errors import ParameterError
from repro.utils.memo import BoundedMemo

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
#: host's recovery ladder (:mod:`repro.net.host`).
OUTCOMES = ("", "decoded", "fallback", "fetch", "continue", "done",
            "failed", "timeout", "retry")


@dataclass(frozen=True, slots=True)
class MessageEvent:
    """One message observed by an engine endpoint.

    ``slots=True`` keeps the per-message footprint flat (no instance
    ``__dict__``), and ``wire_bytes`` is computed once at construction
    instead of summing ``parts`` on every consumer read -- relays emit
    thousands of these, so both matter on the hot path.  ``parts`` is
    stored as a read-only copy, so an event shared between streams (see
    :func:`message_event`) can never be changed through one of them.
    """

    command: str
    direction: str  # "sent" | "received", relative to `role`
    role: str       # "receiver" | "sender": which engine recorded it
    phase: str      # see PHASES
    roundtrip: int  # 0 = inv, 1 = getdata/P1, 2 = P2, 3 = fetch
    #: Byte decomposition, keyed by CostBreakdown field names
    #: (read-only once built).
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
        object.__setattr__(self, "parts", MappingProxyType(dict(self.parts)))
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

    :meth:`add` is the only code that sums an event's parts, and
    :meth:`of` folds any iterable of events through it, so
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
        """The fold of ``events``, any iterable of :class:`MessageEvent`."""
        totals = cls()
        for event in events:
            totals.add(event)
        return totals


#: Every event :func:`message_event` built, keyed by all its fields.
#: Bounded at 1 024 events, each counted 1 (a four-part event and its
#: key pin about 0.9 KB): the repeats a relay makes (inv, getdata, a
#: block's opening, a timeout) are hit again long before they age out,
#: while a Protocol 2 or 3 exchange's one-off sizes only cost a miss.
_EVENTS = BoundedMemo(1024, lambda key, event: 1)


def message_event(command: str, direction: str, role: str, phase: str,
                  roundtrip: int, parts: Mapping[str, int],
                  outcome: str = "") -> MessageEvent:
    """The one :class:`MessageEvent` with these fields, shared by every
    stream that records it (equal events are one object)."""
    key = (command, direction, role, phase, roundtrip, outcome,
           tuple(parts.items()))
    event = _EVENTS.lookup(key)
    if event is None:
        event = MessageEvent(command, direction, role, phase, roundtrip,
                             parts, outcome)
        _EVENTS.remember(key, event)
    return event


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
