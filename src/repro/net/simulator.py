"""A scalable event-driven network simulator.

Models what the paper's motivation depends on: message delivery time is
``latency + size / bandwidth``, so smaller block encodings propagate
measurably faster.  Links are FIFO per direction (a message cannot
overtake an earlier one on the same link).

The core is built to hold 1000+ nodes' traffic without the per-event
overheads that cap a naive event loop at a few dozen peers:

* **One tuple per event.**  The heap orders ``(when, seq, callback,
  handle)`` entries; ``seq`` is unique, so two entries never compare
  their callbacks, and a popped or discarded entry takes its callback
  with it.
* **A handle-free fast path.**  :meth:`Simulator.post_at` schedules
  events that can never be cancelled -- the overwhelmingly common case
  of message deliveries -- without allocating an :class:`EventHandle`
  at all.
* **Heap compaction.**  Cancelled events are lazily skipped, but a
  1000-node run arms (and immediately cancels) one recovery timer per
  relay, which otherwise leaves the heap mostly debris.  When the
  cancelled fraction grows past half the queue the heap is rebuilt in
  place without them.  Compaction filters on the same ``(when, seq)``
  keys the lazy path would have skipped, so it can never reorder or
  change a run -- it only bounds memory.
* **A per-call event budget.**  ``run(max_events=...)`` counts events
  *of that call* (the cumulative-total comparison that silently spent a
  second call's budget is gone) and truncation is loud: the
  :attr:`Simulator.truncated` flag is set and ``on_budget="raise"``
  escalates to :class:`SimulationBudgetError`.
* **A batched driver.**  :meth:`Simulator.run_cycles` advances the
  clock in fixed steps and hands an O(1)-cheap :class:`CycleStats` to
  an optional hook after each step -- the scenario layer's way of
  collecting per-cycle aggregates without per-message telemetry.

Two facilities exist for the relay recovery ladder
(:class:`~repro.net.host.RelayHost`):

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`EventHandle` so timeout timers can be cancelled when the
  awaited response arrives.  Cancelled events are lazily skipped --
  they never advance the clock nor count as processed, so a run whose
  timers all get cancelled is indistinguishable from one that never
  armed them.
* :class:`FaultInjector` attaches deterministic fault plans to a
  :class:`Link` (drop the nth message, drop by wire command, blackhole
  a time window) for chaos tests that exercise specific loss points
  instead of random ones.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import weakref
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.errors import ParameterError, SimulationBudgetError


@dataclass(slots=True)
class EventHandle:
    """Cancellation token for one scheduled event (lazy deletion)."""

    cancelled: bool = False
    #: Weak reference to the owning simulator, set on push; lets
    #: :meth:`cancel` keep the simulator's live-event counter exact
    #: without a heap scan.  Weak because the simulator's heap holds
    #: this handle: a strong one would make every pending timer a cycle.
    _sim: Optional[weakref.ref] = field(default=None, repr=False)
    #: True once this event left the live count (popped or cancelled),
    #: guarding the counter against double decrements -- e.g. cancelling
    #: a handle whose event already fired.
    _done: bool = field(default=False, repr=False)

    def cancel(self) -> None:
        self.cancelled = True
        if not self._done:
            self._done = True
            sim = None if self._sim is None else self._sim()
            if sim is not None:
                sim._note_cancel()


@dataclass(slots=True)
class FaultInjector:
    """Deterministic fault plan for one direction of one link.

    Unlike ``Link.loss_rate`` (random, seeded loss) a fault plan drops
    *chosen* messages, which is what recovery tests need: "the first
    graphene_block is lost", "every full-block response is lost",
    "nothing gets through between t=1 and t=3".

    ``drop_nth`` holds 0-based indices into the stream of messages
    crossing the link; ``drop_commands`` drops every message whose wire
    command matches; ``blackhole`` is a half-open ``(start, end)``
    sim-time window during which everything is lost.

    A plan is stateful (the message index advances per decision);
    :meth:`reset` rewinds it so one plan object can be reused across
    repeated builds of the same scenario -- e.g. the fuzz relay
    engine's repeated-topology determinism check.
    """

    drop_nth: FrozenSet[int] = frozenset()
    drop_commands: FrozenSet[str] = frozenset()
    blackhole: Optional[Tuple[float, float]] = None
    #: Messages dropped so far (for test assertions).
    dropped: int = 0
    _index: int = field(default=0, repr=False)

    def should_drop(self, now: float, command: str) -> bool:
        """Decide the fate of the next message; advances the index."""
        index = self._index
        self._index += 1
        hit = (index in self.drop_nth
               or command in self.drop_commands
               or (self.blackhole is not None
                   and self.blackhole[0] <= now < self.blackhole[1]))
        if hit:
            self.dropped += 1
        return hit

    def reset(self) -> None:
        """Rewind the plan to pristine: index 0, drop counter 0.

        The *configuration* (``drop_nth`` / ``drop_commands`` /
        ``blackhole``) is untouched, so a reset plan reproduces the
        same drop decisions on an identical message stream.
        """
        self.dropped = 0
        self._index = 0


@dataclass(slots=True)
class Link:
    """A directed link: latency (s), bandwidth (bytes/s), optional loss.

    ``loss_rate`` models UDP-ish gossip unreliability (dropped invs and
    transactions are what make mempool synchronization earn its keep);
    set it to 0 for the TCP-like reliable default.  ``fault`` layers a
    deterministic :class:`FaultInjector` plan on top for chaos tests.
    """

    latency: float = 0.05
    bandwidth: float = 1_000_000.0
    loss_rate: float = 0.0
    #: None means "seed me later" -- Node.connect derives a seed from
    #: the (src, dst) endpoint pair so loss is uncorrelated across links
    #: yet reproducible.  An explicit int pins the stream.
    loss_seed: Optional[int] = None
    #: Optional deterministic fault plan, consulted before random loss.
    fault: Optional[FaultInjector] = None
    #: Wire bytes and messages the sender has put on this link, drops
    #: included (a lost message still left the sender's NIC).
    bytes_sent: int = field(default=0, init=False, repr=False)
    messages_sent: int = field(default=0, init=False, repr=False)
    #: Time at which the sender side of this link frees up (FIFO model).
    _busy_until: float = field(default=0.0, repr=False)
    _loss_rng: Optional[random.Random] = field(default=None, repr=False)

    def __post_init__(self):
        # NaN fails every comparison, and an infinite delay never
        # delivers: both would put a wrong clock on every message.
        if not (math.isfinite(self.latency) and self.latency >= 0):
            raise ParameterError(
                f"latency must be finite and >= 0, got {self.latency}")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ParameterError(
                f"bandwidth must be finite and > 0, got {self.bandwidth}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ParameterError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}")
        # The loss stream is built where its seed is known: here when
        # it is explicit, in ensure_loss_seed when Node.connect derives
        # one, and on the first drops() of a lossy link that was never
        # wired (seed 0) -- one Mersenne-Twister seeding per link.
        if self.loss_rate and self.loss_seed is not None:
            self._loss_rng = random.Random(self.loss_seed)

    def ensure_loss_seed(self, seed: int) -> None:
        """Adopt ``seed`` unless an explicit seed was already chosen.

        A wiring-time call (``Node.connect`` issues it right after the
        link is attached, before any traffic): adopting a seed restarts
        the loss stream from it.
        """
        if self.loss_seed is None:
            self.loss_seed = seed
            if self.loss_rate:
                self._loss_rng = random.Random(seed)

    def drops(self, now: float = 0.0, command: str = "") -> bool:
        """Decide whether the next message is lost in transit.

        ``now`` and ``command`` feed the deterministic fault plan when
        one is attached; the random loss stream is only consulted for
        messages the fault plan lets through, so attaching a plan does
        not perturb the seeded loss sequence of surviving traffic.
        Read-only on the link's configuration (``loss_seed`` stays None
        on a standalone link; only the private stream is created).
        """
        if self.fault is not None and self.fault.should_drop(now, command):
            return True
        if not self.loss_rate:
            return False
        rng = self._loss_rng
        if rng is None:
            rng = self._loss_rng = random.Random(0)
        return rng.random() < self.loss_rate

    def transmit_schedule(self, now: float, nbytes: int) -> float:
        """Return the delivery time of ``nbytes`` sent at ``now``."""
        start = max(now, self._busy_until)
        done_sending = start + nbytes / self.bandwidth
        self._busy_until = done_sending
        return done_sending + self.latency


@dataclass(slots=True)
class CycleStats:
    """Cheap per-cycle aggregates handed to a ``run_cycles`` hook.

    Everything here is O(1) to produce -- counter deltas and list
    lengths -- so a 1000-node run can report per-cycle progress without
    touching per-message state.
    """

    cycle: int        #: 0-based cycle index
    t_start: float    #: clock at cycle entry
    t_end: float      #: clock at cycle exit (== t_start + cycle length)
    events: int       #: events fired during this cycle
    pending: int      #: live events still queued at cycle exit
    queued: int       #: raw heap length (includes cancelled debris)
    truncated: bool   #: this cycle hit its event budget


#: Compaction triggers once at least this many cancelled events sit in
#: the heap *and* they outnumber the live ones -- small queues never pay.
_COMPACT_MIN = 512


class Simulator:
    """Discrete-event loop with a virtual clock.

    The simulator owns its nodes (:attr:`nodes`); everything that points
    back at it -- a node, its relay host, an :class:`EventHandle`, a
    tracer -- holds a weak reference.  The graph a run builds is then
    acyclic, and reference counting frees a dropped run at once instead
    of leaving it to the cycle collector's next full pass.
    """

    def __init__(self):
        #: Heap of ``(when, seq, callback, handle)``; ``handle`` is None
        #: for an uncancellable :meth:`post_at` event.
        self._queue: List[tuple] = []
        self._seq = itertools.count()
        #: Every :class:`~repro.net.node.Node` on this clock, indexed by
        #: its ``nid`` (the integer peer handle its relay host keeps).
        self.nodes: List = []
        self.now = 0.0
        #: Cumulative events fired over the simulator's lifetime (the
        #: per-call budget of :meth:`run` is counted separately).
        self.events_processed = 0
        #: True when the most recent :meth:`run` call stopped on its
        #: event budget rather than draining or reaching its horizon.
        self.truncated = False
        #: Live (non-cancelled, not yet fired) events; maintained on
        #: push/pop/cancel so :attr:`pending` is O(1).
        self._live = 0
        #: Cancelled events still sitting in the heap (compaction gauge).
        self._cancelled_pending = 0
        #: The weak reference every :class:`EventHandle` is given.
        self._ref = weakref.ref(self)

    # -- scheduling ------------------------------------------------------

    def _push(self, when: float, callback: Callable[[], None],
              handle: Optional[EventHandle]) -> None:
        heapq.heappush(self._queue,
                       (when, next(self._seq), callback, handle))
        self._live += 1
        if (self._cancelled_pending >= _COMPACT_MIN
                and self._cancelled_pending * 2 > len(self._queue)):
            self._compact()

    def schedule(self, delay: float,
                 callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ParameterError(f"delay must be >= 0, got {delay}")
        handle = EventHandle(_sim=self._ref)
        self._push(self.now + delay, callback, handle)
        return handle

    def schedule_at(self, when: float,
                    callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute time ``when`` (>= now)."""
        if when < self.now:
            raise ParameterError(
                f"cannot schedule in the past: {when} < {self.now}")
        handle = EventHandle(_sim=self._ref)
        self._push(when, callback, handle)
        return handle

    def post_at(self, when: float, callback: Callable[[], None]) -> None:
        """Like :meth:`schedule_at`, but uncancellable (no handle)."""
        if when < self.now:
            raise ParameterError(
                f"cannot schedule in the past: {when} < {self.now}")
        self._push(when, callback, None)

    # -- cancellation bookkeeping ---------------------------------------

    def _note_cancel(self) -> None:
        self._live -= 1
        self._cancelled_pending += 1

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries, in place.

        Filtering preserves every live entry's ``(when, seq)`` key, and
        those keys are unique, so the post-compaction pop order is
        exactly the order lazy deletion would have produced -- runs are
        bit-identical with or without compaction.
        """
        self._queue[:] = [entry for entry in self._queue
                          if entry[3] is None or not entry[3].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

    # -- driving ---------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: int = 1_000_000,
            on_budget: str = "flag") -> float:
        """Drain the event queue; return the final clock value.

        ``until`` stops the clock at a horizon; on exit the clock is
        clamped *to* the horizon even when events remain beyond it (so
        back-to-back ``run(until=now + dt)`` calls advance in real
        ``dt`` steps).

        ``max_events`` budgets *this call* (not the simulator's
        lifetime total), guarding against runaway protocols.  Hitting
        the budget is never silent: :attr:`truncated` is set, and with
        ``on_budget="raise"`` a :class:`SimulationBudgetError` is
        raised with the queue intact so the caller can inspect or
        resume.  Cancelled events are discarded without advancing the
        clock or counting as processed.
        """
        if on_budget not in ("flag", "raise"):
            raise ParameterError(
                f"on_budget must be 'flag' or 'raise', got {on_budget!r}")
        self.truncated = False
        processed = 0
        queue = self._queue
        while queue:
            when, _, callback, handle = queue[0]
            if handle is not None and handle.cancelled:
                heapq.heappop(queue)
                self._cancelled_pending -= 1
                continue
            if until is not None and when > until:
                break
            if processed >= max_events:
                self.truncated = True
                if on_budget == "raise":
                    raise SimulationBudgetError(
                        f"event budget of {max_events} exhausted at "
                        f"t={self.now} with {self._live} events pending")
                break
            heapq.heappop(queue)
            if handle is not None:
                handle._done = True
            self._live -= 1
            self.now = when
            self.events_processed += 1
            processed += 1
            callback()
        if until is not None and self.now < until and not self.truncated:
            self.now = until
        return self.now

    def run_cycles(self, cycle: float, cycles: Optional[int] = None,
                   max_events_per_cycle: int = 1_000_000,
                   on_cycle: Optional[Callable[[CycleStats], None]] = None
                   ) -> int:
        """Advance the clock in fixed ``cycle``-second batches.

        Runs ``cycles`` batches (or, when ``cycles`` is None, keeps
        batching until the queue drains), handing an O(1)-cheap
        :class:`CycleStats` to ``on_cycle`` after each.  This is the
        scale driver: scenario code schedules its workload as ordinary
        events and observes progress per cycle instead of per message.

        A batch that spends ``max_events_per_cycle`` raises
        :class:`SimulationBudgetError` -- a scaled run that silently
        truncates mid-cycle would corrupt every statistic collected
        after it.
        """
        if cycle <= 0:
            raise ParameterError(f"cycle must be > 0, got {cycle}")
        if cycles is not None and cycles < 0:
            raise ParameterError(f"cycles must be >= 0, got {cycles}")
        index = 0
        while cycles is None or index < cycles:
            if cycles is None and self._live == 0:
                break
            start = self.now
            before = self.events_processed
            self.run(until=start + cycle, max_events=max_events_per_cycle,
                     on_budget="raise")
            if on_cycle is not None:
                on_cycle(CycleStats(
                    cycle=index, t_start=start, t_end=self.now,
                    events=self.events_processed - before,
                    pending=self._live, queued=len(self._queue),
                    truncated=self.truncated))
            index += 1
        return index

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events still queued (O(1))."""
        return self._live
