"""RelayHost: one relay host, two clocks, and the recovery ladder.

Everything a node keeps about blocks in flight is kept here, once and
without I/O, for both drivers -- the simulator's
:class:`~repro.net.node.Node` and the sockets'
:class:`~repro.net.peer.manager.PeerManager`:

* the **announcer registry**: every peer that announced a root, in
  arrival order -- the failover schedule (PROTOCOL.md §5.3);
* the **fetch registry**: one :class:`Fetch` per root, holding the
  ladder's state, the receiver engine of the current attempt and the
  root's telemetry stream (streams outlive their fetch, up to
  :data:`TELEMETRY_CAP`);
* the **recovery ladder** (below), climbed by the host's own timers;
* the **serving registry**: one sender engine per held root, answering
  every peer, dropped once its root leaves the driver's ``blocks`` and
  capped at :data:`SERVING_CAP`;
* **mempool sync** (paper 3.2.1) on both sides: the sessions this node
  opened (:meth:`RelayHost.open_sync`, keyed by a nonce, timed on the
  same ladder as fetches, ending in the push of H) and the sender
  engines it serves other nodes' sessions from, keyed by
  ``(peer, nonce)``.  The engines are the relay engines in
  ``mode="mempool"``; only the wire names differ (:data:`WIRE_BY_STEP`);
* the **span marks**: ``escalate`` (``why``, ``peer``), ``failover``
  (``to``), ``abandon`` and ``done`` (``origin``, plus
  ``via="fullblock"`` when rung 2 delivered the block); a sync's span
  ends in ``done`` (``pushed``), ``failed`` or ``abandon``
  (``attempts``).

The paper's deployment story (sections 4.3 and 5) is that Graphene
keeps propagating under real p2p conditions: one dropped
``graphene_block`` must not leave a receiver in ``WAIT_P1`` forever.
Every exchange therefore runs under a timer (:class:`RecoveryPolicy`),
and a stalled block fetch climbs one rung per timeout::

    rung 1  resend the last request to the same peer
            (exponential backoff, at most ``max_retries`` times)
    rung 2  escalate to a full-block getdata from that peer
            (same retry cap; a decode failure enters here at once)
    rung 3  fail over to the next live announcer of the root not yet
            tried (restarting the protocol exchange from scratch)

When every announcer has been tried the fetch is *abandoned*: its state
is dropped and a later inv from any peer starts over.  A mempool sync
climbs rung 1 only; it has one responder and no full-block rung, so it
abandons there.  Every timer is cancelled the moment the awaited
response arrives, so a loss-free run never observes the ladder -- the
same messages cross the wire in the same order, byte for byte.
Timeouts and retries bump ``relay_timeouts`` / ``relay_retries`` and
append ``outcome="timeout"`` / ``"retry"`` events to the exchange's
stream (a retry carries the resent bytes, so
:meth:`~repro.core.sizing.CostBreakdown.from_events` charges it).

The host takes events -- an ``inv``, an engine frame, a sync frame, a
full block, a timer firing, a peer gone -- each with a peer handle, an
``int`` on both drivers (the simulator's node id, the socket's
connection id), and acts through the verbs of its :class:`Driver`.  One
rule per event binds both drivers:

* an engine reply is processed only from the peer the fetch (or sync)
  is at, on the engine rung, in the phase that awaits it; anything else
  is shed (``frames_shed``);
* a full block the node lacks is accepted from any peer if it hashes to
  its header's root, and raises :class:`~repro.errors.ProtocolFailure`
  otherwise;
* an ``inv`` for a root the node lacks registers its sender once; only
  the first opens the fetch;
* a timeout on a peer that is gone fails over at once.
"""

from __future__ import annotations

import itertools
import logging
import math
import weakref
import zlib
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Protocol, Set

from repro.chain.block import Block
from repro.chain.merkle import matches_root
from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
    RECEIVER_STEPS,
    SENDER_STEPS,
)
from repro.core.mempool_sync import adopt_reconciled
from repro.core.sizing import getdata_bytes
from repro.core.telemetry import MessageEvent, message_event
from repro.errors import ParameterError, ProtocolFailure

logger = logging.getLogger(__name__)

#: Retention caps, so long runs do not grow without bound: the newest
#: ``TELEMETRY_CAP`` relay telemetry streams, settled roots and sync
#: sessions, and the newest ``SERVING_CAP`` serving engines of each
#: registry (block relay, and mempool sync by ``(peer, nonce)``).
TELEMETRY_CAP = 256
SERVING_CAP = 64

#: Ladder stages of one in-flight block fetch.
STAGE_ENGINE = "engine"        # Graphene engine exchange in progress
STAGE_REQUEST = "request"      # baseline protocol request outstanding
STAGE_FULLBLOCK = "fullblock"  # escalated to a full-block getdata

#: Engine step command -> sync wire command.  The engines speak the
#: relay vocabulary; the wire tags sync traffic distinctly so a node can
#: serve block relay and mempool sync concurrently.
WIRE_BY_STEP = {
    "getdata": "mempool_sync_request",
    "graphene_block": "mempool_sync_p1",
    "graphene_p2_request": "mempool_sync_p2_req",
    "graphene_p2_response": "mempool_sync_p2_resp",
    "graphene_p3_block": "mempool_sync_p3",
    "graphene_p3_request": "mempool_sync_p3_req",
    "graphene_p3_symbols": "mempool_sync_p3_sym",
    "getdata_shortids": "sync_fetch",
    "block_txs": "sync_txs",
}
_STEP_BY_WIRE = {wire: step for step, wire in WIRE_BY_STEP.items()}

#: Every command :meth:`RelayHost.on_sync_frame` takes: the renamed
#: engine steps and the closing push of H.
SYNC_COMMANDS = frozenset(_STEP_BY_WIRE) | {"sync_push"}


@dataclass
class RecoveryPolicy:
    """Knobs for the relay recovery ladder.

    ``timeout_base`` is the first-attempt timer; each retry multiplies
    it by ``backoff``.  ``max_retries`` caps resends *per rung* (the
    engine/request rung and the full-block rung each get their own
    budget).  The retention caps are the module constants
    :data:`TELEMETRY_CAP` and :data:`SERVING_CAP`.
    """

    timeout_base: float = 2.0
    backoff: float = 2.0
    max_retries: int = 3

    def __post_init__(self):
        # NaN fails every comparison, and an infinite timer never fires:
        # either would run the exchange without a ladder.
        if not (math.isfinite(self.timeout_base) and self.timeout_base > 0):
            raise ParameterError(
                f"timeout_base must be finite and > 0, "
                f"got {self.timeout_base}")
        if not (math.isfinite(self.backoff) and self.backoff >= 1.0):
            raise ParameterError(
                f"backoff must be finite and >= 1, got {self.backoff}")
        if self.max_retries < 0:
            raise ParameterError(
                f"max_retries must be >= 0, got {self.max_retries}")

    def timeout_for(self, attempts: int) -> float:
        """Timer duration after ``attempts`` resends on this rung."""
        return self.timeout_base * self.backoff ** attempts


@dataclass
class FetchState:
    """Recovery-ladder state of one in-flight exchange (a block fetch
    or a mempool sync): the base of :class:`Fetch` and
    :class:`SyncState`.

    ``peer`` is a peer handle: the node id in the simulator, the
    connection id on sockets.  ``key`` tags the exchange on the wire
    (the block's Merkle root, the sync nonce); ``engine`` is its
    receiver engine; ``timer`` is whatever the driver's clock hands
    back (an ``EventHandle`` or an ``asyncio.TimerHandle``).
    """

    peer: object                    # announcer currently serving the fetch
    stage: str                      # STAGE_ENGINE/REQUEST/FULLBLOCK
    attempts: int = 0               # resends on the current rung
    timer: Optional[object] = None  # handle of the armed timeout
    tried: Set[object] = field(default_factory=set)  # exhausted peers
    key: object = None
    engine: Optional[object] = None


def fullblock_event(outcome: str = "") -> MessageEvent:
    """A receiver-side event of the full-block rung, where no engine is
    driving: the escalation request itself (``outcome=""``), a
    ``"timeout"`` on it, or its ``"retry"``.

    The two sends carry ``extra_getdata`` -- real bytes, honestly
    charged, and the retry re-charges a decomposition the anchor
    actually carried; a timeout is zero-byte.
    """
    parts = {} if outcome == "timeout" \
        else {"extra_getdata": getdata_bytes(0)}
    return message_event("getdata", "sent", "receiver", "fetch", 4, parts,
                         outcome)


def prune_oldest(registry: dict, cap: int) -> None:
    """Evict insertion-oldest entries until ``registry`` fits ``cap``."""
    while len(registry) > cap:
        registry.pop(next(iter(registry)))


class Driver(Protocol):
    """The verbs a :class:`RelayHost` acts through.

    A driver also carries the facts the host reads at the moment of
    use, so it may swap any of them between exchanges: ``node_id``,
    ``mempool`` (``None`` on a node that never fetches), ``config``,
    ``recovery`` (the :class:`RecoveryPolicy`),
    ``tracer`` and ``blocks`` (root -> held block).  The driver owns its
    host; the host holds it by a weak reference.
    """

    def send_action(self, peer: int, key, action, wire=None) -> None:
        """Carry an engine SEND ``action`` tagged ``key`` to ``peer``;
        ``wire`` renames engine commands (mempool sync)."""

    def push_txs(self, peer: int, nonce: int, txs: tuple, event) -> None:
        """End the mempool sync ``nonce`` by sending ``peer`` the
        transactions it lacks (H), charged as ``event``."""

    def request_block(self, peer: int, root: bytes, full: bool) -> None:
        """Ask ``peer`` for the whole block (``full``), else send the
        relay protocol's own opening request (the simulated baselines)."""

    def call_later(self, delay: float, fn: Callable[[], None]):
        """Run ``fn`` in ``delay`` seconds; the handle has ``cancel()``."""

    def is_alive(self, peer: int) -> bool:
        """Whether ``peer`` can still be sent to."""

    def peer_label(self, peer: int) -> str:
        """``peer``'s name in span marks and logs."""

    def fetch_finished(self, peer: Optional[int], block: Optional[Block],
                       fetch: Optional["Fetch"]) -> None:
        """``block`` arrived from ``peer`` and ends ``fetch`` (``None``
        if none was live), or ``fetch`` was abandoned (no ``block``, no
        ``peer``)."""


@dataclass
class Fetch(FetchState):
    """One block fetch: the ladder's state, the announcers it may fail
    over to, and the facts its driver reports when it ends."""

    announcers: List[int] = field(default_factory=list)
    stream: Optional[list] = None  # the root's telemetry (not baselines)
    attempt_start: int = 0         # stream index of the current attempt
    failovers: int = 0
    escalated: bool = False
    via_fullblock: bool = False    # rung 2 delivered the block
    wire: ClassVar[Optional[dict]] = None  # engine commands go as named


@dataclass
class SyncState(FetchState):
    """Initiator-side state for one in-flight sync: the ladder's
    :class:`FetchState` (``peer`` is the responder's handle, ``key`` the
    nonce) plus the session's own facts."""

    done: bool = False
    succeeded: bool = False
    wire: ClassVar[Optional[dict]] = WIRE_BY_STEP

    @property
    def events(self) -> list:
        """Telemetry stream of the exchange (initiator perspective)."""
        return self.engine.telemetry


class RelayHost:
    """The announcer, fetch, serving and sync registries of one node,
    and the one driver of the recovery ladder; see the module docstring.

    ``stage`` is the rung an exchange opens (and restarts after a
    failover) at: the engine exchange for Graphene, the baseline's own
    request otherwise.
    """

    def __init__(self, driver: Driver, stage: str = STAGE_ENGINE):
        # Weak: the driver owns this host, so a strong back-reference
        # would make every node or manager a cycle.
        self._driver = weakref.ref(driver)
        self.stage = stage
        self.fetches: Dict[bytes, Fetch] = {}
        self.serving: Dict[bytes, GrapheneSenderEngine] = {}
        self.syncs: Dict[int, SyncState] = {}
        self.sync_serving: Dict[tuple, GrapheneSenderEngine] = {}
        # Seeded from the node id: deterministic per node, distinct
        # across nodes, so runs reproduce and two nodes syncing with the
        # same responder never collide.
        self._sync_nonces = itertools.count(
            zlib.crc32(driver.node_id.encode()) * 100_000 + 1)
        #: Root -> telemetry stream of its relay, kept after the fetch
        #: ends so runs can fold it (newest :data:`TELEMETRY_CAP` roots).
        self.relay_telemetry: dict = {}
        #: Roots that arrived here (newest :data:`TELEMETRY_CAP`): with the
        #: driver's ``blocks``, what no ``inv`` or block reopens.
        self.settled: dict = {}
        self.frames_shed = 0
        self.relay_timeouts = 0
        self.relay_retries = 0
        self.relay_failures = 0

    @property
    def driver(self) -> Driver:
        """The node or manager this host acts through."""
        driver = self._driver()
        if driver is None:
            raise ParameterError("relay host outlived its driver")
        return driver

    # -- observability --------------------------------------------------

    def stream(self, kind: str, key) -> list:
        """A telemetry stream for one exchange: traced when a tracer is
        set, else a plain list."""
        driver = self.driver
        tracer = driver.tracer
        if tracer is not None:
            return tracer.stream(driver.node_id, kind, key)
        return []

    def mark(self, kind: str, key, name: str, **detail) -> None:
        """Annotate an exchange span (no-op without a tracer)."""
        driver = self.driver
        tracer = driver.tracer
        if tracer is not None:
            tracer.mark(driver.node_id, kind, key, name, **detail)

    # -- events ---------------------------------------------------------

    def lacks(self, root: bytes) -> bool:
        """Whether an ``inv`` or a full block for ``root`` is news."""
        driver = self.driver
        return (driver.mempool is not None
                and root not in driver.blocks
                and root not in self.settled)

    def on_inv(self, peer: int, root: bytes) -> bool:
        """``peer`` announced ``root``: register it; the first announcer
        opens the fetch.  ``False`` when the inv is not news."""
        if not self.lacks(root):
            return False
        fetch = self.fetches.get(root)
        if fetch is None:
            fetch = self.fetches[root] = Fetch(
                peer=peer, stage=self.stage, key=root, announcers=[peer])
            self._start(fetch)
        elif peer in fetch.announcers:
            return False
        else:
            fetch.announcers.append(peer)
        return True

    def on_frame(self, peer: int, command: str, root: bytes,
                 message) -> None:
        """An engine frame for ``root`` from ``peer``: a request is
        answered from the root's one serving engine, a reply advances
        the fetch -- or is shed (a late duplicate after a retry, a reply
        from an announcer the fetch left, an exchange not running)."""
        if command not in RECEIVER_STEPS:
            driver = self.driver
            if root in driver.blocks:
                driver.send_action(
                    peer, root, self._serving(root).handle(command, message))
            return
        fetch = self.fetches.get(root)
        if fetch is None or fetch.peer != peer \
                or fetch.stage != STAGE_ENGINE \
                or not fetch.engine.accepts(command):
            self.frames_shed += 1
            return
        self._advance(fetch, fetch.engine.handle(command, message))

    def on_sync_frame(self, peer: int, command: str, nonce: int,
                      message) -> None:
        """A mempool-sync frame from ``peer``: a request goes to the
        ``(peer, nonce)`` serving engine (made only for the opening
        ``getdata``), a reply advances the session by the rule
        :meth:`on_frame` applies to fetches, and the push of H ends the
        sync this node served."""
        driver = self.driver
        if command == "sync_push":
            driver.mempool.add_many(message)
            self.sync_serving.pop((peer, nonce), None)
            return
        step = _STEP_BY_WIRE[command]
        if step in SENDER_STEPS:
            key = (peer, nonce)
            engine = self.sync_serving.get(key)
            if engine is None:
                if step != "getdata":
                    return  # a late frame of a finished or unknown sync
                engine = self.sync_serving[key] = GrapheneSenderEngine(
                    txs=driver.mempool.columns(),
                    config=driver.config,
                    telemetry=self.stream("sync-serve", nonce))
                # A lost push would leak this engine forever; retain a
                # bounded working set instead (an evicted sync restarts
                # through the initiator's ladder).
                prune_oldest(self.sync_serving, SERVING_CAP)
            driver.send_action(peer, nonce, engine.handle(step, message),
                               WIRE_BY_STEP)
            return
        state = self.syncs.get(nonce)
        if state is None or state.done or state.peer != peer \
                or not state.engine.accepts(step):
            self.frames_shed += 1
            return
        self._advance(state, state.engine.handle(step, message))

    def open_sync(self, peer: int) -> int:
        """Open a mempool sync with ``peer`` (the newest
        :data:`TELEMETRY_CAP` sessions are kept); returns its nonce."""
        driver = self.driver
        nonce = next(self._sync_nonces)
        engine = GrapheneReceiverEngine(
            driver.mempool, driver.config, mode="mempool",
            telemetry=self.stream("sync", nonce))
        state = self.syncs[nonce] = SyncState(
            peer=peer, stage=STAGE_ENGINE, key=nonce, engine=engine)
        prune_oldest(self.syncs, TELEMETRY_CAP)
        self._advance(state, engine.start())
        return nonce

    def _advance(self, state: FetchState, action) -> None:
        """Act on the receiver engine's answer in a fetch or a sync:
        send and re-arm, or end the exchange."""
        state.attempts = 0  # progress resets the backoff
        if action.kind is ActionKind.SEND:
            self.driver.send_action(state.peer, state.key, action,
                                    state.wire)
            self.arm(state)
        elif isinstance(state, SyncState):
            self._end_sync(state, action.kind is ActionKind.DONE)
        elif action.kind is ActionKind.FAILED:
            self.decode_failed(state.peer, state.key)
        else:
            self.complete(state.peer, action.block)

    def on_block(self, peer: int, block: Block) -> None:
        """A full block from ``peer``: news is accepted from anyone
        whose body hashes to the header's root."""
        root = block.header.merkle_root
        if not self.lacks(root):
            self.frames_shed += 1
            return
        if not matches_root(block.columns.ids, root):
            raise ProtocolFailure(
                f"full block from {self.driver.peer_label(peer)} does not "
                f"hash to its header's Merkle root {root.hex()[:12]}")
        fetch = self.fetches.get(root)
        self.complete(peer, block, fetch is not None and fetch.peer == peer
                      and fetch.stage == STAGE_FULLBLOCK)

    def decode_failed(self, peer: int, root: bytes) -> None:
        """The exchange with ``peer`` will not decode (the engines gave
        up, or a baseline's candidate failed its Merkle check): climb to
        the full-block rung at once."""
        fetch = self.fetches.get(root)
        if fetch is None or fetch.peer != peer \
                or fetch.stage == STAGE_FULLBLOCK:
            self.frames_shed += 1
            return
        self.relay_failures += 1
        self._escalate(fetch, "decode_failed")

    def progress(self, root: bytes) -> None:
        """A driver-side step of the fetch of ``root`` advanced (a
        simulated Compact Blocks repair): reset the backoff, re-arm."""
        fetch = self.fetches.get(root)
        if fetch is not None:
            fetch.attempts = 0
            self.arm(fetch)

    def on_peer_gone(self, peer: int) -> None:
        """``peer`` went away: every fetch at it fails over now."""
        driver = self.driver
        for fetch in [f for f in self.fetches.values() if f.peer == peer]:
            logger.info("%s: announcer %s vanished mid-fetch of %s; "
                        "failing over", driver.node_id,
                        driver.peer_label(peer), fetch.key.hex()[:12])
            self._fail_over(fetch)

    def complete(self, peer: int, block: Block,
                 via_fullblock: bool = False) -> None:
        """``block`` is here, from ``peer``: end its fetch and hand the
        block to the driver."""
        driver = self.driver
        root = block.header.merkle_root
        fetch = self._close(root)
        self.settled[root] = True
        prune_oldest(self.settled, TELEMETRY_CAP)
        if root in self.relay_telemetry:
            detail = {"origin": driver.peer_label(peer)}
            if via_fullblock:
                detail["via"] = "fullblock"
            self.mark("relay", root, "done", **detail)
        if fetch is not None:
            fetch.via_fullblock = via_fullblock
        driver.fetch_finished(peer, block, fetch)

    # -- timers ---------------------------------------------------------

    def arm(self, state: FetchState) -> None:
        """(Re)arm the timer of a fetch or sync session at its backoff."""
        driver = self.driver
        self.cancel(state)
        state.timer = driver.call_later(
            driver.recovery.timeout_for(state.attempts),
            lambda: self._on_timer(state))

    def cancel(self, state: FetchState) -> None:
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None

    def cancel_timers(self) -> None:
        for state in [*self.fetches.values(), *self.syncs.values()]:
            self.cancel(state)

    def _on_timer(self, state: FetchState) -> None:
        state.timer = None
        if isinstance(state, SyncState):
            if self.syncs.get(state.key) is state and not state.done:
                self._sync_timeout(state)
        elif self.fetches.get(state.key) is state:
            self._fetch_timeout(state)

    # -- the ladder -----------------------------------------------------

    def _fetch_timeout(self, fetch: Fetch) -> None:
        """The fetch's timer fired: resend on the current rung while its
        budget lasts, then escalate from the exchange (rung 1 -> 2) or
        fail over from the full block (rung 2 -> 3)."""
        driver = self.driver
        if not driver.is_alive(fetch.peer):
            # The socket is gone and its read loop has not said so yet.
            self._fail_over(fetch)
            return
        self.relay_timeouts += 1
        # The engine records its own timeout and retry while it drives
        # the exchange; past it, the full-block rung's events are ours.
        engine = fetch.engine if fetch.stage == STAGE_ENGINE else None
        if engine is not None:
            engine.note_timeout()
        elif fetch.stream is not None:
            fetch.stream.append(fullblock_event("timeout"))
        if fetch.attempts >= driver.recovery.max_retries:
            if fetch.stage == STAGE_FULLBLOCK:
                self._fail_over(fetch)
            else:
                self._escalate(fetch, "timeout")
            return
        fetch.attempts += 1
        self.relay_retries += 1
        if engine is not None:
            driver.send_action(fetch.peer, fetch.key,
                               engine.reemit_last_request())
        else:
            full = fetch.stage == STAGE_FULLBLOCK
            if full and fetch.stream is not None:
                fetch.stream.append(fullblock_event("retry"))
            driver.request_block(fetch.peer, fetch.key, full)
        self.arm(fetch)

    def _sync_timeout(self, state: SyncState) -> None:
        """The sync's timer fired: resend to the responder while the
        budget lasts and it is alive, else abandon -- a sync has one
        responder and no full-block rung.  A gone responder's timeout
        is counted; no retry is."""
        driver = self.driver
        self.relay_timeouts += 1
        state.engine.note_timeout()
        if state.attempts < driver.recovery.max_retries \
                and driver.is_alive(state.peer):
            state.attempts += 1
            self.relay_retries += 1
            driver.send_action(state.peer, state.key,
                               state.engine.reemit_last_request(),
                               WIRE_BY_STEP)
            self.arm(state)
            return
        logger.info("%s: mempool sync %d with %s abandoned after %d "
                    "resends", driver.node_id, state.key,
                    driver.peer_label(state.peer), state.attempts)
        self.mark("sync", state.key, "abandon", attempts=state.attempts)
        state.done = True

    def _end_sync(self, state: SyncState, succeeded: bool) -> None:
        """The session's engine is DONE -- adopt the reconciled view,
        push H -- or FAILED to decode."""
        driver = self.driver
        self.cancel(state)
        state.done = True
        label = driver.peer_label(state.peer)
        if not succeeded:
            logger.info("mempool sync %d with %s failed to decode",
                        state.key, label)
            self.mark("sync", state.key, "failed", why="decode")
            return
        _, h_txs, event = adopt_reconciled(driver.mempool, state.engine)
        driver.push_txs(state.peer, state.key, h_txs, event)
        state.succeeded = True
        self.mark("sync", state.key, "done", pushed=len(h_txs))
        logger.debug("mempool sync %d with %s complete: pushed %d txns",
                     state.key, label, len(h_txs))

    def _escalate(self, fetch: Fetch, why: str) -> None:
        """Rung 2: stop nursing the exchange and request the block."""
        driver = self.driver
        label = driver.peer_label(fetch.peer)
        logger.info("%s: fetch of %s from %s %s; escalating to full block",
                    driver.node_id, fetch.key.hex()[:12], label,
                    "would not decode" if why == "decode_failed"
                    else "stalled")
        self.mark("relay", fetch.key, "escalate", why=why, peer=label)
        fetch.escalated = True
        fetch.stage, fetch.attempts = STAGE_FULLBLOCK, 0
        if fetch.stream is not None:
            fetch.stream.append(fullblock_event())
        driver.request_block(fetch.peer, fetch.key, True)
        self.arm(fetch)

    def _fail_over(self, fetch: Fetch) -> None:
        """Rung 3: restart at the first live announcer not yet tried, in
        arrival order, or abandon."""
        driver = self.driver
        fetch.tried.add(fetch.peer)
        alternate = next((peer for peer in fetch.announcers
                          if peer not in fetch.tried
                          and driver.is_alive(peer)), None)
        if alternate is None:
            logger.warning("%s: abandoning fetch of %s (every announcer "
                           "exhausted); a fresh inv will restart it",
                           driver.node_id, fetch.key.hex()[:12])
            self.mark("relay", fetch.key, "abandon")
            self._close(fetch.key)
            driver.fetch_finished(None, None, fetch)
            return
        fetch.peer, fetch.stage, fetch.attempts = alternate, self.stage, 0
        label = driver.peer_label(fetch.peer)
        logger.info("%s: failing over fetch of %s to %s",
                    driver.node_id, fetch.key.hex()[:12], label)
        self.mark("relay", fetch.key, "failover", to=label)
        fetch.failovers += 1
        self._start(fetch)

    def _start(self, fetch: Fetch) -> None:
        """(Re)start the exchange at ``fetch.peer`` -- the first attempt
        and every failover: a fresh engine on the root's one stream."""
        driver = self.driver
        root = fetch.key
        if fetch.stage == STAGE_REQUEST:
            driver.request_block(fetch.peer, root, False)
        else:
            stream = self.relay_telemetry.get(root)
            if stream is None:
                stream = self.relay_telemetry[root] = \
                    self.stream("relay", root)
            prune_oldest(self.relay_telemetry, TELEMETRY_CAP)
            fetch.stream, fetch.attempt_start = stream, len(stream)
            fetch.engine = GrapheneReceiverEngine(
                driver.mempool, driver.config, telemetry=stream)
            driver.send_action(fetch.peer, root, fetch.engine.start())
        self.arm(fetch)

    def _close(self, root: bytes) -> Optional[Fetch]:
        fetch = self.fetches.pop(root, None)
        if fetch is not None:
            self.cancel(fetch)
        return fetch

    def _serving(self, root: bytes) -> GrapheneSenderEngine:
        engine = self.serving.get(root)
        if engine is None:
            driver = self.driver
            blocks = driver.blocks
            # An engine lives no longer than its block: one whose root
            # left ``blocks`` is unreachable and would only pin the
            # block's transactions.
            for stale in self.serving.keys() - blocks.keys():
                del self.serving[stale]
            engine = self.serving[root] = GrapheneSenderEngine(
                blocks[root], driver.config,
                telemetry=self.stream("serve", root))
            prune_oldest(self.serving, SERVING_CAP)
        return engine


class HostViews:
    """Read-only views of a driver's :class:`RelayHost`, under the same
    names on :class:`~repro.net.node.Node` and
    :class:`~repro.net.peer.manager.PeerManager`."""

    host: RelayHost

    @property
    def pending_fetches(self) -> int:
        """In-flight block fetches."""
        return len(self.host.fetches)

    @property
    def announced_roots(self) -> Dict[bytes, List[int]]:
        """Root -> announcer handles in arrival order, per fetch."""
        return {root: list(fetch.announcers)
                for root, fetch in self.host.fetches.items()}

    @property
    def serving_engines(self) -> Dict[bytes, GrapheneSenderEngine]:
        """Root -> the one sender engine every peer is answered from."""
        return dict(self.host.serving)

    @property
    def sync_sessions(self) -> Dict[int, SyncState]:
        """Nonce -> mempool-sync session this node initiated."""
        return dict(self.host.syncs)

    relay_telemetry = property(lambda self: self.host.relay_telemetry,
                               doc="Root -> telemetry stream of its relay.")
    relay_timeouts = property(lambda self: self.host.relay_timeouts)
    relay_retries = property(lambda self: self.host.relay_retries)
    relay_failures = property(lambda self: self.host.relay_failures)
    frames_shed = property(lambda self: self.host.frames_shed)
