"""RelayHost: one relay host, two clocks.

Everything a node keeps about blocks in flight is kept here, once and
without I/O, for both drivers -- the simulator's
:class:`~repro.net.node.Node` and the sockets'
:class:`~repro.net.peer.manager.PeerManager`:

* the **announcer registry**: every peer that announced a root, in
  arrival order -- the failover schedule (PROTOCOL.md §5.3);
* the **fetch registry**: one :class:`Fetch` per root, holding the
  ladder's state, the receiver engine of the current attempt and the
  root's telemetry stream (streams outlive their fetch, up to
  ``telemetry_cap``);
* the **ladder dispatch**: the only caller of
  :func:`~repro.net.recovery.on_timeout`,
  :func:`~repro.net.recovery.escalate` and
  :func:`~repro.net.recovery.fail_over`;
* the **serving registry**: one sender engine per held root, answering
  every peer, dropped once its root leaves the driver's ``blocks`` and
  capped at ``serving_cap``;
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
import zlib
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Protocol

from repro.chain.block import Block
from repro.chain.merkle import merkle_root_packed
from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
    RECEIVER_STEPS,
    SENDER_STEPS,
)
from repro.core.mempool_sync import adopt_reconciled
from repro.core.telemetry import AggregateRecorder, EventRecorder
from repro.errors import ProtocolFailure
from repro.net.recovery import (
    ABANDON,
    ESCALATE,
    FetchState,
    RESEND,
    STAGE_ENGINE,
    STAGE_FULLBLOCK,
    STAGE_REQUEST,
    escalate,
    fail_over,
    on_timeout,
    prune_oldest,
)

logger = logging.getLogger(__name__)

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


class Driver(Protocol):
    """The verbs a :class:`RelayHost` acts through.

    A driver also carries the facts the host reads at the moment of
    use, so it may swap any of them between exchanges: ``node_id``,
    ``mempool`` (``None`` on a node that never fetches), ``config``,
    ``recovery`` (the :class:`~repro.net.recovery.RecoveryPolicy`),
    ``tracer`` and ``blocks`` (root -> held block).
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
    :class:`~repro.net.recovery.FetchState` (``peer`` is the responder's
    handle, ``key`` the nonce) plus the session's own facts."""

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
    request otherwise.  ``aggregate`` keeps streams as running totals
    only (see :class:`~repro.core.telemetry.AggregateRecorder`).
    """

    def __init__(self, driver: Driver, stage: str = STAGE_ENGINE,
                 aggregate: bool = False):
        self.driver = driver
        self.stage = stage
        self.aggregate = aggregate
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
        #: ends so runs can fold it (newest ``telemetry_cap`` roots).
        self.relay_telemetry: dict = {}
        #: Roots that arrived here (newest ``telemetry_cap``): with the
        #: driver's ``blocks``, what no ``inv`` or block reopens.
        self.settled: dict = {}
        self.frames_shed = 0
        self.relay_timeouts = 0
        self.relay_retries = 0
        self.relay_failures = 0

    # -- observability --------------------------------------------------

    def stream(self, kind: str, key) -> list:
        """A telemetry stream for one exchange, traced when a tracer is
        set, else a recorder (running totals only when ``aggregate``)."""
        tracer = self.driver.tracer
        if tracer is not None:
            return tracer.stream(self.driver.node_id, kind, key)
        return AggregateRecorder() if self.aggregate else EventRecorder()

    def mark(self, kind: str, key, name: str, **detail) -> None:
        """Annotate an exchange span (no-op without a tracer)."""
        tracer = self.driver.tracer
        if tracer is not None:
            tracer.mark(self.driver.node_id, kind, key, name, **detail)

    # -- events ---------------------------------------------------------

    def lacks(self, root: bytes) -> bool:
        """Whether an ``inv`` or a full block for ``root`` is news."""
        return (self.driver.mempool is not None
                and root not in self.driver.blocks
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
            if root in self.driver.blocks:
                self.driver.send_action(
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
        if command == "sync_push":
            self.driver.mempool.add_many(message)
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
                    txs=self.driver.mempool.columns(),
                    config=self.driver.config,
                    telemetry=self.stream("sync-serve", nonce))
                # A lost push would leak this engine forever; retain a
                # bounded working set instead (an evicted sync restarts
                # through the initiator's ladder).
                prune_oldest(self.sync_serving,
                             self.driver.recovery.serving_cap)
            self.driver.send_action(peer, nonce, engine.handle(step, message),
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
        ``telemetry_cap`` sessions are kept); returns its nonce."""
        nonce = next(self._sync_nonces)
        engine = GrapheneReceiverEngine(
            self.driver.mempool, self.driver.config, mode="mempool",
            telemetry=self.stream("sync", nonce))
        state = self.syncs[nonce] = SyncState(
            peer=peer, stage=STAGE_ENGINE, key=nonce, engine=engine)
        prune_oldest(self.syncs, self.driver.recovery.telemetry_cap)
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
        if merkle_root_packed(block.columns.ids) != root:
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
        for fetch in [f for f in self.fetches.values() if f.peer == peer]:
            logger.info("%s: announcer %s vanished mid-fetch of %s; "
                        "failing over", self.driver.node_id,
                        self.driver.peer_label(peer), fetch.key.hex()[:12])
            self._fail_over(fetch)

    def complete(self, peer: int, block: Block,
                 via_fullblock: bool = False) -> None:
        """``block`` is here, from ``peer``: end its fetch and hand the
        block to the driver."""
        root = block.header.merkle_root
        fetch = self._close(root)
        self.settled[root] = True
        prune_oldest(self.settled, self.driver.recovery.telemetry_cap)
        if root in self.relay_telemetry:
            detail = {"origin": self.driver.peer_label(peer)}
            if via_fullblock:
                detail["via"] = "fullblock"
            self.mark("relay", root, "done", **detail)
        if fetch is not None:
            fetch.via_fullblock = via_fullblock
        self.driver.fetch_finished(peer, block, fetch)

    # -- timers ---------------------------------------------------------

    def arm(self, state: FetchState) -> None:
        """(Re)arm the timer of a fetch or sync session at its backoff."""
        self.cancel(state)
        policy = self.driver.recovery
        if policy.enabled:
            state.timer = self.driver.call_later(
                policy.timeout_for(state.attempts),
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
        if not self.driver.is_alive(fetch.peer):
            # The socket is gone and its read loop has not said so yet.
            self._fail_over(fetch)
            return
        engine = fetch.engine if fetch.stage == STAGE_ENGINE else None
        rung = on_timeout(fetch, self.driver.recovery, self, engine,
                          fetch.stream)
        if rung is ESCALATE:
            self._escalate(fetch, "timeout")
        elif rung is RESEND:
            if engine is not None:
                self.driver.send_action(fetch.peer, fetch.key,
                                        engine.reemit_last_request())
            else:
                self.driver.request_block(
                    fetch.peer, fetch.key, fetch.stage == STAGE_FULLBLOCK)
            self.arm(fetch)
        else:
            self._fail_over(fetch)

    def _sync_timeout(self, state: SyncState) -> None:
        resends = state.attempts
        if not self.driver.is_alive(state.peer):
            # A gone peer has no resends left: the timeout is counted,
            # no retry is.
            state.attempts = self.driver.recovery.max_retries
        # A sync has no full-block rung and one responder, so any rung
        # but RESEND abandons.
        if on_timeout(state, self.driver.recovery, self, state.engine,
                      None) is not RESEND:
            logger.info("%s: mempool sync %d with %s abandoned after %d "
                        "resends", self.driver.node_id, state.key,
                        self.driver.peer_label(state.peer), resends)
            self.mark("sync", state.key, "abandon", attempts=resends)
            state.done = True
            return
        self.driver.send_action(state.peer, state.key,
                                state.engine.reemit_last_request(),
                                WIRE_BY_STEP)
        self.arm(state)

    def _end_sync(self, state: SyncState, succeeded: bool) -> None:
        """The session's engine is DONE -- adopt the reconciled view,
        push H -- or FAILED to decode."""
        self.cancel(state)
        state.done = True
        label = self.driver.peer_label(state.peer)
        if not succeeded:
            logger.info("mempool sync %d with %s failed to decode",
                        state.key, label)
            self.mark("sync", state.key, "failed", why="decode")
            return
        _, h_txs, event = adopt_reconciled(self.driver.mempool,
                                           state.engine)
        self.driver.push_txs(state.peer, state.key, h_txs, event)
        state.succeeded = True
        self.mark("sync", state.key, "done", pushed=len(h_txs))
        logger.debug("mempool sync %d with %s complete: pushed %d txns",
                     state.key, label, len(h_txs))

    def _escalate(self, fetch: Fetch, why: str) -> None:
        """Rung 2: stop nursing the exchange and request the block."""
        label = self.driver.peer_label(fetch.peer)
        logger.info("%s: fetch of %s from %s %s; escalating to full block",
                    self.driver.node_id, fetch.key.hex()[:12], label,
                    "would not decode" if why == "decode_failed"
                    else "stalled")
        self.mark("relay", fetch.key, "escalate", why=why, peer=label)
        fetch.escalated = True
        escalate(fetch, fetch.stream)
        self.driver.request_block(fetch.peer, fetch.key, True)
        self.arm(fetch)

    def _fail_over(self, fetch: Fetch) -> None:
        """Rung 3: restart at the next live announcer, or abandon."""
        live = (p for p in fetch.announcers if self.driver.is_alive(p))
        if fail_over(fetch, live, self.stage) is ABANDON:
            logger.warning("%s: abandoning fetch of %s (every announcer "
                           "exhausted); a fresh inv will restart it",
                           self.driver.node_id, fetch.key.hex()[:12])
            self.mark("relay", fetch.key, "abandon")
            self._close(fetch.key)
            self.driver.fetch_finished(None, None, fetch)
            return
        label = self.driver.peer_label(fetch.peer)
        logger.info("%s: failing over fetch of %s to %s",
                    self.driver.node_id, fetch.key.hex()[:12], label)
        self.mark("relay", fetch.key, "failover", to=label)
        fetch.failovers += 1
        self._start(fetch)

    def _start(self, fetch: Fetch) -> None:
        """(Re)start the exchange at ``fetch.peer`` -- the first attempt
        and every failover: a fresh engine on the root's one stream."""
        root = fetch.key
        if fetch.stage == STAGE_REQUEST:
            self.driver.request_block(fetch.peer, root, False)
        else:
            stream = self.relay_telemetry.get(root)
            if stream is None:
                stream = self.relay_telemetry[root] = \
                    self.stream("relay", root)
            prune_oldest(self.relay_telemetry,
                         self.driver.recovery.telemetry_cap)
            fetch.stream, fetch.attempt_start = stream, len(stream)
            fetch.engine = GrapheneReceiverEngine(
                self.driver.mempool, self.driver.config, telemetry=stream)
            self.driver.send_action(fetch.peer, root, fetch.engine.start())
        self.arm(fetch)

    def _close(self, root: bytes) -> Optional[Fetch]:
        fetch = self.fetches.pop(root, None)
        if fetch is not None:
            self.cancel(fetch)
        return fetch

    def _serving(self, root: bytes) -> GrapheneSenderEngine:
        engine = self.serving.get(root)
        if engine is None:
            blocks = self.driver.blocks
            # An engine lives no longer than its block: one whose root
            # left ``blocks`` is unreachable and would only pin the
            # block's transactions.
            for stale in self.serving.keys() - blocks.keys():
                del self.serving[stale]
            engine = self.serving[root] = GrapheneSenderEngine(
                blocks[root], self.driver.config,
                telemetry=self.stream("serve", root))
            prune_oldest(self.serving, self.driver.recovery.serving_cap)
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
