"""PeerManager: the one socket path, and the ladder's asyncio driver.

Every frame this package reads off a socket is read here, every
sender/receiver engine that runs behind a socket is held here, and the
recovery ladder of :mod:`repro.net.recovery` has exactly one asyncio
mapping, here:

* :class:`PeerManager` holds *many* connections in one event loop --
  a dial list of outbound peers (:meth:`PeerManager.connect`) and an
  optional listener for inbound ones (:meth:`PeerManager.listen`) --
  and is symmetric: every connection both serves the blocks this node
  holds and fetches the blocks its peers announce.
* Exchanges are demultiplexed by the 32-byte Merkle root the engine
  frames already carry (`root | message`, PROTOCOL.md §4.3): fetches
  live in a per-root registry (several roots in flight on one
  connection), and so do serving engines: one per held block answers
  every connection, as :class:`~repro.net.node.Node` does (a sender
  engine is stateless per request, so the opening, its encoded blob
  and the Protocol 3 symbol stream are built once per block).
* Every ``inv`` is recorded in a per-root *announcer registry* in
  arrival order; only the first opens an exchange, duplicates across
  connections are suppressed.  That registry is what the ladder's
  third rung walks: re-emit with backoff, escalate to a full-block
  ``getdata_block``, then **fail over to the next announcer on a
  different connection** (fresh engine, same telemetry stream --
  exactly the simulator's failover), and abandon with full state GC
  once every announcer has been tried.  A connection dying mid-fetch
  fails over immediately.
* :class:`BlockServer` and :func:`fetch_block` are the two one-line
  uses of a manager that the point-to-point call sites want: a
  listener that serves one block, and a one-entry dial list that
  returns its first fetch.

The ladder's decisions, counters and recovery events come from
:mod:`repro.net.recovery`, shared with the simulator's nodes; this
module only sends frames, arms ``loop.call_later``, looks up the next
live announcer and marks the relay span (``escalate`` / ``failover`` /
``abandon`` / ``done``).  Only engines and the ladder append to
streams; ``inv``/handshake/envelope bytes stay out of the analytic
accounting.  :attr:`PeerFetchResult.surviving_events` is the slice of
the stream produced by the attempt that actually completed, which is
byte-identical to the loopback relay of the same scenario -- pinned by
``tests/test_peer_socket.py``, ``tests/test_peer_mesh.py`` and the
``make smoke-socket`` / ``make smoke-mesh`` CI stages.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.merkle import merkle_root
from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
    RECEIVER_STEPS,
    SENDER_STEPS,
)
from repro.core.params import GrapheneConfig
from repro.core.sizing import CostBreakdown
from repro.core.telemetry import EventRecorder
from repro.errors import ProtocolFailure, ReproError
from repro.net.peer.peer import PeerConnection, PeerFetchResult
from repro.net.peer.protocol import (
    decode_full_block,
    decode_inv,
    encode_full_block,
    encode_inv,
    split_keyed,
)
from repro.net.peer.transport import AsyncioTransport
from repro.net.recovery import (
    ABANDON,
    ESCALATE,
    FetchState,
    RESEND,
    RecoveryPolicy,
    STAGE_ENGINE,
    STAGE_FULLBLOCK,
    escalate,
    fail_over,
    on_timeout,
    prune_oldest,
)

logger = logging.getLogger(__name__)

#: A fetch over many sockets and a fetch over one report the same facts.
MeshFetchResult = PeerFetchResult


@dataclass
class MeshConnection:
    """One live connection of the group, inbound or outbound."""

    cid: int
    conn: PeerConnection
    outbound: bool
    address: str  # "host:port" we dialed, or "inbound"
    task: Optional[asyncio.Task] = None
    alive: bool = True

    @property
    def label(self) -> str:
        """The peer's node id once handshaken, else the dial address."""
        info = self.conn.peer_info
        return info.node_id if info is not None else self.address


@dataclass
class _SocketFetch(FetchState):
    """The ladder state of one fetch (``peer`` is the serving
    connection's id) plus what only a socket fetch carries: the live
    engine and transport, and the facts its result reports."""

    root: bytes = b""
    stream: Optional[list] = None  # telemetry, reused across failovers
    engine: Optional[GrapheneReceiverEngine] = None
    transport: Optional[AsyncioTransport] = None
    generation: int = 0          # stale-timer guard
    attempt_start: int = 0       # stream index where this attempt began
    wire_overhead: int = 0       # overhead of *retired* transports
    relay_timeouts: int = 0      # counted by the ladder, per fetch
    relay_retries: int = 0
    failovers: int = 0
    escalated: bool = False
    abandoned: bool = False


class PeerManager:
    """Concurrent peer group: listener + dial list in one event loop.

    A manager both **serves** (:meth:`serve_block` registers a block;
    every connection gets an ``inv`` and the block's one sender
    engine answers their requests) and **fetches** (an ``inv``
    for an unknown root opens a receiver exchange under the recovery
    ladder; completed fetches surface through :meth:`fetch_next`).
    Give it a mempool to fetch with; a pure server can omit it.

    ``drop`` is a deterministic test knob -- a ``{command: count}`` map
    of inbound frames to ignore (no response) -- used by the
    ladder/failover tests and the docs walkthroughs to stall a peer
    without a lossy network.
    """

    def __init__(self, node_id: str = "mesh",
                 mempool: Optional[Mempool] = None,
                 config: Optional[GrapheneConfig] = None,
                 policy: Optional[RecoveryPolicy] = None,
                 tracer=None,
                 drop: Optional[dict] = None):
        self.node_id = node_id
        self.mempool = mempool
        self.config = config or GrapheneConfig()
        self.policy = policy or RecoveryPolicy()
        self.tracer = tracer
        self.drop = dict(drop or {})
        #: Blocks this node serves, by Merkle root.
        self.blocks: Dict[bytes, Block] = {}
        self.connections: Dict[int, MeshConnection] = {}
        self.port: Optional[int] = None
        #: Dedup / demux telemetry for tests and the CLI.
        self.invs_seen = 0
        self.inv_duplicates = 0
        self.frames_shed = 0
        #: Inbound connections that have ended (a failed handshake
        #: counts: the peer was turned away, which is service too).
        self.connections_served = 0
        self._cids = itertools.count()
        self._listener: Optional[asyncio.AbstractServer] = None
        self._closing = False
        self._announcers: Dict[bytes, List[int]] = {}
        self._fetches: Dict[bytes, _SocketFetch] = {}
        self._tx_engines: Dict[bytes, GrapheneSenderEngine] = {}
        self._fetched_roots: Dict[bytes, bool] = {}
        self._completed: deque = deque()
        self._done_event = asyncio.Event()
        self._served_event = asyncio.Event()

    # -- introspection (tests, CLI) -------------------------------------

    @property
    def pending_fetches(self) -> int:
        """In-flight fetch exchanges (recovery state still live)."""
        return len(self._fetches)

    @property
    def announced_roots(self) -> Dict[bytes, List[int]]:
        """Snapshot of the announcer registry (root -> cids, in order)."""
        return {root: list(cids) for root, cids in self._announcers.items()}

    @property
    def serving_engines(self) -> Dict[bytes, GrapheneSenderEngine]:
        """Snapshot of the serving registry (root -> the one sender
        engine every connection is answered from)."""
        return dict(self._tx_engines)

    # -- lifecycle ------------------------------------------------------

    async def listen(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Accept inbound peers; returns the bound port."""
        self._listener = await asyncio.start_server(
            self._on_inbound, host, port)
        self.port = self._listener.sockets[0].getsockname()[1]
        return self.port

    async def connect(self, host: str, port: int) -> int:
        """Dial an outbound peer; returns its connection id."""
        reader, writer = await asyncio.open_connection(host, port)
        conn = PeerConnection(reader, writer, self.node_id)
        mc = MeshConnection(cid=next(self._cids), conn=conn, outbound=True,
                            address=f"{host}:{port}")
        try:
            await conn.handshake()
        except BaseException:
            await conn.close()
            raise
        self.connections[mc.cid] = mc
        self._announce_held_blocks(mc)
        mc.task = asyncio.ensure_future(self._run_connection(mc))
        return mc.cid

    def serve_block(self, block: Block) -> bytes:
        """Hold ``block`` for serving and announce it to every peer."""
        root = block.header.merkle_root
        self.blocks[root] = block
        for mc in self.connections.values():
            if mc.alive:
                mc.conn.send("inv", encode_inv(root))
        return root

    async def fetch_next(self, timeout: Optional[float] = None) \
            -> PeerFetchResult:
        """Next completed fetch (success or abandonment), FIFO order."""
        async def _next() -> PeerFetchResult:
            while not self._completed:
                self._done_event.clear()
                await self._done_event.wait()
            return self._completed.popleft()

        if timeout is None:
            return await _next()
        return await asyncio.wait_for(_next(), timeout)

    async def wait_served(self, count: int = 1) -> None:
        """Block until ``count`` inbound connections have ended."""
        while self.connections_served < count:
            self._served_event.clear()
            await self._served_event.wait()

    async def close(self) -> None:
        """Tear the group down: listener, timers, every connection."""
        self._closing = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        for state in self._fetches.values():
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None
        tasks = [mc.task for mc in list(self.connections.values())
                 if mc.task is not None]
        for mc in list(self.connections.values()):
            mc.alive = False
            await mc.conn.close()
        if tasks:
            # EOF from the closed writers runs each loop's finally block.
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- connection plumbing --------------------------------------------

    def _announce_held_blocks(self, mc: MeshConnection) -> None:
        for root in self.blocks:
            mc.conn.send("inv", encode_inv(root))

    async def _on_inbound(self, reader, writer) -> None:
        conn = PeerConnection(reader, writer, self.node_id)
        mc = MeshConnection(cid=next(self._cids), conn=conn,
                            outbound=False, address="inbound")
        mc.task = asyncio.current_task()
        try:
            try:
                await conn.handshake()
            except (ReproError, ConnectionError, OSError,
                    asyncio.TimeoutError) as exc:
                logger.warning("%s: inbound handshake failed: %s",
                               self.node_id, exc)
                await conn.close()
                return
            self.connections[mc.cid] = mc
            self._announce_held_blocks(mc)
            await self._run_connection(mc)
        finally:
            self.connections_served += 1
            self._served_event.set()

    async def _run_connection(self, mc: MeshConnection) -> None:
        try:
            while True:
                frame = await mc.conn.read_frame()
                if frame is None:
                    break
                await self._dispatch(mc, *frame)
        except ReproError as exc:
            # Envelope, handshake-discipline and engine/codec errors
            # alike: hostile bytes raise somewhere in the family.
            logger.warning("%s: dropping misbehaving peer %s: %s",
                           self.node_id, mc.label, exc)
        except (ConnectionError, OSError) as exc:
            logger.info("%s: connection to %s lost: %s", self.node_id,
                        mc.label, exc)
        finally:
            mc.alive = False
            await mc.conn.close()
            self._on_disconnect(mc)

    def _on_disconnect(self, mc: MeshConnection) -> None:
        self.connections.pop(mc.cid, None)
        if self._closing:
            return
        # A dead announcer is a lost cause immediately: no point waiting
        # out the backoff rungs on a socket the kernel already closed.
        for state in [s for s in self._fetches.values()
                      if s.peer == mc.cid]:
            logger.info("%s: announcer %s vanished mid-fetch of %s; "
                        "failing over", self.node_id, mc.label,
                        state.root.hex()[:12])
            self._failover(state)

    def _should_drop(self, command: str) -> bool:
        remaining = self.drop.get(command, 0)
        if remaining > 0:
            self.drop[command] = remaining - 1
            logger.info("%s: dropping %r (%d more to drop)", self.node_id,
                        command, remaining - 1)
            return True
        return False

    # -- frame demultiplexing -------------------------------------------

    async def _dispatch(self, mc: MeshConnection, command: str,
                        payload: bytes) -> None:
        if self._should_drop(command):
            return
        if command == "inv":
            self._on_inv(mc, decode_inv(payload))
        elif command in RECEIVER_STEPS:
            await self._on_receiver_frame(mc, command, payload)
        elif command in SENDER_STEPS:
            await self._on_sender_frame(mc, command, payload)
        elif command == "getdata_block":
            await self._on_getdata_block(mc, decode_inv(payload))
        elif command == "block":
            self._on_full_block(mc, payload)
        # anything else: tolerated and ignored, like bitcoind

    def _on_inv(self, mc: MeshConnection, root: bytes) -> None:
        self.invs_seen += 1
        if self.mempool is None:
            return  # a pure server never fetches: nothing to register
        if root in self.blocks or root in self._fetched_roots:
            self.inv_duplicates += 1
            return
        sources = self._announcers.setdefault(root, [])
        if mc.cid in sources:
            self.inv_duplicates += 1
            return
        # Register every announcer, in arrival order: that order is the
        # failover schedule (PROTOCOL.md §5.3).
        sources.append(mc.cid)
        if root not in self._fetches:
            self._begin_fetch(root, mc)

    async def _on_receiver_frame(self, mc: MeshConnection, command: str,
                                 payload) -> None:
        root, message = split_keyed(payload)
        state = self._fetches.get(root)
        if state is None or state.peer != mc.cid \
                or state.stage != STAGE_ENGINE \
                or not state.engine.accepts(command):
            # A late duplicate from a retransmission, a frame from an
            # announcer we failed away from, or an exchange we are not
            # running: shed it here, exactly where the simulated nodes
            # shed theirs.
            self.frames_shed += 1
            return
        action = state.engine.handle(command, message)
        state.attempts = 0  # progress resets the backoff ladder
        if action.kind is ActionKind.SEND:
            state.transport.deliver(action)
            self._arm_timer(state)
            await mc.conn.drain()
        elif action.kind is ActionKind.FAILED:
            # Even Protocol 2 could not complete: same escalation the
            # simulated nodes take on a decode failure.
            self._escalate(state, mc, why="decode_failed")
            await mc.conn.drain()
        else:
            self._mark(root, "done")
            self._finish(state, success=True, txs=action.txs,
                         block=action.block, via_fullblock=False)

    async def _on_sender_frame(self, mc: MeshConnection, command: str,
                               payload) -> None:
        root, message = split_keyed(payload)
        if root not in self.blocks:
            return  # exchange we are not serving
        action = self._serving_engine(root).handle(command, message)
        AsyncioTransport(mc.conn.writer, root).deliver(action)
        await mc.conn.drain()

    async def _on_getdata_block(self, mc: MeshConnection,
                                root: bytes) -> None:
        block = self.blocks.get(root)
        if block is not None:
            mc.conn.send("block", encode_full_block(block))
            await mc.conn.drain()

    def _on_full_block(self, mc: MeshConnection, payload) -> None:
        block = decode_full_block(payload)
        root = block.header.merkle_root
        state = self._fetches.get(root)
        if state is None or state.peer != mc.cid \
                or state.stage != STAGE_FULLBLOCK:
            self.frames_shed += 1  # unsolicited full block: ignore
            return
        # The header only *claims* the awaited root; hold the body to
        # it, as the engines' DONE path does through validated_order.
        if merkle_root(block.txids) != root:
            raise ProtocolFailure(
                f"full block from {mc.label} does not hash to its "
                f"header's Merkle root {root.hex()[:12]}")
        self._mark(root, "done", via="fullblock")
        self._finish(state, success=True, txs=list(block.txs),
                     block=block, via_fullblock=True)

    def _serving_engine(self, root: bytes) -> GrapheneSenderEngine:
        engine = self._tx_engines.get(root)
        if engine is None:
            # An engine lives no longer than its block: one whose root
            # left ``self.blocks`` is unreachable (its frames are turned
            # away above) and would only pin the block's transactions.
            for stale in self._tx_engines.keys() - self.blocks.keys():
                del self._tx_engines[stale]
            telemetry = self.tracer.stream(self.node_id, "serve", root) \
                if self.tracer is not None else None
            engine = self._tx_engines[root] = GrapheneSenderEngine(
                self.blocks[root], self.config, telemetry=telemetry)
            prune_oldest(self._tx_engines, self.policy.serving_cap)
        return engine

    # -- the fetch ladder -----------------------------------------------

    def _mark(self, root: bytes, name: str, **detail) -> None:
        if self.tracer is not None:
            self.tracer.mark(self.node_id, "relay", root, name, **detail)

    def _begin_fetch(self, root: bytes, mc: MeshConnection) -> None:
        stream = self.tracer.stream(self.node_id, "relay", root) \
            if self.tracer is not None else EventRecorder()
        state = _SocketFetch(peer=mc.cid, stage=STAGE_ENGINE, root=root,
                             stream=stream)
        self._fetches[root] = state
        self._start_attempt(state, mc)

    def _start_attempt(self, state: _SocketFetch,
                       mc: MeshConnection) -> None:
        """(Re)start the engine exchange on ``mc`` -- first attempt and
        every failover: fresh engine, same telemetry stream, exactly
        like the simulator's ``_request_block``."""
        state.attempt_start = len(state.stream)
        if state.transport is not None:
            state.wire_overhead += state.transport.wire_overhead
        state.engine = GrapheneReceiverEngine(self.mempool, self.config,
                                              telemetry=state.stream)
        state.transport = AsyncioTransport(mc.conn.writer, state.root)
        state.transport.deliver(state.engine.start())
        self._arm_timer(state)

    def _arm_timer(self, state: _SocketFetch) -> None:
        if state.timer is not None:
            state.timer.cancel()
        state.generation += 1
        if not self.policy.enabled:
            state.timer = None
            return
        state.timer = asyncio.get_running_loop().call_later(
            self.policy.timeout_for(state.attempts),
            self._on_fetch_timeout, state.root, state.generation)

    def _on_fetch_timeout(self, root: bytes, generation: int) -> None:
        state = self._fetches.get(root)
        if state is None or state.generation != generation:
            return  # stale timer; the exchange moved on
        mc = self.connections.get(state.peer)
        if mc is None or not mc.alive:
            # The socket is gone and its read loop has not said so yet.
            self._failover(state)
            return
        rung = on_timeout(
            state, self.policy, state,
            state.engine if state.stage == STAGE_ENGINE else None,
            state.stream)
        if rung is RESEND:
            if state.stage == STAGE_FULLBLOCK:
                mc.conn.send("getdata_block", encode_inv(root))
            else:
                state.transport.deliver(state.engine.reemit_last_request())
            self._arm_timer(state)
        elif rung is ESCALATE:
            self._escalate(state, mc, why="timeout")
        else:
            self._failover(state)

    def _escalate(self, state: _SocketFetch, mc: MeshConnection,
                  why: str) -> None:
        logger.info("%s: exchange for %s with %s stalled; escalating to "
                    "full block", self.node_id, state.root.hex()[:12],
                    mc.label)
        detail = {"why": why}
        if why == "timeout":
            detail["peer"] = mc.label
        self._mark(state.root, "escalate", **detail)
        state.escalated = True
        escalate(state, state.stream)
        mc.conn.send("getdata_block", encode_inv(state.root))
        self._arm_timer(state)

    def _failover(self, state: _SocketFetch) -> None:
        live = (cid for cid in self._announcers.get(state.root, ())
                if cid in self.connections and self.connections[cid].alive)
        if fail_over(state, live, STAGE_ENGINE) is ABANDON:
            logger.warning("%s: abandoning fetch of %s (every announcer "
                           "exhausted); a fresh inv will restart it",
                           self.node_id, state.root.hex()[:12])
            self._mark(state.root, "abandon")
            state.abandoned = True
            self._finish(state, success=False, txs=None, block=None,
                         via_fullblock=False)
            return
        mc = self.connections[state.peer]
        logger.info("%s: failing over fetch of %s to %s", self.node_id,
                    state.root.hex()[:12], mc.label)
        self._mark(state.root, "failover", to=mc.label)
        state.failovers += 1
        self._start_attempt(state, mc)

    def _finish(self, state: _SocketFetch, success: bool, txs, block,
                via_fullblock: bool) -> None:
        """Resolve a fetch: GC every bit of in-flight state and publish
        the result.  After an abandonment nothing is retained, so a
        fresh ``inv`` from any peer starts the fetch over."""
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
        state.generation += 1  # disarm any already-queued timer callback
        root = state.root
        self._fetches.pop(root, None)
        sources = self._announcers.pop(root, [])
        labels = [self.connections[cid].label if cid in self.connections
                  else f"conn#{cid}" for cid in sources]
        if success:
            self._fetched_roots[root] = True
            prune_oldest(self._fetched_roots, self.policy.telemetry_cap)
            if self._listener is not None and block is not None:
                # A mesh node relays: once fetched, the block is served
                # to (and announced on) every connection.
                self.serve_block(block)
        mc = self.connections.get(state.peer)
        engine = state.engine
        overhead = state.wire_overhead + (state.transport.wire_overhead
                                          if state.transport else 0)
        result = PeerFetchResult(
            success=success,
            protocol_used=engine.protocol_used,
            roundtrips=engine.roundtrips,
            cost=CostBreakdown.from_events(state.stream),
            txs=txs,
            block=block,
            p1_decode_failed=engine.p1_decode_failed,
            p2_used_pingpong=engine.p2_used_pingpong,
            fetched_count=engine.fetched_count,
            events=list(state.stream),
            root=root,
            peer=mc.conn.peer_info if mc is not None else None,
            timeouts=state.relay_timeouts,
            retries=state.relay_retries,
            escalated=state.escalated,
            abandoned=state.abandoned,
            via_fullblock=via_fullblock,
            wire_overhead=overhead,
            failovers=state.failovers,
            announcers=labels,
            surviving_events=list(state.stream[state.attempt_start:]))
        self._completed.append(result)
        self._done_event.set()


class BlockServer(PeerManager):
    """A manager that listens and serves one block: the server half of
    the point-to-point call sites (tests, docs, ``repro serve``)."""

    def __init__(self, block: Block,
                 config: Optional[GrapheneConfig] = None,
                 node_id: str = "server",
                 drop: Optional[dict] = None,
                 tracer=None):
        super().__init__(node_id=node_id, config=config, tracer=tracer,
                         drop=drop)
        self.root = self.serve_block(block)

    start = PeerManager.listen


async def fetch_block(host: str, port: int, mempool: Mempool,
                      config: Optional[GrapheneConfig] = None,
                      node_id: str = "peer",
                      policy: Optional[RecoveryPolicy] = None,
                      tracer=None) -> PeerFetchResult:
    """Dial one peer with a fresh manager and return its first fetch:
    the block that peer announces, under the full recovery ladder
    (with one announcer, rung 3 finds no alternate and abandons)."""
    manager = PeerManager(node_id=node_id, mempool=mempool, config=config,
                          policy=policy, tracer=tracer)
    try:
        await manager.connect(host, port)
        try:
            return await manager.fetch_next(manager.policy.timeout_for(0))
        except asyncio.TimeoutError:
            if not manager.invs_seen:
                raise ProtocolFailure(
                    "peer never announced a block (no inv)") from None
        return await manager.fetch_next()
    finally:
        await manager.close()
