"""PeerManager: the one socket path, a relay host on asyncio's clock.

Every frame this package reads off a socket is read here:

* :class:`PeerManager` holds *many* connections in one event loop --
  a dial list of outbound peers (:meth:`PeerManager.connect`) and an
  optional listener for inbound ones (:meth:`PeerManager.listen`) --
  and is symmetric: every connection both serves the blocks this node
  holds and fetches the blocks its peers announce.
* Engine frames are demultiplexed by the 32-byte Merkle root they
  carry (``root | message``, PROTOCOL.md §4.3) and handed, with the
  connection id as the peer handle, to the node's
  :class:`~repro.net.host.RelayHost` -- the host the simulator's
  :class:`~repro.net.node.Node` runs too.  It keeps the announcer,
  fetch and serving registries, climbs the recovery ladder
  (re-emit with backoff, escalate to a
  full-block ``getdata_block``, fail over to the next announcer on a
  different connection, abandon) and marks the relay span.
* This module maps the host's verbs onto sockets: an engine action is
  framed by an :class:`~repro.net.peer.transport.AsyncioTransport`, a
  timer is ``loop.call_later``, a connection that dies mid-fetch is a
  peer gone (the fetch fails over at once), and a finished fetch is a
  :class:`~repro.net.peer.peer.PeerFetchResult`.  What only sockets
  have stays here: the handshake, the ``drop`` knob, envelope bytes and
  the results queue.
* :class:`BlockServer` and :func:`fetch_block` are the two one-line
  uses of a manager that the point-to-point call sites want: a
  listener that serves one block, and a one-entry dial list that
  returns its first fetch.

Only engines and the ladder append to streams; ``inv``/handshake/
envelope bytes stay out of the analytic accounting.
:attr:`PeerFetchResult.surviving_events` is the slice of the stream
produced by the attempt that actually completed, which is
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
from typing import Dict, Optional

from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.core.engine import RECEIVER_STEPS, SENDER_STEPS
from repro.core.params import GrapheneConfig
from repro.core.sizing import CostBreakdown
from repro.core.telemetry import StreamTotals
from repro.errors import ProtocolFailure, ReproError
from repro.net.host import HostViews, RecoveryPolicy, RelayHost
from repro.net.peer.peer import PeerConnection, PeerFetchResult
from repro.net.peer.protocol import (
    decode_full_block,
    decode_inv,
    encode_full_block,
    encode_inv,
    split_keyed,
)
from repro.net.peer.transport import AsyncioTransport

logger = logging.getLogger(__name__)

#: A fetch over many sockets and a fetch over one report the same facts.
MeshFetchResult = PeerFetchResult

#: Commands whose payload is ``root | engine message``.
_ENGINE_COMMANDS = frozenset(RECEIVER_STEPS) | frozenset(SENDER_STEPS)


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


class PeerManager(HostViews):
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
        self.recovery = policy or RecoveryPolicy()
        self.tracer = tracer
        self.drop = dict(drop or {})
        #: Blocks this node serves, by Merkle root.
        self.blocks: Dict[bytes, Block] = {}
        self.connections: Dict[int, MeshConnection] = {}
        self.port: Optional[int] = None
        #: Dedup telemetry for tests and the CLI.
        self.invs_seen = 0
        self.inv_duplicates = 0
        #: Inbound connections that have ended (a failed handshake
        #: counts: the peer was turned away, which is service too).
        self.connections_served = 0
        #: Announcers, fetches, the ladder and serving engines, keyed by
        #: root; read through the :class:`HostViews` properties.
        self.host = RelayHost(self)
        self._cids = itertools.count()
        self._listener: Optional[asyncio.AbstractServer] = None
        self._closing = False
        self._overhead: Dict[bytes, int] = {}  # per fetch, envelope bytes
        self._completed: deque = deque()
        self._done_event = asyncio.Event()
        self._served_event = asyncio.Event()

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
        self.host.cancel_timers()
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
                self._dispatch(mc, *frame)
                await mc.conn.drain()
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
            self.connections.pop(mc.cid, None)
            if not self._closing:
                # A dead announcer is a lost cause immediately: no point
                # waiting out the backoff on a closed socket.
                self.host.on_peer_gone(mc.cid)

    def _should_drop(self, command: str) -> bool:
        remaining = self.drop.get(command, 0)
        if remaining > 0:
            self.drop[command] = remaining - 1
            logger.info("%s: dropping %r (%d more to drop)", self.node_id,
                        command, remaining - 1)
            return True
        return False

    def _dispatch(self, mc: MeshConnection, command: str,
                  payload: bytes) -> None:
        if self._should_drop(command):
            return
        if command in _ENGINE_COMMANDS:
            self.host.on_frame(mc.cid, command, *split_keyed(payload))
        elif command == "inv":
            root = decode_inv(payload)
            self.invs_seen += 1
            # A pure server never fetches: nothing to register.
            if self.mempool is not None \
                    and not self.host.on_inv(mc.cid, root):
                self.inv_duplicates += 1
        elif command == "getdata_block":
            block = self.blocks.get(decode_inv(payload))
            if block is not None:
                mc.conn.send("block", encode_full_block(block))
        elif command == "block":
            self.host.on_block(mc.cid, decode_full_block(payload))
        # anything else: tolerated and ignored, like bitcoind

    # -- the host's driver verbs (see repro.net.host) -------------------

    def send_action(self, peer: int, key, action, wire=None) -> None:
        transport = AsyncioTransport(self.connections[peer].conn.writer, key)
        transport.deliver(action)
        if action.command in SENDER_STEPS:  # a request of our own fetch
            self._overhead[key] = \
                self._overhead.get(key, 0) + transport.wire_overhead

    def request_block(self, peer: int, root: bytes, full: bool) -> None:
        self.connections[peer].conn.send("getdata_block", encode_inv(root))

    def call_later(self, delay: float, fn):
        return asyncio.get_running_loop().call_later(delay, fn)

    def is_alive(self, peer: int) -> bool:
        mc = self.connections.get(peer)
        return mc is not None and mc.alive

    def peer_label(self, peer: int) -> str:
        mc = self.connections.get(peer)
        return mc.label if mc is not None else f"conn#{peer}"

    def fetch_finished(self, peer, block, fetch) -> None:
        """Publish the fetch's result.  A fetched block is served onward
        (and announced on every connection) when this node listens."""
        if block is not None and self._listener is not None:
            self.serve_block(block)
        if fetch is None:
            return
        stream, engine = fetch.stream, fetch.engine
        outcomes = StreamTotals.of(stream).outcome_counts
        mc = self.connections.get(fetch.peer if peer is None else peer)
        self._completed.append(PeerFetchResult(
            success=block is not None,
            protocol_used=engine.protocol_used,
            roundtrips=engine.roundtrips,
            cost=CostBreakdown.from_events(stream),
            txs=None if block is None else list(block.txs),
            block=block,
            p1_decode_failed=engine.p1_decode_failed,
            p2_used_pingpong=engine.p2_used_pingpong,
            fetched_count=engine.fetched_count,
            events=list(stream),
            root=fetch.key,
            peer=mc.conn.peer_info if mc is not None else None,
            timeouts=outcomes.get("timeout", 0),
            retries=outcomes.get("retry", 0),
            escalated=fetch.escalated,
            abandoned=block is None,
            via_fullblock=fetch.via_fullblock,
            wire_overhead=self._overhead.pop(fetch.key, 0),
            failovers=fetch.failovers,
            announcers=[self.peer_label(cid) for cid in fetch.announcers],
            surviving_events=list(stream[fetch.attempt_start:])))
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
                      policy: Optional[RecoveryPolicy] = None,
                      tracer=None) -> PeerFetchResult:
    """Dial one peer with a fresh manager, ``"peer"``, and return its
    first fetch: the block that peer announces, under the full recovery
    ladder (with one announcer, rung 3 finds no alternate and
    abandons)."""
    manager = PeerManager(node_id="peer", mempool=mempool, config=config,
                          policy=policy, tracer=tracer)
    try:
        await manager.connect(host, port)
        try:
            return await manager.fetch_next(manager.recovery.timeout_for(0))
        except asyncio.TimeoutError:
            if not manager.invs_seen:
                raise ProtocolFailure(
                    "peer never announced a block (no inv)") from None
        return await manager.fetch_next()
    finally:
        await manager.close()
