"""Simulated peers that relay blocks.

A :class:`Node` owns a mempool and a ledger
(:class:`~repro.chain.ledger.Blockchain`) and relays blocks with a
pluggable :class:`RelayProtocol`, announcing them with inv/getdata like
Bitcoin's p2p layer (section 2.2).  What a node keeps about blocks in
flight -- announcers, fetches, the recovery ladder, serving engines,
span marks -- is its :class:`~repro.net.host.RelayHost`, the same host
:class:`~repro.net.peer.manager.PeerManager` runs on sockets; a node is
the host's driver on the :class:`~repro.net.simulator.Simulator` clock.
Its verbs map onto :meth:`Node._send` and ``simulator.schedule``, with
peer handles being ``nid`` indexes into ``simulator.nodes``.  Graphene
relay and mempool sync (paper 3.2.1) are the canonical engines of
:mod:`repro.core.engine`, driven by the host; every engine message
crosses as a :class:`~repro.net.messages.NetMessage` carrying its
telemetry event, so the simulator charges exactly the bytes the
standalone benchmarks account -- plus latency, bandwidth and multi-hop
propagation on top.
What each command does on arrival, the Compact Blocks / XThin wire
handlers included, is the table :data:`repro.net.messages.HANDLERS`.
Each :class:`~repro.net.simulator.Link` counts the bytes sent on it.

Ownership runs one way: the simulator owns its nodes, a node owns its
links (keyed by the peer's ``nid``) and its relay host, and nothing
points back with a strong reference -- ``Node.simulator`` and the
host's driver are weak.  A dropped run is freed by reference counting.
"""

from __future__ import annotations

import enum
import struct
import weakref
import zlib
from collections.abc import Mapping
from typing import Iterator, Optional

from repro.baselines import compact_blocks, xthin
from repro.chain.block import Block
from repro.chain.ledger import Blockchain
from repro.chain.mempool import Mempool
from repro.core.params import GrapheneConfig
from repro.core.sizing import INV_ENTRY_BYTES, getdata_bytes
from repro.errors import ParameterError
from repro.net.host import (
    HostViews,
    RecoveryPolicy,
    RelayHost,
    STAGE_ENGINE,
    STAGE_REQUEST,
    SyncState,
)
from repro.net.messages import HANDLERS, NetMessage, enveloped
from repro.net.simulator import FaultInjector, Link, Simulator


def derive_loss_seed(src_id: str, dst_id: str) -> int:
    """Default loss seed for the ``src -> dst`` direction of a peering.

    Derived from the endpoint pair so distinct lossy links drop
    *different* message indices (a shared constant seed would correlate
    loss across the whole topology), yet runs stay reproducible.
    """
    return zlib.crc32(f"{src_id}->{dst_id}".encode())


class RelayProtocol(enum.Enum):
    """Block-relay protocol a node speaks."""

    GRAPHENE = "graphene"
    COMPACT_BLOCKS = "compact_blocks"
    XTHIN = "xthin"
    FULL_BLOCK = "full_block"


class PeerLinks(Mapping):
    """Read-only ``Node -> Link`` view of a node's :attr:`Node.links`,
    in wiring order."""

    __slots__ = ("_node",)

    def __init__(self, node: "Node"):
        self._node = node

    def __getitem__(self, peer: "Node") -> Link:
        node, nid = self._node, getattr(peer, "nid", None)
        if nid in node.links and node._peer_refs[nid]() is peer:
            return node.links[nid]
        raise KeyError(peer)

    def __iter__(self) -> Iterator["Node"]:
        node = self._node
        for nid in node.links:
            peer = node._peer_refs[nid]()
            if peer is None:
                raise ParameterError(
                    f"a peer of {node.node_id!r} is gone: hold every node "
                    f"of a network for as long as it is used")
            yield peer

    def __len__(self) -> int:
        return len(self._node.links)


class Node(HostViews):
    """One peer in the simulated network."""

    def __init__(self, node_id: str, simulator: Simulator,
                 protocol: RelayProtocol = RelayProtocol.GRAPHENE,
                 config: Optional[GrapheneConfig] = None,
                 recovery: Optional[RecoveryPolicy] = None):
        if not node_id:
            raise ParameterError("node_id must be non-empty")
        self.node_id = node_id
        # Weak: the simulator owns this node (see the module docstring).
        self._simulator = weakref.ref(simulator)
        #: This node's index in ``simulator.nodes``: the integer peer
        #: handle its relay host keeps.
        self.nid = len(simulator.nodes)
        simulator.nodes.append(self)
        self.protocol = protocol
        self.config = config or GrapheneConfig()
        self.recovery = recovery or RecoveryPolicy()
        #: Optional :class:`~repro.obs.trace.Tracer`, set by
        #: ``Tracer.attach``: telemetry streams are then created through
        #: it so every event gets a simulator-clock timestamp, and the
        #: host marks spans (done / escalate / failover / abandon) at
        #: exchange lifecycle points.  A pure observer: traced runs are
        #: byte- and clock-identical to untraced ones.
        self.tracer = None
        self.mempool = Mempool()
        self.blocks: dict = {}          # merkle root -> Block
        #: Every accepted block, as a tree on the shared genesis: what
        #: this node would mine on (``chain.tip``) and its stale blocks.
        self.chain = Blockchain()
        #: Peer ``nid`` -> the :class:`Link` toward it; :meth:`connect`
        #: is the one writer, :attr:`peers` the ``Node``-keyed view.
        self.links: dict = {}
        # Peer ``nid`` -> weak reference to the peer, for that view.
        self._peer_refs: dict = {}
        self.block_arrival: dict = {}   # merkle root -> sim time
        #: Announcers, fetches, the ladder, serving engines and mempool
        #: syncs; read through the :class:`HostViews` properties.
        self.host = RelayHost(
            self, stage=STAGE_ENGINE if protocol is RelayProtocol.GRAPHENE
            else STAGE_REQUEST)
        # Compact Blocks repair state: root -> (header, matched txs).
        self._cb_pending: dict = {}

    @property
    def simulator(self) -> Simulator:
        """The simulator this node runs on."""
        simulator = self._simulator()
        if simulator is None:
            raise ParameterError(
                f"node {self.node_id!r} outlived its simulator: hold the "
                f"Simulator for as long as its nodes are used")
        return simulator

    @property
    def peers(self) -> PeerLinks:
        """Peer ``Node`` -> the :class:`Link` toward it (read-only)."""
        return PeerLinks(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def connect(self, other: "Node", link: Optional[Link] = None,
                reverse_link: Optional[Link] = None) -> None:
        """Create a bidirectional peering.

        Links without an explicit ``loss_seed`` get one derived from
        the (src, dst) endpoint pair, so loss is independent across
        links and directions but reproducible across runs.

        The default ``reverse_link`` copies the forward link's latency
        and bandwidth but *not* its ``loss_rate``: a topology helper
        that passes only ``link`` (``connect_random_regular``,
        ``connect_clique``) loses traffic on the forward direction of
        each peering alone.  Known and pinned by
        the ``sim_lossy_20`` counts (ROADMAP item 4); pass
        ``reverse_link`` for symmetric loss, as ``connect_scale_free``
        does.
        """
        if other is self:
            raise ParameterError("a node cannot peer with itself")
        # Equal weak references: one simulator, alive or gone.
        if other._simulator != self._simulator:
            raise ParameterError(
                f"{self.node_id} and {other.node_id} run on different "
                f"simulators")
        self._peer_refs[other.nid] = weakref.ref(other)
        other._peer_refs[self.nid] = weakref.ref(self)
        forward = self.links[other.nid] = link or Link()
        backward = other.links[self.nid] = reverse_link or Link(
            latency=forward.latency, bandwidth=forward.bandwidth)
        forward.ensure_loss_seed(derive_loss_seed(self.node_id, other.node_id))
        backward.ensure_loss_seed(
            derive_loss_seed(other.node_id, self.node_id))

    def _send(self, peer: "Node", message: NetMessage) -> None:
        link = self.links.get(peer.nid)
        if link is None:
            raise ParameterError(
                f"{self.node_id} is not peered with {peer.node_id}")
        simulator = self.simulator
        now = simulator.now
        size = message.total_size
        link.bytes_sent += size
        link.messages_sent += 1
        dropped = link.drops(now, message.command)
        # A dropped message still occupied the sender side of the link:
        # the bytes left the NIC before being lost, so the FIFO busy
        # window advances (and the link's counters charged them) either
        # way.
        deliver_at = link.transmit_schedule(now, size)
        if dropped:
            return
        # Deliveries are never cancelled; the handle-free post path
        # skips one EventHandle allocation per message.
        simulator.post_at(deliver_at, lambda: peer.receive(self, message))

    def receive(self, sender: "Node", message: NetMessage) -> None:
        """Act on ``message`` from ``sender`` (a delivery event's body)."""
        HANDLERS[message.command](self, sender, message.payload)

    def inject_fault(self, peer: "Node", fault: FaultInjector) -> None:
        """Attach a deterministic fault plan to the link toward ``peer``."""
        link = self.peers.get(peer)
        if link is None:
            raise ParameterError(
                f"{self.node_id} is not peered with {peer.node_id}")
        link.fault = fault

    # ------------------------------------------------------------------
    # Block relay
    # ------------------------------------------------------------------

    def mine_block(self, block: Block) -> None:
        """Adopt a freshly mined block and announce it."""
        self._accept_block(block, origin=None)

    def _accept_block(self, block: Block, origin: Optional["Node"]) -> None:
        """Hold ``block``, extend :attr:`chain` with it and announce it
        to every peer but ``origin``."""
        root = block.header.merkle_root
        if root in self.blocks:
            return
        simulator = self.simulator
        self.blocks[root] = block
        self.chain.add_block(block)
        self.block_arrival[root] = simulator.now
        self.mempool.remove_block(block.txids)
        nodes = simulator.nodes
        for nid in self.links:
            peer = nodes[nid]
            if peer is origin:
                continue
            self._send(peer, NetMessage("inv", ("block", root),
                                        INV_ENTRY_BYTES + 1))

    # ------------------------------------------------------------------
    # The host's driver verbs (see repro.net.host)
    # ------------------------------------------------------------------

    def send_action(self, peer: int, key, action, wire=None) -> None:
        command, payload = action.command, (key, action.message)
        if wire is not None:
            command = wire[command]
        elif command == "getdata":
            # Graphene's opening rides the getdata the baselines share;
            # it carries m (paper Fig. 2).
            payload = ("block", key, action.message)
        # The event, not the blob, is what the link charges.
        self._send(self.simulator.nodes[peer], NetMessage(
            command, payload, len(action.message), event=action.event))

    def push_txs(self, peer: int, nonce: int, txs: tuple, event) -> None:
        self._send(self.simulator.nodes[peer], NetMessage(
            "sync_push", (nonce, txs), sum(tx.size for tx in txs),
            event=event))

    def request_block(self, peer: int, root: bytes, full: bool) -> None:
        node = self.simulator.nodes[peer]
        if full:
            self._send(node, enveloped(
                "getdata", ("fullblock", root, 0), getdata_bytes(0)))
        elif self.protocol is RelayProtocol.XTHIN:
            bloom = xthin.mempool_filter(self.mempool)
            self._send(node, enveloped(
                "xthin_getdata", (root, bloom),
                getdata_bytes(0) + bloom.serialized_size()))
        else:
            self._send(node, enveloped(
                "getdata", ("block", root, len(self.mempool)),
                getdata_bytes(len(self.mempool))))

    def call_later(self, delay: float, fn):
        return self.simulator.schedule(delay, fn)

    def is_alive(self, peer: int) -> bool:
        return peer in self.links

    def peer_label(self, peer: int) -> str:
        return self.simulator.nodes[peer].node_id

    def fetch_finished(self, peer, block, fetch) -> None:
        self._cb_pending.pop(fetch.key if block is None
                             else block.header.merkle_root, None)
        if block is not None:
            self._accept_block(block, None if peer is None
                               else self.simulator.nodes[peer])

    # ------------------------------------------------------------------
    # Mempool sync (paper 3.2.1), run by the host
    # ------------------------------------------------------------------

    def initiate_mempool_sync(self, peer: "Node") -> int:
        """Start a sync with ``peer``; returns the session nonce."""
        if peer not in self.peers:
            raise ParameterError(
                f"{self.node_id} is not peered with {peer.node_id}")
        return self.host.open_sync(peer.nid)

    def sync_result(self, nonce: int) -> Optional[SyncState]:
        return self.host.syncs.get(nonce)

    # ------------------------------------------------------------------
    # Block relay bodies
    # ------------------------------------------------------------------

    def _relay_block(self, peer: "Node", block: Block,
                     receiver_m) -> None:
        """Serve a block with the configured relay protocol.

        Graphene's getdata goes to the host's one serving engine for
        the block; Compact Blocks runs the sender step its loopback
        relay runs.  Either way the simulator adds transport costs on
        top.
        """
        proto = self.protocol
        root = block.header.merkle_root
        if proto is RelayProtocol.GRAPHENE:
            # A graphene receiver's getdata carries the engine's start
            # message; accept a bare count from non-graphene peers.
            blob = receiver_m if isinstance(receiver_m, bytes) \
                else struct.pack("<I", receiver_m)
            self.host.on_frame(peer.nid, "getdata", root, blob)
            return
        if proto is RelayProtocol.COMPACT_BLOCKS:
            sids, prefilled, size = compact_blocks.send_cmpctblock(block)
            self._send(peer, NetMessage(
                "cmpctblock", (root, block.header, sids, prefilled), size))
            return
        self._send(peer, NetMessage("block", block, block.serialized_size()))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_bytes_sent(self) -> int:
        return sum(link.bytes_sent for link in self.links.values())

    def __repr__(self) -> str:
        return (f"Node({self.node_id!r}, protocol={self.protocol.value}, "
                f"mempool={len(self.mempool)}, blocks={len(self.blocks)})")
