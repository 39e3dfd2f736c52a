"""Simulated peers that gossip transactions and relay blocks.

A :class:`Node` owns a mempool, gossips transactions with inv/getdata
like Bitcoin's p2p layer (section 2.2), and relays blocks with a
pluggable :class:`RelayProtocol`.  What a node keeps about blocks in
flight -- announcers, fetches, the recovery ladder, serving engines,
span marks -- is its :class:`~repro.net.host.RelayHost`, the same host
:class:`~repro.net.peer.manager.PeerManager` runs on sockets; a node is
the host's driver on the :class:`~repro.net.simulator.Simulator` clock.
Its verbs map onto :meth:`Node._send` and ``simulator.schedule``, with
peer handles being registry node ids.  Graphene relay is the canonical
engines of :mod:`repro.core.engine`; every engine message crosses a
:class:`~repro.net.transport.SimulatorTransport` carrying its telemetry
event, so the simulator charges exactly the bytes the standalone
benchmarks account -- plus latency, bandwidth and multi-hop propagation
on top.  The node keeps tx gossip and the Compact Blocks / XThin steps.
"""

from __future__ import annotations

import enum
import struct
import zlib
from typing import Optional

from repro.baselines import compact_blocks, xthin
from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction
from repro.core.engine import RECEIVER_STEPS, SENDER_STEPS
from repro.core.params import GrapheneConfig
from repro.core.sizing import (
    INV_ENTRY_BYTES,
    MSG_HEADER_BYTES,
    getdata_bytes,
    inv_bytes,
)
from repro.errors import ParameterError
from repro.net.host import HostViews, RelayHost
from repro.net.messages import NetMessage
from repro.net.netstate import InvView, NodeStats
from repro.net.recovery import RecoveryPolicy, STAGE_ENGINE, STAGE_REQUEST
from repro.net.simulator import FaultInjector, Link, Simulator
from repro.net.sync import MempoolSyncMixin, SYNC_ROUTES
from repro.net.transport import SimulatorTransport

#: Graphene wire commands dispatched straight to an engine (the plain
#: ``getdata`` stays multiplexed with tx gossip and baseline relay).
_ENGINE_COMMANDS = (frozenset(RECEIVER_STEPS)
                    | frozenset(SENDER_STEPS)) - {"getdata"}


def derive_loss_seed(src_id: str, dst_id: str) -> int:
    """Default loss seed for the ``src -> dst`` direction of a peering.

    Derived from the endpoint pair so distinct lossy links drop
    *different* message indices (a shared constant seed would correlate
    loss across the whole topology), yet runs stay reproducible.
    """
    return zlib.crc32(f"{src_id}->{dst_id}".encode())


def _enveloped(command: str, payload, wire_bytes: int) -> NetMessage:
    """A message whose size model (``getdata_bytes``, ``inv_bytes``,
    ``getblocktxn_bytes``) already counts the envelope that
    :attr:`NetMessage.total_size` adds to every ad-hoc payload."""
    return NetMessage(command, payload, wire_bytes - MSG_HEADER_BYTES)


class RelayProtocol(enum.Enum):
    """Block-relay protocol a node speaks."""

    GRAPHENE = "graphene"
    COMPACT_BLOCKS = "compact_blocks"
    XTHIN = "xthin"
    FULL_BLOCK = "full_block"


class Node(HostViews, MempoolSyncMixin):
    """One peer in the simulated network."""

    def __init__(self, node_id: str, simulator: Simulator,
                 protocol: RelayProtocol = RelayProtocol.GRAPHENE,
                 config: Optional[GrapheneConfig] = None,
                 trickle_interval: float = 0.0,
                 recovery: Optional[RecoveryPolicy] = None,
                 tracer=None, telemetry_mode: str = "full"):
        if not node_id:
            raise ParameterError("node_id must be non-empty")
        if trickle_interval < 0:
            raise ParameterError(
                f"trickle_interval must be >= 0, got {trickle_interval}")
        if telemetry_mode not in ("full", "aggregate"):
            raise ParameterError(
                f"telemetry_mode must be 'full' or 'aggregate', "
                f"got {telemetry_mode!r}")
        self.node_id = node_id
        self.simulator = simulator
        #: "full" keeps one MessageEvent per relay message (the default;
        #: required for traces and per-event invariants); "aggregate"
        #: folds each event into running totals and discards it, which
        #: is what bounds memory at 1000-node scale.
        self.telemetry_mode = telemetry_mode
        #: Columnar per-run network registry (integer node ids, flat
        #: edge/inv columns); shared by every node of one simulator.
        self._net = simulator.net
        #: This node's integer id in the registry.
        self.nid = self._net.register(self)
        self.protocol = protocol
        self.config = config or GrapheneConfig()
        self.recovery = recovery or RecoveryPolicy()
        #: Optional :class:`~repro.obs.trace.Tracer`.  When set (here or
        #: via ``Tracer.attach``), telemetry streams are created through
        #: it so every event gets a simulator-clock timestamp, and the
        #: host marks spans (done / escalate / failover / abandon) at
        #: exchange lifecycle points.  A pure observer: traced runs are
        #: byte- and clock-identical to untraced ones.
        self.tracer = tracer
        #: Bitcoin-style inv trickling: queue announcements per peer and
        #: flush them in batches every ``trickle_interval`` seconds
        #: (0 = announce immediately).  Trickling is why mempools lag
        #: blocks -- the Protocol 2 motivation of paper 3.2.
        self.trickle_interval = trickle_interval
        self._trickle_queues: dict = {}
        self._trickle_scheduled: set = set()
        self.mempool = Mempool()
        self.blocks: dict = {}          # merkle root -> Block
        self.peers: dict = {}           # node -> Link
        #: ``peer -> stats`` view over the registry's flat edge columns
        #: (``stats[peer].bytes_sent`` / ``.messages_sent``).
        self.stats = NodeStats(self)
        self.block_arrival: dict = {}   # merkle root -> sim time
        #: Transaction-inv dedup (txids only; block roots live in the
        #: host's announcer registry so stalled fetches can fail over).
        #: Set-like view over the registry's shared txid bitmask table.
        self._seen_inv = InvView(self._net, self.nid)
        #: Announcers, fetches, the ladder and serving engines, keyed by
        #: root; read through the :class:`HostViews` properties.
        self.host = RelayHost(
            self, stage=STAGE_ENGINE if protocol is RelayProtocol.GRAPHENE
            else STAGE_REQUEST, aggregate=telemetry_mode == "aggregate")
        # Compact Blocks repair state: root -> (header, matched txs).
        self._cb_pending: dict = {}
        # Mempool sync serving engines (see repro.net.sync).
        self._sync_serving: dict = {}
        #: Wire command -> bound handler, filled lazily by
        #: :meth:`receive` so bursts skip the per-message
        #: frozenset test + ``getattr`` name lookup.
        self._handlers: dict = {}

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
        ``connect_clique``, ``connect_line``) loses traffic on the
        forward direction of each peering alone.  Known and pinned by
        the ``sim_lossy_20`` counts (ROADMAP item 4); pass
        ``reverse_link`` for symmetric loss, as ``connect_scale_free``
        does.
        """
        if other is self:
            raise ParameterError("a node cannot peer with itself")
        self.peers[other] = link or Link()
        other.peers[self] = reverse_link or Link(
            latency=self.peers[other].latency,
            bandwidth=self.peers[other].bandwidth)
        self.peers[other].ensure_loss_seed(
            derive_loss_seed(self.node_id, other.node_id))
        other.peers[self].ensure_loss_seed(
            derive_loss_seed(other.node_id, self.node_id))
        self.peers[other].edge = self._net.edge(self.nid, other.nid)
        other.peers[self].edge = other._net.edge(other.nid, self.nid)

    def _send(self, peer: "Node", message: NetMessage) -> None:
        link = self.peers.get(peer)
        if link is None:
            raise ParameterError(
                f"{self.node_id} is not peered with {peer.node_id}")
        eid = link.edge
        if eid < 0:
            # Link attached by direct `peers[...] = Link(...)` assignment
            # (bypassing connect); register its edge row on first send.
            eid = link.edge = self._net.edge(self.nid, peer.nid)
        size = message.total_size
        self._net.charge(eid, size)
        dropped = link.drops(self.simulator.now, message.command)
        # A dropped message still occupied the sender side of the link:
        # the bytes left the NIC before being lost, so the FIFO busy
        # window advances (and the edge counters charged them) either
        # way.
        deliver_at = link.transmit_schedule(self.simulator.now, size)
        if dropped:
            return
        # Deliveries are never cancelled; the handle-free post path
        # skips one EventHandle allocation per message.
        self.simulator.post_at(
            deliver_at, lambda: peer.receive(self, message))

    def inject_fault(self, peer: "Node", fault: FaultInjector) -> None:
        """Attach a deterministic fault plan to the link toward ``peer``."""
        link = self.peers.get(peer)
        if link is None:
            raise ParameterError(
                f"{self.node_id} is not peered with {peer.node_id}")
        link.fault = fault

    # ------------------------------------------------------------------
    # Transaction gossip (inv / getdata / tx)
    # ------------------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> None:
        """Inject a fresh transaction at this node (a local wallet)."""
        if self.mempool.add(tx):
            self._announce_tx(tx, exclude=None)

    def _announce_tx(self, tx: Transaction, exclude: Optional["Node"]) -> None:
        for peer in self.peers:
            if peer is exclude:
                continue
            self.mempool.note_inv(peer.node_id, tx.txid)
            if self.trickle_interval > 0:
                self._trickle_queues.setdefault(peer, []).append(tx.txid)
                if peer not in self._trickle_scheduled:
                    self._trickle_scheduled.add(peer)
                    self.simulator.schedule(
                        self.trickle_interval,
                        lambda p=peer: self._flush_trickle(p))
            else:
                self._send(peer, NetMessage("inv", tx.txid,
                                            INV_ENTRY_BYTES + 1))

    def _flush_trickle(self, peer: "Node") -> None:
        self._trickle_scheduled.discard(peer)
        queued = self._trickle_queues.pop(peer, [])
        if not queued or peer not in self.peers:
            return
        self._send(peer, NetMessage("inv", ("txs", tuple(queued)),
                                    1 + INV_ENTRY_BYTES * len(queued)))

    # ------------------------------------------------------------------
    # Block relay
    # ------------------------------------------------------------------

    def mine_block(self, block: Block) -> None:
        """Adopt a freshly mined block and announce it."""
        self._accept_block(block, origin=None)

    def _accept_block(self, block: Block, origin: Optional["Node"]) -> None:
        """Hold ``block`` and announce it to every peer but ``origin``."""
        root = block.header.merkle_root
        if root in self.blocks:
            return
        self.blocks[root] = block
        self.block_arrival[root] = self.simulator.now
        self.mempool.remove_block(block.txids)
        for peer in self.peers:
            if peer is origin:
                continue
            self._send(peer, NetMessage("inv", ("block", root),
                                        INV_ENTRY_BYTES + 1))

    # ------------------------------------------------------------------
    # The host's driver verbs (see repro.net.host)
    # ------------------------------------------------------------------

    def send_action(self, peer: int, key, action, wire=None) -> None:
        node = self._net.nodes[peer]
        if wire is None and action.command == "getdata":
            # Graphene's opening rides the getdata that tx gossip and
            # the baselines share; it carries m (paper Fig. 2).
            self._send(node, NetMessage(
                "getdata", ("block", key, action.message),
                len(action.message), event=action.event))
            return
        SimulatorTransport(self, node, key, command_map=wire).deliver(action)

    def request_block(self, peer: int, root: bytes, full: bool) -> None:
        node = self._net.nodes[peer]
        if full:
            self._send(node, _enveloped(
                "getdata", ("fullblock", root, 0), getdata_bytes(0)))
        elif self.protocol is RelayProtocol.XTHIN:
            bloom = xthin.mempool_filter(self.mempool)
            self._send(node, _enveloped(
                "xthin_getdata", (root, bloom),
                getdata_bytes(0) + bloom.serialized_size()))
        else:
            self._send(node, _enveloped(
                "getdata", ("block", root, len(self.mempool)),
                getdata_bytes(len(self.mempool))))

    def call_later(self, delay: float, fn):
        return self.simulator.schedule(delay, fn)

    def is_alive(self, peer: int) -> bool:
        return self._net.nodes[peer] in self.peers

    def peer_label(self, peer: int) -> str:
        return self._net.nodes[peer].node_id

    def fetch_finished(self, peer, block, fetch) -> None:
        self._cb_pending.pop(fetch.key if block is None
                             else block.header.merkle_root, None)
        if block is not None:
            self._accept_block(block, None if peer is None
                               else self._net.nodes[peer])

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def receive(self, sender: "Node", message: NetMessage) -> None:
        command = message.command
        handler = self._handlers.get(command)
        if handler is None:
            if command in _ENGINE_COMMANDS:
                def handler(peer, payload, _command=command,
                            _frame=self.host.on_frame):
                    _frame(peer.nid, _command, *payload)
            elif command in SYNC_ROUTES:
                name, step = SYNC_ROUTES[command]
                def handler(peer, payload, _route=getattr(self, name),
                            _step=step):
                    _route(peer, _step, payload)
            else:
                handler = getattr(self, f"_on_{command}", None)
                if handler is None:
                    raise ParameterError(f"no handler for {command!r}")
            self._handlers[command] = handler
        handler(sender, message.payload)

    def _on_inv(self, sender: "Node", payload) -> None:
        if isinstance(payload, tuple) and payload[0] == "block":
            self.host.on_inv(sender.nid, payload[1])
            return
        if isinstance(payload, tuple) and payload[0] == "txs":
            # A trickled batch announcement: request all news in one
            # batched getdata, like deployed clients.
            wanted = tuple(
                txid for txid in payload[1]
                if txid not in self.mempool and txid not in self._seen_inv)
            if wanted:
                self._seen_inv.update(wanted)
                # A getdata's inventory vector is laid out like an inv's.
                self._send(sender, _enveloped("getdata", ("txs", wanted),
                                              inv_bytes(len(wanted))))
            return
        txid = payload
        if txid not in self.mempool and txid not in self._seen_inv:
            self._seen_inv.add(txid)
            self._send(sender, _enveloped("getdata", ("tx", txid),
                                          getdata_bytes(0)))

    def _on_getdata(self, sender: "Node", payload) -> None:
        kind = payload[0]
        if kind == "tx":
            tx = self.mempool.get(payload[1])
            if tx is not None:
                self._send(sender, NetMessage("tx", tx, tx.size))
            return
        if kind == "txs":
            found = [self.mempool.get(txid) for txid in payload[1]]
            found = tuple(tx for tx in found if tx is not None)
            if found:
                self._send(sender, NetMessage(
                    "tx", ("batch", found), sum(tx.size for tx in found)))
            return
        if kind == "block":
            block = self.blocks.get(payload[1])
            if block is not None:
                self._relay_block(sender, block, payload[2])
            return
        if kind == "fullblock":
            # Fallback after a failed reconciliation: ship everything.
            block = self.blocks.get(payload[1])
            if block is not None:
                self._send(sender, NetMessage("block", block,
                                              block.serialized_size()))
            return
        raise ParameterError(f"unknown getdata kind {kind!r}")

    def _on_tx(self, sender: "Node", payload) -> None:
        if isinstance(payload, tuple) and payload[0] == "batch":
            for tx in payload[1]:
                if self.mempool.add(tx):
                    self._announce_tx(tx, exclude=sender)
            return
        if self.mempool.add(payload):
            self._announce_tx(payload, exclude=sender)

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

    def _on_block(self, sender: "Node", block: Block) -> None:
        self.host.on_block(sender.nid, block)

    # ------------------------------------------------------------------
    # Compact Blocks and XThin wire handlers (steps: repro.baselines)
    # ------------------------------------------------------------------

    def _accept_candidate(self, sender: "Node", root: bytes, header,
                          txs) -> None:
        """Accept ``txs`` if they hash to ``header``'s root, else fall back."""
        ordered = Block(header=header, txs=()).validated_order(list(txs))
        if ordered is None:
            self.host.decode_failed(sender.nid, root)
            return
        self.host.complete(sender.nid,
                           Block(header=header, txs=tuple(ordered)))

    def _on_cmpctblock(self, sender: "Node", payload) -> None:
        root, header, sids, prefilled = payload
        if root in self.blocks:
            return
        txs, missing, _ = compact_blocks.match_short_ids(sids, self.mempool)
        txs += prefilled
        if not missing:
            self._accept_candidate(sender, root, header, txs)
            return
        self._cb_pending[root] = (header, txs)
        self._send(sender, _enveloped(
            "getblocktxn", (root, tuple(missing)),
            compact_blocks.getblocktxn_bytes(len(sids) + len(prefilled),
                                             len(missing))))
        # The exchange advanced; give the blocktxn reply a fresh timer
        # (a timeout restarts the whole cmpctblock request).
        self.host.progress(root)

    def _on_getblocktxn(self, sender: "Node", payload) -> None:
        root, indexes = payload
        block = self.blocks.get(root)
        if block is None:
            return
        txs = compact_blocks.send_blocktxn(block, indexes)
        self._send(sender, NetMessage("blocktxn", (root, txs),
                                      sum(tx.size for tx in txs)))

    def _on_blocktxn(self, sender: "Node", payload) -> None:
        root, txs = payload
        pending = self._cb_pending.pop(root, None)
        if pending is None:
            return
        header, partial = pending
        self._accept_candidate(sender, root, header, partial + list(txs))

    def _on_xthin_getdata(self, sender: "Node", payload) -> None:
        root, bloom = payload
        block = self.blocks.get(root)
        if block is None:
            return
        sids, pushed = xthin.send_xthinblock(block, bloom)
        self._send(sender, NetMessage(
            "xthinblock", (root, block.header, sids, pushed),
            xthin.xthin_star_bytes(block.n) + sum(tx.size for tx in pushed)))

    def _on_xthinblock(self, sender: "Node", payload) -> None:
        root, header, sids, pushed = payload
        if root in self.blocks:
            return
        txs, missing, _ = compact_blocks.match_short_ids(
            sids, [*self.mempool, *pushed])
        if missing:
            self.host.decode_failed(sender.nid, root)
        else:
            self._accept_candidate(sender, root, header, txs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_bytes_sent(self) -> int:
        return self._net.bytes_sent_by(self.nid)

    def __repr__(self) -> str:
        return (f"Node({self.node_id!r}, protocol={self.protocol.value}, "
                f"mempool={len(self.mempool)}, blocks={len(self.blocks)})")
