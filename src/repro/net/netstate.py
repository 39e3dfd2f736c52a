"""Flat, columnar network-wide state shared by the nodes of one run.

At 20 nodes, per-node dicts of Python objects (``Node -> stats``) are
fine; at 1000 nodes they are O(network) small objects *per node* --
O(network^2) overall -- and dominate memory.
This module centralizes that bookkeeping in one :class:`NetIndex` per
:class:`~repro.net.simulator.Simulator`:

* every node gets a small **integer id** (``nid``) at construction;
* directed links become rows in flat **edge columns**
  (``array('i'/'q')`` for endpoints and byte/message counters), keyed
  once by ``(src_nid, dst_nid)`` and addressed by integer ``eid``
  thereafter (the id is cached on the :class:`Link` itself, so the
  steady-state send path is two array increments).

The views (:class:`NodeStats`, :class:`EdgeStats`) keep the established
per-node API -- ``node.stats[peer].bytes_sent`` -- working unchanged
over the columnar backing, so tests and scenario code written against
20-node runs read identically at 1000.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple


class NetIndex:
    """Integer node ids plus flat edge columns for one simulator."""

    __slots__ = ("nodes", "edge_src", "edge_dst", "edge_bytes",
                 "edge_msgs", "_edge_ids", "_out_edges")

    def __init__(self):
        #: nid -> Node (the only Node references this index holds).
        self.nodes: List = []
        self.edge_src = array("i")   #: eid -> sender nid
        self.edge_dst = array("i")   #: eid -> receiver nid
        self.edge_bytes = array("q")  #: eid -> wire bytes charged
        self.edge_msgs = array("q")   #: eid -> messages sent
        self._edge_ids: Dict[Tuple[int, int], int] = {}
        self._out_edges: List[List[int]] = []  #: nid -> [eid, ...]

    def register(self, node) -> int:
        """Assign the next integer id to ``node``."""
        nid = len(self.nodes)
        self.nodes.append(node)
        self._out_edges.append([])
        return nid

    def edge(self, src: int, dst: int) -> int:
        """Get-or-create the edge id for the ``src -> dst`` direction.

        Re-peering the same ordered pair (e.g. a test replacing
        ``a.peers[b]`` with a fresh :class:`Link`) reuses the existing
        row, so counters keep accumulating per direction.
        """
        eid = self._edge_ids.get((src, dst))
        if eid is None:
            eid = len(self.edge_src)
            self._edge_ids[(src, dst)] = eid
            self.edge_src.append(src)
            self.edge_dst.append(dst)
            self.edge_bytes.append(0)
            self.edge_msgs.append(0)
            self._out_edges[src].append(eid)
        return eid

    def charge(self, eid: int, nbytes: int) -> None:
        """Record one ``nbytes``-sized message crossing edge ``eid``."""
        self.edge_bytes[eid] += nbytes
        self.edge_msgs[eid] += 1

    def bytes_sent_by(self, nid: int) -> int:
        """Total wire bytes node ``nid`` has sent over all its edges."""
        edge_bytes = self.edge_bytes
        return sum(edge_bytes[eid] for eid in self._out_edges[nid])

    def total_bytes(self) -> int:
        """Wire bytes summed over every edge in the network."""
        return sum(self.edge_bytes)


class EdgeStats:
    """``bytes_sent`` / ``messages_sent`` of one directed edge, read off
    the columns."""

    __slots__ = ("_net", "_eid")

    def __init__(self, net: NetIndex, eid: int):
        self._net = net
        self._eid = eid

    @property
    def bytes_sent(self) -> int:
        return self._net.edge_bytes[self._eid]

    @property
    def messages_sent(self) -> int:
        return self._net.edge_msgs[self._eid]

    def __repr__(self) -> str:
        return (f"EdgeStats(bytes_sent={self.bytes_sent}, "
                f"messages_sent={self.messages_sent})")


class NodeStats:
    """``peer -> EdgeStats`` mapping view over a node's out-edges.

    Lives at ``node.stats`` and reads like the dict it replaced:
    ``node.stats[peer].bytes_sent``, iteration over peers, ``len``.
    Lookup registers the edge on first touch, so peers
    wired up by direct ``node.peers[other] = Link(...)`` assignment
    (bypassing ``connect``) are handled too.
    """

    __slots__ = ("_node",)

    def __init__(self, node):
        self._node = node

    def _edge_id(self, peer) -> int:
        node = self._node
        link = node.peers.get(peer)
        if link is None or link.edge < 0:
            eid = node._net.edge(node.nid, peer.nid)
            if link is not None:
                link.edge = eid
            return eid
        return link.edge

    def __getitem__(self, peer) -> EdgeStats:
        node = self._node
        if peer not in node.peers:
            raise KeyError(peer)
        return EdgeStats(node._net, self._edge_id(peer))

    def __contains__(self, peer) -> bool:
        return peer in self._node.peers

    def __iter__(self):
        return iter(self._node.peers)

    def __len__(self) -> int:
        return len(self._node.peers)
