"""Topology builders for the network simulator.

Blockchain p2p networks are "often a clique among miners ... and a
random topology among non-mining full nodes" (paper 2.2).  These
helpers wire :class:`~repro.net.node.Node` objects accordingly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.net.node import Node
from repro.net.simulator import Link


def _link(latency: float, bandwidth: float,
          loss_rate: float = 0.0) -> Link:
    # loss_seed stays None: Node.connect derives one per (src, dst)
    # pair, so lossy links drop independent message streams.
    return Link(latency=latency, bandwidth=bandwidth, loss_rate=loss_rate)


def connect_clique(nodes: Sequence[Node], latency: float = 0.05,
                   bandwidth: float = 1_000_000.0,
                   loss_rate: float = 0.0) -> None:
    """Fully connect ``nodes`` (the miner core)."""
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            a.connect(b, _link(latency, bandwidth, loss_rate))


def connect_line(nodes: Sequence[Node]) -> None:
    """Chain ``nodes`` in a line (worst-case propagation diameter) over
    default links: 50 ms, 1 MB/s, loss-free."""
    for a, b in zip(nodes, nodes[1:]):
        a.connect(b)


def _steger_wormald_edges(degree: int, n: int,
                          rng: random.Random) -> List[Tuple[int, int]]:
    """A random ``degree``-regular simple graph on ``range(n)``.

    A draw-for-draw port of networkx 3.6.1's ``random_regular_graph``
    (Steger & Wormald, "Generating random regular graphs quickly",
    1999): pair shuffled stubs, keep the simple edges, re-pair the
    stubs of rejected pairs, and start over when no suitable pair is
    left.  The edges come back in networkx's ``Graph.edges`` order, so a
    seed wires the same overlay with or without networkx installed.
    """

    def suitable(edges: set, potential: dict) -> bool:
        if not potential:
            return True
        for s1 in potential:
            for s2 in potential:
                # networkx rebinds the outer loop's variable here, and
                # the next inner test reads the rebound value: kept, or
                # some (degree, n, seed) draws retry differently.
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def attempt() -> Optional[set]:
        edges: set = set()
        stubs = list(range(n)) * degree
        while stubs:
            potential: dict = {}
            rng.shuffle(stubs)
            pairs = iter(stubs)
            for s1, s2 in zip(pairs, pairs):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential[s1] = potential.get(s1, 0) + 1
                    potential[s2] = potential.get(s2, 0) + 1
            if not suitable(edges, potential):
                return None
            stubs = [node for node, count in potential.items()
                     for _ in range(count)]
        return edges

    edges = attempt()
    while edges is None:
        edges = attempt()
    # Graph.add_edges_from, then Graph.edges: each node's neighbours in
    # insertion order, each edge once, from its lower end.
    adjacency: List[dict] = [{} for _ in range(n)]
    for a, b in edges:
        adjacency[a][b] = adjacency[b][a] = None
    return [(a, b) for a in range(n) for b in adjacency[a] if b > a]


def _is_connected(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    neighbours: List[list] = [[] for _ in range(n)]
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen = {0}
    frontier = [0]
    while frontier:
        for peer in neighbours[frontier.pop()]:
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return len(seen) == n


#: Steger–Wormald draws :func:`connect_random_regular` tries before it
#: gives up on a connected graph.
REGULAR_GRAPH_TRIES = 100


def connect_random_regular(nodes: Sequence[Node], degree: int = 8,
                           latency: float = 0.05,
                           bandwidth: float = 1_000_000.0,
                           rng: Optional[random.Random] = None,
                           loss_rate: float = 0.0) -> None:
    """Wire a connected ``degree``-regular random graph.

    Each try seeds a fresh Steger–Wormald draw from ``rng`` -- the
    algorithm and draw order of networkx's ``random_regular_graph``,
    ported so the simulator does not import networkx -- and keeps the
    first connected result (low degrees, e.g. unions of cycles at
    degree 2, can come out disconnected; a p2p overlay must not).
    :data:`REGULAR_GRAPH_TRIES` tries without one raise.  With
    ``len(nodes) <= degree`` the graph is a clique.  Mirrors Bitcoin's
    default of 8 outbound connections.
    """
    if degree < 1:
        raise ParameterError(f"degree must be >= 1, got {degree}")
    if len(nodes) <= degree:
        connect_clique(nodes, latency, bandwidth, loss_rate)
        return
    rng = rng or random.Random(0)
    if len(nodes) * degree % 2:
        raise ParameterError(
            f"n * degree must be even: n={len(nodes)}, degree={degree}")
    for _ in range(REGULAR_GRAPH_TRIES):
        edges = _steger_wormald_edges(
            degree, len(nodes), random.Random(rng.randrange(2**31)))
        if _is_connected(len(nodes), edges):
            for a, b in edges:
                nodes[a].connect(nodes[b],
                                 _link(latency, bandwidth, loss_rate))
            return
    raise ParameterError(
        f"no connected {degree}-regular graph on {len(nodes)} nodes "
        f"in {REGULAR_GRAPH_TRIES} tries")


#: :class:`GeoLinkModel`'s shape: a link's one-way latency is
#: ``GEO_BASE_LATENCY + distance * GEO_LATENCY_PER_UNIT`` seconds,
#: scaled by a seeded jitter of ``+-GEO_JITTER / 2``, and each
#: direction's bandwidth is drawn from ``GEO_BANDWIDTH_CLASSES``
#: (bytes/s) with ``GEO_BANDWIDTH_WEIGHTS`` -- a mix that leans
#: residential, like the networks the paper measures against.
GEO_BASE_LATENCY = 0.01
GEO_LATENCY_PER_UNIT = 0.12
GEO_JITTER = 0.2
GEO_BANDWIDTH_CLASSES = (2_000_000.0, 10_000_000.0, 50_000_000.0)
GEO_BANDWIDTH_WEIGHTS = (0.5, 0.35, 0.15)


@dataclass(frozen=True)
class GeoLinkModel:
    """Seeded geo-ish latency/bandwidth model for generated topologies.

    Measured p2p networks don't have uniform links: latency tracks
    geographic distance and access bandwidth is skewed across a few
    tiers.  This model places each node at a seeded position on the
    unit square and draws each link from the ``GEO_*`` shape above;
    ``loss_rate`` is every link's.

    All randomness flows through the ``rng`` handed in by the topology
    builder, so one seed reproduces the whole graph: positions, edges,
    and every link parameter.
    """

    loss_rate: float = 0.0

    def positions(self, n: int,
                  rng: random.Random) -> List[Tuple[float, float]]:
        """Seeded node positions on the unit square."""
        return [(rng.random(), rng.random()) for _ in range(n)]

    def link(self, pos_a: Tuple[float, float], pos_b: Tuple[float, float],
             rng: random.Random) -> Link:
        """One direction of a link between nodes at ``pos_a``/``pos_b``."""
        distance = math.hypot(pos_a[0] - pos_b[0], pos_a[1] - pos_b[1])
        spread = 1 + GEO_JITTER * (rng.random() - 0.5)
        latency = (GEO_BASE_LATENCY
                   + distance * GEO_LATENCY_PER_UNIT) * spread
        bandwidth = rng.choices(GEO_BANDWIDTH_CLASSES,
                                weights=GEO_BANDWIDTH_WEIGHTS)[0]
        return Link(latency=latency, bandwidth=bandwidth,
                    loss_rate=self.loss_rate)


def connect_scale_free(nodes: Sequence[Node], m: int = 4,
                       rng: Optional[random.Random] = None,
                       link_model: Optional[GeoLinkModel] = None) -> None:
    """Wire a Barabási–Albert preferential-attachment graph.

    Each arriving node attaches to ``m`` distinct existing nodes chosen
    proportionally to current degree, after an initial ``m + 1``-clique
    seed.  The result is connected by construction with a power-law
    degree tail -- a few highly connected hubs over a long tail of
    degree-``m`` leaves, the shape measured for real overlay networks
    (and the one bitcoin-simulator-style studies generate).  Mean
    degree approaches ``2 m``.

    Each direction of each edge is drawn from ``link_model`` (a
    loss-free :class:`GeoLinkModel` by default) using the same ``rng``
    -- one seed reproduces the entire weighted graph.  With
    ``len(nodes) <= m`` the graph degenerates to a clique.
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    rng = rng or random.Random(0)
    link_model = link_model or GeoLinkModel()
    n = len(nodes)
    positions = link_model.positions(n, rng)

    def make_link(i: int, j: int) -> Link:
        return link_model.link(positions[i], positions[j], rng)

    def wire(i: int, j: int) -> None:
        nodes[i].connect(nodes[j], make_link(i, j), make_link(j, i))

    if n <= m + 1:
        for i in range(n):
            for j in range(i + 1, n):
                wire(i, j)
        return
    # The urn: node index repeated once per unit of degree, so a
    # uniform draw is degree-proportional.
    urn: List[int] = []
    seed_count = m + 1
    for i in range(seed_count):
        for j in range(i + 1, seed_count):
            wire(i, j)
        urn.extend([i] * m)
    for i in range(seed_count, n):
        targets: set = set()
        while len(targets) < m:
            targets.add(rng.choice(urn))
        for j in sorted(targets):
            wire(i, j)
            urn.append(j)
        urn.extend([i] * m)
