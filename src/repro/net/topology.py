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


def connect_line(nodes: Sequence[Node], latency: float = 0.05,
                 bandwidth: float = 1_000_000.0,
                 loss_rate: float = 0.0) -> None:
    """Chain ``nodes`` in a line (worst-case propagation diameter)."""
    for a, b in zip(nodes, nodes[1:]):
        a.connect(b, _link(latency, bandwidth, loss_rate))


def connect_random_regular(nodes: Sequence[Node], degree: int = 8,
                           latency: float = 0.05,
                           bandwidth: float = 1_000_000.0,
                           rng: Optional[random.Random] = None,
                           max_retries: int = 100,
                           loss_rate: float = 0.0) -> None:
    """Wire an (approximately) ``degree``-regular random graph.

    Uses the pairing model: each node gets ``degree`` stubs, stubs are
    shuffled and matched; self-loops and duplicate edges are retried.
    Mirrors Bitcoin's default of 8 outbound connections.
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
    try:
        import networkx as nx
        for _ in range(max_retries):
            graph = nx.random_regular_graph(degree, len(nodes),
                                            seed=rng.randrange(2**31))
            # Low-degree regular graphs (cycle unions at degree 2) can
            # come out disconnected; a p2p overlay must not.
            if nx.is_connected(graph):
                for a, b in graph.edges:
                    nodes[a].connect(nodes[b], _link(latency, bandwidth, loss_rate))
                return
        raise ParameterError(
            f"no connected {degree}-regular graph on {len(nodes)} nodes "
            f"in {max_retries} tries")
    except ImportError:  # pragma: no cover - networkx ships with the env
        pass
    # Fallback: pairing model, retried until a simple graph emerges.
    for _ in range(max_retries):
        stubs = [node for node in nodes for _ in range(degree)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a is b or (id(a), id(b)) in edges or (id(b), id(a)) in edges:
                ok = False
                break
            edges.add((id(a), id(b)))
        if ok:
            by_id = {id(node): node for node in nodes}
            for ida, idb in edges:
                by_id[ida].connect(by_id[idb], _link(latency, bandwidth, loss_rate))
            return
    raise ParameterError(
        f"failed to build a {degree}-regular graph in {max_retries} tries")


@dataclass(frozen=True)
class GeoLinkModel:
    """Seeded geo-ish latency/bandwidth model for generated topologies.

    Measured p2p networks don't have uniform links: latency tracks
    geographic distance and access bandwidth is skewed across a few
    tiers.  This model places each node at a seeded position on the
    unit square; a link's one-way latency is ``base_latency + distance
    * latency_per_unit`` scaled by a small seeded jitter, and each
    *direction* independently draws its bandwidth from
    ``bandwidth_classes`` with ``bandwidth_weights`` (the default mix
    leans residential, like the networks the paper measures against).

    All randomness flows through the ``rng`` handed in by the topology
    builder, so one seed reproduces the whole graph: positions, edges,
    and every link parameter.
    """

    base_latency: float = 0.01          #: seconds, zero-distance floor
    latency_per_unit: float = 0.12      #: seconds per unit of distance
    jitter: float = 0.2                 #: +-jitter/2 relative spread
    bandwidth_classes: Tuple[float, ...] = (
        2_000_000.0, 10_000_000.0, 50_000_000.0)
    bandwidth_weights: Tuple[float, ...] = (0.5, 0.35, 0.15)
    loss_rate: float = 0.0

    def __post_init__(self):
        if self.base_latency <= 0:
            raise ParameterError(
                f"base_latency must be > 0, got {self.base_latency}")
        if self.latency_per_unit < 0:
            raise ParameterError(
                f"latency_per_unit must be >= 0, got {self.latency_per_unit}")
        if not 0.0 <= self.jitter < 2.0:
            raise ParameterError(
                f"jitter must be in [0, 2), got {self.jitter}")
        if len(self.bandwidth_classes) != len(self.bandwidth_weights):
            raise ParameterError(
                "bandwidth_classes and bandwidth_weights lengths differ")

    def positions(self, n: int,
                  rng: random.Random) -> List[Tuple[float, float]]:
        """Seeded node positions on the unit square."""
        return [(rng.random(), rng.random()) for _ in range(n)]

    def link(self, pos_a: Tuple[float, float], pos_b: Tuple[float, float],
             rng: random.Random) -> Link:
        """One direction of a link between nodes at ``pos_a``/``pos_b``."""
        distance = math.hypot(pos_a[0] - pos_b[0], pos_a[1] - pos_b[1])
        spread = 1 + self.jitter * (rng.random() - 0.5)
        latency = (self.base_latency
                   + distance * self.latency_per_unit) * spread
        bandwidth = rng.choices(self.bandwidth_classes,
                                weights=self.bandwidth_weights)[0]
        return Link(latency=latency, bandwidth=bandwidth,
                    loss_rate=self.loss_rate)


def connect_scale_free(nodes: Sequence[Node], m: int = 4,
                       rng: Optional[random.Random] = None,
                       latency: float = 0.05,
                       bandwidth: float = 1_000_000.0,
                       loss_rate: float = 0.0,
                       link_model: Optional[GeoLinkModel] = None) -> None:
    """Wire a Barabási–Albert preferential-attachment graph.

    Each arriving node attaches to ``m`` distinct existing nodes chosen
    proportionally to current degree, after an initial ``m + 1``-clique
    seed.  The result is connected by construction with a power-law
    degree tail -- a few highly connected hubs over a long tail of
    degree-``m`` leaves, the shape measured for real overlay networks
    (and the one bitcoin-simulator-style studies generate).  Mean
    degree approaches ``2 m``.

    Link parameters are uniform (``latency``/``bandwidth``/
    ``loss_rate``) unless a :class:`GeoLinkModel` is given, in which
    case each direction of each edge is drawn from the model using the
    same ``rng`` -- one seed reproduces the entire weighted graph.
    With ``len(nodes) <= m`` the graph degenerates to a clique.
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    rng = rng or random.Random(0)
    n = len(nodes)
    positions = (link_model.positions(n, rng)
                 if link_model is not None else None)

    def make_link(i: int, j: int) -> Link:
        if link_model is None:
            return _link(latency, bandwidth, loss_rate)
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
