"""Tests for the generated topologies (random-regular, scale-free, geo
link model)."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import deque

import pytest

import repro
from repro.errors import ParameterError
from repro.net.node import Node
from repro.net.simulator import Simulator
from repro.net import topology
from repro.net.topology import (
    GEO_BANDWIDTH_CLASSES,
    GEO_BASE_LATENCY,
    GEO_JITTER,
    GEO_LATENCY_PER_UNIT,
    GeoLinkModel,
    _is_connected,
    _steger_wormald_edges,
    connect_random_regular,
    connect_scale_free,
)
from tests.test_node_layer import GOLDEN


def build(n, m=4, seed=7, link_model=None):
    sim = Simulator()
    nodes = [Node(f"t{i:04d}", sim) for i in range(n)]
    connect_scale_free(nodes, m=m, rng=random.Random(seed),
                       link_model=link_model)
    return nodes


def edge_set(nodes):
    """Undirected edges as frozenset pairs of node ids."""
    return {frozenset((a.node_id, b.node_id))
            for a in nodes for b in a.peers}


class TestScaleFree:
    def test_seeded_reproducibility(self):
        model = GeoLinkModel()
        first = build(80, m=3, seed=42, link_model=model)
        second = build(80, m=3, seed=42, link_model=model)
        assert edge_set(first) == edge_set(second)
        # Link parameters reproduce too, not just the edge set.
        params_a = sorted(
            (a.node_id, b.node_id, link.latency, link.bandwidth)
            for a in first for b, link in a.peers.items())
        params_b = sorted(
            (a.node_id, b.node_id, link.latency, link.bandwidth)
            for a in second for b, link in a.peers.items())
        assert params_a == params_b

    def test_different_seeds_differ(self):
        assert edge_set(build(80, seed=1)) != edge_set(build(80, seed=2))

    def test_degree_distribution_shape(self):
        m = 4
        nodes = build(400, m=m, seed=11)
        degrees = sorted(len(node.peers) for node in nodes)
        # Every node attaches with at least m edges ...
        assert degrees[0] >= m
        # ... the mean approaches 2m (each edge counted twice) ...
        mean = sum(degrees) / len(degrees)
        assert 2 * m * 0.9 <= mean <= 2 * m * 1.1
        # ... and preferential attachment grows hubs far beyond the
        # median -- the power-law tail a uniform graph never shows.
        median = degrees[len(degrees) // 2]
        assert degrees[-1] >= 4 * m
        assert degrees[-1] >= 3 * median
        assert median <= 3 * m

    def test_connectivity_no_isolated_nodes(self):
        nodes = build(200, m=2, seed=5)
        seen = {nodes[0]}
        frontier = deque([nodes[0]])
        while frontier:
            for peer in frontier.popleft().peers:
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        assert len(seen) == len(nodes)

    def test_small_network_degenerates_to_clique(self):
        nodes = build(4, m=5, seed=3)
        assert all(len(node.peers) == 3 for node in nodes)

    def test_rejects_bad_m(self):
        sim = Simulator()
        nodes = [Node(f"x{i}", sim) for i in range(4)]
        with pytest.raises(ParameterError):
            connect_scale_free(nodes, m=0)

    def test_geo_links_without_model(self):
        def links(nodes):
            return [(link.latency, link.bandwidth, link.loss_rate)
                    for node in nodes for link in node.peers.values()]

        assert links(build(50, m=3, seed=9)) == links(
            build(50, m=3, seed=9, link_model=GeoLinkModel()))


class TestGeoLinkModel:
    def test_link_parameter_ranges(self):
        model = GeoLinkModel(loss_rate=0.02)
        nodes = build(120, m=4, seed=13, link_model=model)
        # Unit-square geometry: no two nodes are more than sqrt 2 apart.
        ceiling = ((GEO_BASE_LATENCY + math.sqrt(2) * GEO_LATENCY_PER_UNIT)
                   * (1 + GEO_JITTER / 2))
        floor = GEO_BASE_LATENCY * (1 - GEO_JITTER / 2)
        classes = set(GEO_BANDWIDTH_CLASSES)
        for node in nodes:
            for link in node.peers.values():
                assert floor - 1e-12 <= link.latency <= ceiling + 1e-12
                assert link.bandwidth in classes
                assert link.loss_rate == 0.02

    def test_bandwidth_mix_is_skewed(self):
        model = GeoLinkModel()
        nodes = build(200, m=4, seed=17, link_model=model)
        counts = {bw: 0 for bw in GEO_BANDWIDTH_CLASSES}
        total = 0
        for node in nodes:
            for link in node.peers.values():
                counts[link.bandwidth] += 1
                total += 1
        # The weighted draw must roughly honour its weights: the
        # heaviest class dominates and the rare class stays rare.
        assert counts[GEO_BANDWIDTH_CLASSES[0]] > total * 0.35
        assert counts[GEO_BANDWIDTH_CLASSES[-1]] < total * 0.30

    def test_latency_tracks_distance(self, monkeypatch):
        monkeypatch.setattr(topology, "GEO_JITTER", 0.0)
        model = GeoLinkModel()
        rng = random.Random(0)
        near = model.link((0.1, 0.1), (0.1, 0.2), rng)
        far = model.link((0.0, 0.0), (1.0, 1.0), rng)
        assert far.latency > near.latency
        assert math.isclose(
            far.latency,
            GEO_BASE_LATENCY + math.sqrt(2) * GEO_LATENCY_PER_UNIT)

    def test_validation(self):
        # The shape is constant; the one field reaches every Link the
        # model draws, which rejects a loss rate outside [0, 1).
        rng = random.Random(0)
        for loss_rate in (-0.1, 1.0):
            with pytest.raises(ParameterError):
                GeoLinkModel(loss_rate=loss_rate).link((0, 0), (1, 1), rng)


#: Node counts of the oracle grid: every small count (where the
#: Steger-Wormald loop retries most, e.g. degree 8 on 10, 12 or 21
#: nodes), then a spread up to 300.
_ORACLE_NS = (*range(4, 14), 16, 21, 33, 64, 101, 150, 300)


class TestRandomRegular:
    """The in-tree Steger-Wormald port against networkx, its oracle.

    networkx stays a dev extra: the package never imports it, and these
    tests skip without it.
    """

    @pytest.mark.parametrize("degree", range(1, 11))
    def test_edges_and_verdict_equal_networkx(self, degree):
        nx = pytest.importorskip("networkx")
        shapes = [n for n in _ORACLE_NS if degree < n and n * degree % 2 == 0]
        for n in shapes:
            for seed in range(40):
                graph = nx.random_regular_graph(degree, n, seed=seed)
                edges = _steger_wormald_edges(degree, n, random.Random(seed))
                assert edges == list(graph.edges), (degree, n, seed)
                assert _is_connected(n, edges) == nx.is_connected(graph)

    @pytest.mark.parametrize("degree,n,seed", [(2, 30, 1), (4, 20, 2024),
                                               (8, 21, 7), (8, 200, 5)])
    def test_wiring_equals_the_networkx_loop(self, degree, n, seed):
        """Node by node, peers in the order networkx's ``Graph.edges``
        and the first connected draw would have connected them."""
        nx = pytest.importorskip("networkx")
        sim = Simulator()
        nodes = [Node(f"r{i:03d}", sim) for i in range(n)]
        connect_random_regular(nodes, degree=degree, rng=random.Random(seed))
        rng = random.Random(seed)
        while True:
            graph = nx.random_regular_graph(degree, n,
                                            seed=rng.randrange(2**31))
            if nx.is_connected(graph):
                break
        expected = [[] for _ in range(n)]
        for a, b in graph.edges:
            expected[a].append(b)
            expected[b].append(a)
        index = {node: i for i, node in enumerate(nodes)}
        assert [[index[peer] for peer in node.peers] for node in nodes] \
            == expected

    def test_degree_two_retries_until_connected(self):
        """A 2-regular draw is a union of cycles, nearly always more than
        one at 60 nodes: the builder must keep drawing."""
        rng = random.Random(3)
        first = _steger_wormald_edges(2, 60,
                                      random.Random(rng.randrange(2**31)))
        assert not _is_connected(60, first)
        sim = Simulator()
        nodes = [Node(f"r{i:03d}", sim) for i in range(60)]
        connect_random_regular(nodes, degree=2, rng=random.Random(3))
        assert {len(node.peers) for node in nodes} == {2}
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(i, index[peer]) for i, node in enumerate(nodes)
                 for peer in node.peers]
        assert _is_connected(60, edges)

    def test_odd_stub_count_is_rejected(self):
        sim = Simulator()
        with pytest.raises(ParameterError):
            connect_random_regular([Node(f"o{i}", sim) for i in range(9)],
                                   degree=3)

    def test_the_relay_scenario_runs_without_networkx(self):
        """With networkx unimportable, a subprocess reproduces the node
        layer's golden runs and never tries to import it."""
        script = """if True:
            import builtins, json, sys
            sys.modules["networkx"] = None
            attempts = []
            real_import = builtins.__import__

            def watching(name, *args, **kwargs):
                if name.partition(".")[0] == "networkx":
                    attempts.append(name)
                return real_import(name, *args, **kwargs)

            builtins.__import__ = watching
            from repro.core.sizing import CostBreakdown
            from repro.obs.scenario import run_block_relay_scenario
            runs = {}
            for seed in json.loads(sys.argv[1]):
                run = run_block_relay_scenario(
                    nodes=20, degree=4, block_size=200, extra=200,
                    loss=0.05, seed=seed, trace=False)
                runs[seed] = [
                    run.simulator.events_processed,
                    sum(node.relay_retries for node in run.nodes),
                    sum(node.relay_timeouts for node in run.nodes),
                    sum(CostBreakdown.from_events(stream).total()
                        for stream in run.relay_streams().values()),
                    sorted(node.block_arrival[run.root]
                           for node in run.nodes)]
            print(json.dumps({"runs": runs, "attempts": attempts}))
        """
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(sorted(GOLDEN))],
            capture_output=True, text=True, env=env, timeout=120,
            check=True)
        out = json.loads(done.stdout)
        assert out["attempts"] == []
        assert {int(seed): tuple(row) for seed, row in out["runs"].items()} \
            == GOLDEN
