"""Tests for the generated topologies (scale-free + geo link model)."""

from __future__ import annotations

import math
import random
from collections import deque

import pytest

from repro.errors import ParameterError
from repro.net.node import Node
from repro.net.simulator import Simulator
from repro.net.topology import GeoLinkModel, connect_scale_free


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

    def test_uniform_links_without_model(self):
        nodes = build(50, m=3, seed=9)
        for node in nodes:
            for link in node.peers.values():
                assert link.latency == 0.05
                assert link.bandwidth == 1_000_000.0
                assert link.loss_rate == 0.0


class TestGeoLinkModel:
    def test_link_parameter_ranges(self):
        model = GeoLinkModel(loss_rate=0.02)
        nodes = build(120, m=4, seed=13, link_model=model)
        # Unit-square geometry: no two nodes are more than sqrt 2 apart.
        ceiling = ((model.base_latency + math.sqrt(2) * model.latency_per_unit)
                   * (1 + model.jitter / 2))
        floor = model.base_latency * (1 - model.jitter / 2)
        classes = set(model.bandwidth_classes)
        for node in nodes:
            for link in node.peers.values():
                assert floor - 1e-12 <= link.latency <= ceiling + 1e-12
                assert link.bandwidth in classes
                assert link.loss_rate == 0.02

    def test_bandwidth_mix_is_skewed(self):
        model = GeoLinkModel()
        nodes = build(200, m=4, seed=17, link_model=model)
        counts = {bw: 0 for bw in model.bandwidth_classes}
        total = 0
        for node in nodes:
            for link in node.peers.values():
                counts[link.bandwidth] += 1
                total += 1
        # The weighted draw must roughly honour its weights: the
        # heaviest class dominates and the rare class stays rare.
        assert counts[model.bandwidth_classes[0]] > total * 0.35
        assert counts[model.bandwidth_classes[-1]] < total * 0.30

    def test_latency_tracks_distance(self):
        model = GeoLinkModel(jitter=0.0)
        rng = random.Random(0)
        near = model.link((0.1, 0.1), (0.1, 0.2), rng)
        far = model.link((0.0, 0.0), (1.0, 1.0), rng)
        assert far.latency > near.latency
        assert math.isclose(
            far.latency,
            model.base_latency + math.sqrt(2) * model.latency_per_unit)

    def test_validation(self):
        with pytest.raises(ParameterError):
            GeoLinkModel(base_latency=0.0)
        with pytest.raises(ParameterError):
            GeoLinkModel(jitter=2.5)
        with pytest.raises(ParameterError):
            GeoLinkModel(bandwidth_classes=(1.0,),
                         bandwidth_weights=(0.5, 0.5))
