"""Hypergraph model of IBLT decoding (paper section 4.1).

An IBLT with ``c`` cells, ``k`` hash functions and ``j`` inserted items is
a k-partite, k-uniform hypergraph: cells are vertices (``c/k`` per
partition), items are hyperedges joining one uniformly random vertex from
each partition.  The IBLT decodes iff repeatedly removing edges incident
to a degree-1 vertex eliminates every edge -- i.e. iff the hypergraph has
an empty 2-core.

Because items enter the IBLT through cryptographic hashes, uniformly
random edges are a faithful model, and simulating the hypergraph is an
order of magnitude faster than exercising a real IBLT (the paper reports
29 s vs 426 s for j=100).  This module provides:

* :func:`decode_once` -- one peeling trial in pure Python, the
  specification the batch is tested against.
* :func:`decode_many` -- a numpy-vectorized batch of trials that peels
  all trials round-by-round in parallel; Algorithm 1
  (:mod:`repro.pds.param_search`) runs this one.
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import ParameterError


def _check_shape(j: int, k: int, c: int) -> None:
    if j < 0:
        raise ParameterError(f"j must be non-negative, got {j}")
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if c < k or c % k != 0:
        raise ParameterError(
            f"c must be a positive multiple of k (k={k}), got {c}")


def decode_once(j: int, k: int, c: int, rng: random.Random) -> bool:
    """Simulate one IBLT decode: ``j`` random edges over ``c`` cells.

    Returns True when the peeling removes every edge (empty 2-core).
    """
    _check_shape(j, k, c)
    if j == 0:
        return True
    width = c // k
    # edges[e] holds the k vertex ids of edge e.
    edges = [
        [p * width + rng.randrange(width) for p in range(k)]
        for _ in range(j)
    ]
    degree = [0] * c
    incident: list = [[] for _ in range(c)]
    for e, verts in enumerate(edges):
        for v in verts:
            degree[v] += 1
            incident[v].append(e)
    alive = [True] * j
    remaining = j
    stack = [v for v in range(c) if degree[v] == 1]
    while stack:
        v = stack.pop()
        if degree[v] != 1:
            continue
        # The single live edge at v.
        edge = next(e for e in incident[v] if alive[e])
        alive[edge] = False
        remaining -= 1
        for u in edges[edge]:
            degree[u] -= 1
            if degree[u] == 1:
                stack.append(u)
    return remaining == 0


def decode_many(j: int, k: int, c: int, trials: int,
                rng: np.random.Generator) -> int:
    """Run ``trials`` independent decode simulations; return success count.

    Vectorized: every trial's hypergraph is peeled simultaneously, one
    parallel round per iteration.  Within a round, every edge containing
    a degree-1 vertex is removed; this is a valid schedule because a
    degree-1 vertex pins exactly one live edge, so simultaneous removals
    never conflict.  Parallel peeling reaches the 2-core in O(log j)
    rounds with high probability.
    """
    _check_shape(j, k, c)
    if trials < 0:
        raise ParameterError(f"trials must be non-negative, got {trials}")
    if trials == 0:
        return 0
    if j == 0:
        return trials
    width = c // k
    offsets = (np.arange(k, dtype=np.int32) * width)[None, None, :]
    # verts[t, e, p]: vertex of edge e in partition p for trial t.
    verts = rng.integers(0, width, size=(trials, j, k), dtype=np.int32)
    verts += offsets

    alive = np.ones((trials, j), dtype=bool)
    successes = 0
    while verts.shape[0]:
        active = verts.shape[0]
        # Per-trial vertex ids made globally unique so one bincount covers
        # the whole batch.
        base = (np.arange(active, dtype=np.int64) * c)[:, None, None]
        flat = (verts + base).reshape(active, j * k)
        degree = np.bincount(
            flat[np.repeat(alive, k, axis=1)], minlength=active * c)
        deg1 = degree == 1
        # An edge is removable iff any of its vertices has degree 1; each
        # degree-1 vertex pins exactly one live edge, so removing all
        # removable edges in one parallel round never conflicts.
        removable = deg1[flat.reshape(active, j, k)].any(axis=2) & alive
        alive &= ~removable
        live_counts = alive.sum(axis=1)
        done = live_counts == 0
        stuck = ~done & ~removable.any(axis=1)
        successes += int(done.sum())
        keep = ~(done | stuck)
        if not keep.all():
            verts = verts[keep]
            alive = alive[keep]
    return successes
