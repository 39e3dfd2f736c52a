"""Monte-Carlo drivers for every figure in the paper's evaluation.

Each ``figNN_rows`` function runs the experiment behind the matching
figure and returns a list of plain dict rows -- the same series the
paper plots.  The benchmark harness under ``benchmarks/`` times these
and prints the rows; EXPERIMENTS.md records paper-vs-measured values.

Every driver takes ``trials`` and ``seed`` so runtime scales to taste
and results are reproducible.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

import numpy as np

from repro.baselines.compact_blocks import compact_blocks_bytes
from repro.baselines.difference_digest import DifferenceDigestRelay
from repro.baselines.full_block import full_block_bytes
from repro.baselines.xthin import xthin_star_bytes
from repro.chain.ordering import ordering_info_bytes
from repro.chain.scenarios import (
    make_block_scenario,
    make_sync_scenario,
    mempool_multiple_to_extra,
)
from repro.core.bounds import BETA_DEFAULT, x_star, y_star
from repro.core.engine import GrapheneReceiverEngine, GrapheneSenderEngine
from repro.core.mempool_sync import synchronize_mempools
from repro.core.params import GrapheneConfig, optimize_a
from repro.core.session import BlockRelaySession
from repro.net.transport import LoopbackTransport
from repro.pds.hypergraph import decode_many
from repro.pds.iblt import IBLT
from repro.pds.param_table import default_param_table
from repro.pds.pingpong import pingpong_decode
from repro.utils.stats import binomial_sample

#: Block sizes used across the paper's simulations (section 5.3): ETH/BCH
#: average, BTC average, and a large-block scenario.
PAPER_BLOCK_SIZES = (200, 2000, 10000)

_STATIC_TAU = 1.5
_STATIC_K = 4


# ---------------------------------------------------------------------------
# Figures 7 and 10: IBLT parameterization quality
# ---------------------------------------------------------------------------

def fig07_rows(j_values: Sequence[int] = (10, 50, 100, 200, 500, 1000),
               denoms: Sequence[int] = (24, 240, 2400),
               trials: int = 2000, seed: int = 7) -> list[dict]:
    """Decode failure rates: static (k=4, tau=1.5) vs optimal parameters."""
    rng = np.random.default_rng(seed)
    rows = []
    for j in j_values:
        static_c = int(j * _STATIC_TAU)
        static_c += -static_c % _STATIC_K
        static_c = max(static_c, _STATIC_K)
        fails = trials - decode_many(j, _STATIC_K, static_c, trials, rng)
        rows.append({"j": j, "scheme": "static", "target_failure": None,
                     "cells": static_c, "failure_rate": fails / trials})
        for denom in denoms:
            params = default_param_table(denom).params_for(j)
            fails = trials - decode_many(j, params.k, params.cells, trials, rng)
            rows.append({"j": j, "scheme": "optimal",
                         "target_failure": 1.0 / denom,
                         "cells": params.cells,
                         "failure_rate": fails / trials})
    return rows


def fig10_rows(j_values: Sequence[int] = (10, 50, 100, 200, 300, 500, 1000),
               denoms: Sequence[int] = (24, 240, 2400)) -> list[dict]:
    """IBLT size in cells: optimal tables vs the static parameterization."""
    rows = []
    for j in j_values:
        static_c = max(_STATIC_K, int(j * _STATIC_TAU))
        rows.append({"j": j, "scheme": "static", "cells": static_c,
                     "target_failure": None})
        for denom in denoms:
            params = default_param_table(denom).params_for(j)
            rows.append({"j": j, "scheme": "optimal", "cells": params.cells,
                         "k": params.k, "target_failure": 1.0 / denom})
    return rows


# ---------------------------------------------------------------------------
# Figure 11: ping-pong decoding
# ---------------------------------------------------------------------------

def fig11_rows(j_values: Sequence[int] = (10, 20, 50, 100),
               sibling_fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
               trials: int = 500, seed: int = 11,
               denom: int = 240) -> list[dict]:
    """Single-IBLT vs ping-pong failure rates with a smaller sibling.

    Inserts the same ``j`` random items into an optimally sized IBLT and
    a sibling sized for ``i = fraction * j`` items (independent seed),
    mirroring Fig. 11's setup.
    """
    table = default_param_table(denom)
    rng = random.Random(seed)
    rows = []
    for j in j_values:
        main = table.params_for(j)
        single_fail = 0
        pair_fail = {frac: 0 for frac in sibling_fractions}
        for _ in range(trials):
            items = [rng.getrandbits(64) for _ in range(j)]
            primary = IBLT(main.cells, k=main.k, seed=rng.getrandbits(30))
            primary.update(items)
            if not primary.decode().complete:
                single_fail += 1
            for frac in sibling_fractions:
                i = max(1, int(round(frac * j)))
                sib_params = table.params_for(i)
                sibling = IBLT(sib_params.cells, k=sib_params.k,
                               seed=rng.getrandbits(30) | 1)
                sibling.update(items)
                if not pingpong_decode(primary, sibling).complete:
                    pair_fail[frac] += 1
        rows.append({"j": j, "scheme": "single", "sibling": None,
                     "failure_rate": single_fail / trials})
        for frac in sibling_fractions:
            rows.append({"j": j, "scheme": "pingpong",
                         "sibling": max(1, int(round(frac * j))),
                         "failure_rate": pair_fail[frac] / trials})
    return rows


# ---------------------------------------------------------------------------
# Figures 12 and 13: deployment-shaped experiments
# ---------------------------------------------------------------------------

def fig12_rows(block_sizes: Sequence[int] = (50, 200, 500, 1000, 2000,
                                             3000, 4000, 5000),
               mempool_extra: int = 4000, trials: int = 5,
               seed: int = 12) -> list[dict]:
    """Protocol 1 vs XThin* as block size grows (the BCH deployment shape).

    ``mempool_extra`` models the receiver's typical extra mempool
    transactions beyond the block; the deployment held mempools a few
    thousand transactions deep.
    """
    rows = []
    session = BlockRelaySession()
    for n in block_sizes:
        graphene_total = 0
        failures = 0
        for t in range(trials):
            scenario = make_block_scenario(n, mempool_extra, 1.0,
                                           seed=seed + 1000 * t + n)
            outcome = session.relay(scenario.block,
                                    scenario.receiver_mempool)
            graphene_total += outcome.cost.total()
            if not outcome.success:
                failures += 1
        rows.append({"n": n,
                     "graphene_bytes": graphene_total / trials,
                     "xthin_star_bytes": xthin_star_bytes(n),
                     "failures": failures, "trials": trials})
    return rows


def fig13_rows(block_sizes: Sequence[int] = (25, 50, 100, 200, 400, 700,
                                             1000),
               mempool_size: int = 60000, trials: int = 3,
               mean_tx_size: int = 110, seed: int = 13) -> list[dict]:
    """Protocol 1 vs full blocks and the 8 B/txn ideal (Ethereum shape).

    The receiver mempool is pinned at 60,000 transactions like the
    paper's Geth replay; Graphene's cost includes ordering information
    since Ethereum has no CTOR (section 6.2).
    """
    rows = []
    session = BlockRelaySession(include_ordering_cost=True)
    for n in block_sizes:
        extra = mempool_size - n
        graphene_total = 0
        full_total = 0
        for t in range(trials):
            scenario = make_block_scenario(
                n, extra, 1.0, seed=seed + 1000 * t + n,
                mean_tx_size=mean_tx_size)
            outcome = session.relay(scenario.block,
                                    scenario.receiver_mempool)
            graphene_total += outcome.cost.total()
            full_total += full_block_bytes(scenario.block)
        rows.append({"n": n,
                     "graphene_bytes": graphene_total / trials,
                     "full_block_bytes": full_total / trials,
                     "ideal_8B_bytes": 8 * n,
                     "ordering_bytes": ordering_info_bytes(n)})
    return rows


# ---------------------------------------------------------------------------
# Figures 14 and 15: Protocol 1 size and decode rate vs mempool size
# ---------------------------------------------------------------------------

def fig14_rows(block_sizes: Sequence[int] = PAPER_BLOCK_SIZES,
               multiples: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0,
                                             5.0),
               trials: int = 5, seed: int = 14) -> list[dict]:
    """Protocol 1 bytes vs Compact Blocks as the mempool multiple grows."""
    rows = []
    session = BlockRelaySession()
    for n in block_sizes:
        for multiple in multiples:
            extra = mempool_multiple_to_extra(n, multiple)
            total = 0
            for t in range(trials):
                scenario = make_block_scenario(
                    n, extra, 1.0, seed=seed + 7919 * t + n + int(multiple * 13))
                outcome = session.relay(scenario.block,
                                        scenario.receiver_mempool)
                total += outcome.cost.total()
            rows.append({"n": n, "multiple": multiple,
                         "graphene_bytes": total / trials,
                         "compact_blocks_bytes": compact_blocks_bytes(n)})
    return rows


def fig15_rows(block_sizes: Sequence[int] = PAPER_BLOCK_SIZES,
               multiples: Sequence[float] = (0.5, 1.0, 2.0, 5.0),
               trials: int = 200, seed: int = 15,
               beta: float = BETA_DEFAULT) -> list[dict]:
    """Protocol 1 decode failure rate; target is 1 - beta (1/240).

    Uses the protocol's actual data structures per trial, so both Bloom
    filter variance and IBLT decode failures contribute.
    """
    rows = []
    config = GrapheneConfig(beta=beta)
    for n in block_sizes:
        for multiple in multiples:
            extra = mempool_multiple_to_extra(n, multiple)
            failures = 0
            for t in range(trials):
                scenario = make_block_scenario(
                    n, extra, 1.0, seed=seed + 104729 * t + n + int(multiple * 17))
                # One engine round: getdata -> P1 payload -> decode;
                # escalation to Protocol 2 counts as a P1 failure.
                sender = GrapheneSenderEngine(scenario.block, config)
                receiver = GrapheneReceiverEngine(scenario.receiver_mempool,
                                                  config)
                action = receiver.start()
                reply = sender.handle(action.command, action.message)
                receiver.handle(reply.command, reply.message)
                if not receiver.p1_success:
                    failures += 1
            rows.append({"n": n, "multiple": multiple, "trials": trials,
                         "failure_rate": failures / trials,
                         "target": 1.0 - beta})
    return rows


# ---------------------------------------------------------------------------
# Figures 16 and 17: Protocol 2 decode rate and message breakdown
# ---------------------------------------------------------------------------

def fig16_rows(block_sizes: Sequence[int] = PAPER_BLOCK_SIZES,
               fractions: Sequence[float] = (0.1, 0.5, 0.9, 0.99),
               trials: int = 100, mempool_multiple: float = 1.0,
               seed: int = 16) -> list[dict]:
    """Protocol 2 decode failure, with and without ping-pong decoding."""
    rows = []
    config = GrapheneConfig()
    for n in block_sizes:
        extra = mempool_multiple_to_extra(n, mempool_multiple)
        for fraction in fractions:
            solo_fail = 0
            pingpong_fail = 0
            for t in range(trials):
                scenario = make_block_scenario(
                    n, extra, fraction,
                    seed=seed + 65537 * t + n + int(fraction * 1000))
                # Full engine exchange; the receiver records whether
                # Protocol 2 ran and how its IBLT decode went.
                sender = GrapheneSenderEngine(scenario.block, config)
                receiver = GrapheneReceiverEngine(scenario.receiver_mempool,
                                                  config)
                LoopbackTransport(sender, receiver).run()
                if receiver.protocol_used == 1:
                    continue
                if not receiver.p2_decode_solo:
                    solo_fail += 1
                if not receiver.p2_decode_complete:
                    pingpong_fail += 1
            rows.append({"n": n, "fraction": fraction, "trials": trials,
                         "failure_without_pingpong": solo_fail / trials,
                         "failure_with_pingpong": pingpong_fail / trials})
    return rows


def fig17_rows(block_sizes: Sequence[int] = PAPER_BLOCK_SIZES,
               fractions: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 0.99),
               trials: int = 5, mempool_multiple: float = 1.0,
               seed: int = 17) -> list[dict]:
    """Protocol 2 cost split by message type vs fraction of block held."""
    rows = []
    session = BlockRelaySession()
    for n in block_sizes:
        extra = mempool_multiple_to_extra(n, mempool_multiple)
        for fraction in fractions:
            agg = None
            missing_total = 0
            for t in range(trials):
                scenario = make_block_scenario(
                    n, extra, fraction,
                    seed=seed + 31337 * t + n + int(fraction * 100))
                outcome = session.relay(scenario.block,
                                        scenario.receiver_mempool)
                agg = outcome.cost if agg is None else agg.merge(outcome.cost)
                missing_total += len(scenario.missing)
            parts = {key: value / trials for key, value in agg.as_dict().items()}
            missing = missing_total // trials
            rows.append({"n": n, "fraction": fraction, **parts,
                         "graphene_total": agg.total() / trials,
                         "compact_blocks_bytes":
                             compact_blocks_bytes(n, missing=missing)})
    return rows


# ---------------------------------------------------------------------------
# Figure 18: mempool synchronization (m = n)
# ---------------------------------------------------------------------------

def fig18_rows(block_sizes: Sequence[int] = PAPER_BLOCK_SIZES,
               fractions: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
               trials: int = 5, seed: int = 18) -> list[dict]:
    """Graphene mempool sync vs Compact Blocks as overlap varies."""
    rows = []
    for n in block_sizes:
        for fraction in fractions:
            total = 0
            sync_ok = 0
            for t in range(trials):
                scenario = make_sync_scenario(
                    n, fraction, seed=seed + 2221 * t + n + int(fraction * 10))
                result = synchronize_mempools(scenario.sender_mempool,
                                              scenario.receiver_mempool,
                                              transfer_missing=False)
                total += result.cost.total()
                if result.success:
                    sync_ok += 1
            missing = int(round((1.0 - fraction) * n))
            rows.append({"n": n, "fraction_common": fraction,
                         "graphene_bytes": total / trials,
                         "compact_blocks_bytes":
                             compact_blocks_bytes(n, missing=missing),
                         "success_rate": sync_ok / trials})
    return rows


# ---------------------------------------------------------------------------
# Figures 19 and 20: Theorem 2 / Theorem 3 empirical validation
# ---------------------------------------------------------------------------

def _bound_validation(block_sizes, fractions, trials, seed, beta, check):
    rows = []
    rng = random.Random(seed)
    config = GrapheneConfig(beta=beta)
    for n in block_sizes:
        m = 2 * n  # mempool multiple 1, like the paper's validation runs
        for fraction in fractions:
            x = int(round(fraction * n))
            plan = optimize_a(n, m, config)
            fpr = plan.fpr
            if fpr >= 1.0:
                continue
            holds = 0
            for _ in range(trials):
                y = binomial_sample(rng, m - x, fpr)
                z = x + y
                holds += check(z, m, fpr, beta, x, y, n)
            rows.append({"n": n, "fraction": fraction, "trials": trials,
                         "bound_holds_rate": holds / trials, "target": beta})
    return rows


def fig19_rows(block_sizes: Sequence[int] = PAPER_BLOCK_SIZES,
               fractions: Sequence[float] = (0.0, 0.3, 0.6, 0.9),
               trials: int = 2000, seed: int = 19,
               beta: float = BETA_DEFAULT) -> list[dict]:
    """Fraction of trials where Theorem 2's x* really lower-bounds x."""
    def check(z, m, fpr, beta, x, y, n):
        return x_star(z, m, fpr, beta=beta, n=n) <= x
    return _bound_validation(block_sizes, fractions, trials, seed, beta, check)


def fig20_rows(block_sizes: Sequence[int] = PAPER_BLOCK_SIZES,
               fractions: Sequence[float] = (0.0, 0.3, 0.6, 0.9),
               trials: int = 2000, seed: int = 20,
               beta: float = BETA_DEFAULT) -> list[dict]:
    """Fraction of trials where Theorem 3's y* really upper-bounds y."""
    def check(z, m, fpr, beta, x, y, n):
        return y_star(z, m, fpr, beta=beta, n=n) >= y
    return _bound_validation(block_sizes, fractions, trials, seed, beta, check)


# ---------------------------------------------------------------------------
# Section 5.1 and 5.3.2 comparisons
# ---------------------------------------------------------------------------

def sec51_rows(block_sizes: Sequence[int] = (50, 100, 200, 500, 1000, 2000,
                                             5000, 10000),
               mempool_factor: float = 2.0) -> list[dict]:
    """Graphene P1 vs Bloom-alone vs Compact Blocks, analytic (Theorem 4)."""
    from repro.analysis.theory import (
        exact_membership_bound_bytes,
        graphene_protocol1_bytes,
        graphene_vs_bloom_gain_bits,
    )
    from repro.baselines.bloom_only import bloom_only_bytes
    rows = []
    for n in block_sizes:
        m = int(n * mempool_factor)
        rows.append({
            "n": n, "m": m,
            "graphene_bytes": graphene_protocol1_bytes(n, m),
            "bloom_only_bytes": bloom_only_bytes(n, m),
            "compact_blocks_bytes": compact_blocks_bytes(n, short_id_bytes=6),
            "info_bound_bytes": exact_membership_bound_bytes(n, m),
            "gain_bits": graphene_vs_bloom_gain_bits(n, m),
        })
    return rows


def sec532_rows(block_sizes: Sequence[int] = (200, 2000),
                fractions: Sequence[float] = (0.8, 0.9, 0.95),
                trials: int = 5, mempool_multiple: float = 1.0,
                seed: int = 532) -> list[dict]:
    """Difference Digest (IBLT-only) vs Graphene on the same scenarios."""
    rows = []
    session = BlockRelaySession()
    digest = DifferenceDigestRelay()
    for n in block_sizes:
        extra = mempool_multiple_to_extra(n, mempool_multiple)
        for fraction in fractions:
            graphene_total = 0
            digest_total = 0
            digest_ok = 0
            for t in range(trials):
                scenario = make_block_scenario(
                    n, extra, fraction,
                    seed=seed + 911 * t + n + int(fraction * 100))
                graphene_total += session.relay(
                    scenario.block, scenario.receiver_mempool).cost.total()
                outcome = digest.relay(scenario.block,
                                       scenario.receiver_mempool)
                digest_total += outcome.total_bytes
                digest_ok += outcome.success
            rows.append({"n": n, "fraction": fraction,
                         "graphene_bytes": graphene_total / trials,
                         "difference_digest_bytes": digest_total / trials,
                         "digest_success_rate": digest_ok / trials})
    return rows


# ---------------------------------------------------------------------------
# Extensions (not paper figures): fork rates and throughput ceilings
# ---------------------------------------------------------------------------

def forkrate_rows(block_sizes: Sequence[int] = (200, 1000, 4000),
                  trials: Optional[int] = None) -> list[dict]:
    """Analytic fork probability per protocol (Decker-Wattenhofer model).

    ``trials`` is accepted for CLI uniformity and ignored (the model is
    deterministic given the measured propagation delay).
    """
    from repro.analysis.forks import fork_rate_curve
    from repro.net.node import RelayProtocol
    rows = []
    for protocol in (RelayProtocol.GRAPHENE, RelayProtocol.COMPACT_BLOCKS,
                     RelayProtocol.FULL_BLOCK):
        rows.extend(fork_rate_curve(protocol, block_sizes=block_sizes,
                                    nodes=8, degree=3,
                                    bandwidth=120_000.0, seed=11))
    return rows


def throughput_rows(fork_budget: float = 0.01,
                    trials: Optional[int] = None) -> list[dict]:
    """Max TPS per protocol under a fork budget (section 1's claim)."""
    from repro.analysis.throughput import throughput_table
    return throughput_table(fork_budget=fork_budget,
                            bandwidth=100_000.0, n_ceiling=200_000)
