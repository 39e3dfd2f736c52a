"""Fork-rate analysis: why smaller block encodings matter (paper 1).

The introduction's argument chain: blocks that encode smaller propagate
faster; faster propagation means fewer forks (miners building on stale
tips); fewer forks means the chain can safely raise its block size and
throughput.  This module quantifies each link:

* :func:`fork_probability` -- with Poisson block discovery at mean
  interval ``T`` and network-wide propagation delay ``D``, a competing
  block is found during the vulnerable window with probability
  ``1 - exp(-D / T)`` (the classic Decker-Wattenhofer model the paper
  cites as [18]).
* :func:`~repro.obs.scenario.measure_propagation_delay` -- the
  simulated-network preset that runs one block and reports when the
  last node holds it (``covered_at``).
* :func:`max_block_size_for_budget` -- invert the chain: given a fork
  budget, how large can blocks grow under each relay protocol?
"""

from __future__ import annotations

import math

from repro.errors import ParameterError
from repro.net.node import RelayProtocol
from repro.obs.scenario import measure_propagation_delay

#: Bitcoin's mean inter-block interval in seconds.
BITCOIN_BLOCK_INTERVAL = 600.0


def fork_probability(delay: float,
                     block_interval: float = BITCOIN_BLOCK_INTERVAL) -> float:
    """``1 - exp(-D/T)``: chance a competing block lands within ``delay``."""
    if delay < 0:
        raise ParameterError(f"delay must be non-negative, got {delay}")
    if block_interval <= 0:
        raise ParameterError(
            f"block_interval must be positive, got {block_interval}")
    return 1.0 - math.exp(-delay / block_interval)


def delay_for_fork_budget(budget: float,
                          block_interval: float = BITCOIN_BLOCK_INTERVAL) -> float:
    """Invert :func:`fork_probability`: the largest acceptable delay."""
    if not 0.0 < budget < 1.0:
        raise ParameterError(f"budget must be in (0, 1), got {budget}")
    return -block_interval * math.log(1.0 - budget)


def fork_rate_curve(protocol: RelayProtocol,
                    block_sizes=(200, 1000, 4000),
                    block_interval: float = BITCOIN_BLOCK_INTERVAL,
                    **net_kwargs) -> list[dict]:
    """Fork probability as block size grows, for one relay protocol."""
    rows = []
    for n in block_sizes:
        measured = measure_propagation_delay(protocol, n, **net_kwargs)
        rows.append({
            "protocol": protocol.value,
            "n": n,
            "coverage_delay": measured.covered_at,
            "fork_probability": fork_probability(
                measured.covered_at, block_interval),
        })
    return rows


def max_block_size_for_budget(
        protocol: RelayProtocol, budget: float,
        candidates=(500, 1000, 2000, 4000, 8000, 16000),
        block_interval: float = BITCOIN_BLOCK_INTERVAL,
        **net_kwargs) -> int:
    """Largest candidate block size whose fork rate stays within budget.

    The headline claim of the paper's introduction, made operational:
    a relay protocol that shrinks encodings raises the admissible block
    size under the same fork budget.
    """
    allowed = delay_for_fork_budget(budget, block_interval)
    best = 0
    for n in candidates:
        measured = measure_propagation_delay(protocol, n, **net_kwargs)
        if measured.covered_at <= allowed:
            best = n
        else:
            break
    return best
