"""Extension: empirical fork rates from full mining simulation.

Complements ``bench_extension_fork_rate`` (which converts measured
propagation delays through the analytic 1 - e^(-D/T) model) by mining
actual chains: Poisson miners race, relay with each protocol, and the
stale blocks of the reference ledger are the fork count -- the quantity
the paper's introduction argues Graphene improves.
"""

from __future__ import annotations

from repro.net.node import RelayProtocol
from repro.obs import run_mining_scenario

# Deliberately stressed: 400-txn blocks over ~120 kbit/s links with a
# 20 s block interval, so relay time is a visible fraction of the
# interval and forks actually occur within a small block budget.
KWARGS = dict(blocks=40, miners=4, interval=20.0, block_txns=400,
              latency=0.3, bandwidth=15_000.0, seed=7)


def test_extension_mining_forks(benchmark, record_rows):
    def sweep():
        rows = []
        for protocol in (RelayProtocol.GRAPHENE,
                         RelayProtocol.COMPACT_BLOCKS,
                         RelayProtocol.FULL_BLOCK):
            run = run_mining_scenario(protocol, **KWARGS)
            rows.append({
                "protocol": protocol.value,
                "blocks_mined": len(run.records),
                "stale_blocks": run.forks,
                "fork_rate": run.fork_rate,
                "reorgs": run.reorgs,
                "main_chain_height": run.ledger.height,
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows("extension_mining_forks", rows)

    by_protocol = {row["protocol"]: row for row in rows}
    assert (by_protocol["graphene"]["fork_rate"]
            <= by_protocol["full_block"]["fork_rate"])
    assert by_protocol["full_block"]["stale_blocks"] >= 2
    # Compact encodings keep forks rare even under stress.
    assert by_protocol["graphene"]["fork_rate"] <= 0.15
