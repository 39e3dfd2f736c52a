"""Empirical fork rates: mine real chains under each relay protocol.

Four miners with equal hash rate race over slow links.  Every block is
assembled on its miner's own tip, relayed with the chosen protocol
(Graphene's relay runs its genuine multi-message exchange), and lands
in each node's ledger -- so fork races, stale blocks and reorgs
emerge naturally instead of from a formula.

Run:  python examples/mining_forks.py
"""

from __future__ import annotations

from repro.net.node import RelayProtocol
from repro.obs import run_mining_scenario

SETTINGS = dict(blocks=40, miners=4, interval=20.0, block_txns=400,
                latency=0.3, bandwidth=15_000.0, seed=7)


def main() -> None:
    print("4 miners, 20 s block interval, 400-txn blocks, "
          "~120 kbit/s links\n")
    print(f"  {'protocol':<16} {'mined':>6} {'stale':>6} "
          f"{'fork rate':>10} {'reorgs':>7} {'height':>7}")
    for protocol in (RelayProtocol.GRAPHENE, RelayProtocol.COMPACT_BLOCKS,
                     RelayProtocol.XTHIN, RelayProtocol.FULL_BLOCK):
        run = run_mining_scenario(protocol, **SETTINGS)
        print(f"  {protocol.value:<16} {len(run.records):>6} "
              f"{run.forks:>6} {run.fork_rate:>10.1%} "
              f"{run.reorgs:>7} {run.ledger.height:>7}")
    print("\nStale blocks are mining income thrown away; the smaller the "
          "relay encoding, the rarer they get (paper section 1).")


if __name__ == "__main__":
    main()
