#!/usr/bin/env python
"""End-to-end smoke test of the relay stack over the network simulator.

A fast, deterministic check that the engines, transports and node
wiring hold together outside the unit-test harness:

* a five-node Graphene network (one lossy link) propagates a block to
  every node and the loopback session accounts byte-for-byte the same
  cost as the simulated relay's telemetry stream;
* the same block propagates over Compact Blocks, XThin and full-block
  networks (every baseline protocol's wiring stays healthy);
* a mempool sync over the wire converges two diverged pools;
* a 20-node Graphene topology with 5% loss on every link converges
  through the recovery ladder (timeouts/retries visible, no stranded
  fetch state), and the metrics registry folded from its telemetry
  agrees part-for-part with ``CostBreakdown.from_events``;
* a 100-node scale-free propagation run (multiple blocks over
  sustained tx ingest) delivers every block everywhere, every relay
  stream holds its per-message events, those streams pass the same
  per-stream checks (parts fold, honest retries) as the chaos run's,
  and the metrics fold over them satisfies the part-for-part
  accounting invariant.

Every check is recorded as a named invariant in a
:class:`~repro.obs.report.RunReport` written to
``results/run_report.json`` (see ``scripts/check_run_report.py``), so
CI catches *accounting drift* -- double-charged retries, a simulator
that diverges from the loopback costs -- not just crashes.  The script
exits nonzero if any invariant failed.

Usage::

    python scripts/smoke_net.py [--report PATH]
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.chain.scenarios import make_block_scenario, make_sync_scenario
from repro.core.session import BlockRelaySession
from repro.core.sizing import CostBreakdown
from repro.net import (
    Link,
    Node,
    RelayProtocol,
    Simulator,
    connect_line,
    connect_random_regular,
)
from repro.obs import (
    RunReport,
    check_cost_parity,
    check_metrics_match_costs,
    check_stream_invariants,
)

DEFAULT_REPORT = REPO / "results" / "run_report.json"


def build_network(protocol: RelayProtocol, scenario):
    """Five nodes in a line, one lossy middle link, shared mempools."""
    sim = Simulator()
    nodes = [Node(f"n{i}", sim, protocol=protocol) for i in range(5)]
    connect_line(nodes[:3])
    # Middle hop is lossy: seed 10 survives this exchange, so the relay
    # still completes while the drop machinery is genuinely exercised.
    nodes[2].connect(nodes[3], Link(loss_rate=0.1, loss_seed=10),
                     Link(loss_rate=0.1, loss_seed=11))
    nodes[3].connect(nodes[4])
    for node in nodes[1:]:
        node.mempool.add_many(scenario.receiver_mempool.transactions())
    return sim, nodes


def smoke_relay(protocol: RelayProtocol, report: RunReport) -> None:
    scenario = make_block_scenario(n=120, extra=120, fraction=1.0, seed=7)
    sim, nodes = build_network(protocol, scenario)
    nodes[0].mine_block(scenario.block)
    sim.run()
    root = scenario.block.header.merkle_root
    missing = [n.node_id for n in nodes if root not in n.blocks]
    # Coverage is when the last node got the block, not when the queue
    # drained (trailing messages and timers run past it).
    covered_at = max(n.block_arrival.get(root, 0.0) for n in nodes)
    if report.check(f"{protocol.value}_line_coverage", not missing,
                    f"missing: {missing}" if missing
                    else f"5/5 nodes in {covered_at:.3f}s simulated"):
        print(f"ok: {protocol.value} block reached all 5 nodes "
              f"in {covered_at:.3f}s simulated (queue drained at "
              f"{sim.now:.3f}s)")
    else:
        print(f"FAIL: {protocol.value} block did not reach {missing}")

    if protocol is not RelayProtocol.GRAPHENE:
        return
    # Byte conservation: fold each receiver's simulated telemetry and
    # compare with the loopback session on an identical scenario.
    reference = make_block_scenario(n=120, extra=120, fraction=1.0, seed=7)
    outcome = BlockRelaySession().relay(reference.block,
                                        reference.receiver_mempool)
    parity_ok = True
    for node in nodes[1:]:
        sim_cost = CostBreakdown.from_events(node.relay_telemetry[root])
        inv = check_cost_parity(f"loopback_parity_{node.node_id}",
                                outcome.cost, sim_cost)
        report.invariants.append(inv)
        parity_ok &= inv.ok
    report.extend(check_stream_invariants(
        {(n.node_id, root): n.relay_telemetry[root] for n in nodes[1:]},
        prefix="line_relay"))
    if parity_ok:
        print(f"ok: loopback/simulator cost parity at all receivers "
              f"({outcome.total_bytes} bytes vs "
              f"{reference.block.serialized_size()} full block)")
    else:
        print("FAIL: loopback/simulator cost parity violated "
              "(see run report)")


def smoke_mempool_sync(report: RunReport) -> None:
    scenario = make_sync_scenario(n=400, fraction_common=0.7, seed=5)
    sim = Simulator()
    a = Node("a", sim)
    b = Node("b", sim)
    a.connect(b)
    a.mempool.add_many(scenario.sender_mempool.transactions())
    b.mempool.add_many(scenario.receiver_mempool.transactions())
    union = ({t.txid for t in a.mempool} | {t.txid for t in b.mempool})
    nonce = b.initiate_mempool_sync(a)
    sim.run()
    state = b.sync_result(nonce)
    succeeded = state is not None and state.succeeded
    converged = (succeeded
                 and {t.txid for t in a.mempool} == union
                 and {t.txid for t in b.mempool} == union)
    if report.check("mempool_sync_converges", converged,
                    f"both pools hold the union of {len(union)} txns"
                    if converged else "pools diverged after sync"):
        print(f"ok: mempool sync converged both pools to {len(union)} txns")
    else:
        print("FAIL: mempool sync did not converge")
    if succeeded:
        report.extend(check_stream_invariants({nonce: state.events},
                                              prefix="sync"))


def smoke_chaos(report: RunReport) -> None:
    """20 Graphene nodes, every link 5% lossy: recovery must win."""
    from repro.obs import run_block_relay_scenario
    run = run_block_relay_scenario(nodes=20, degree=4, block_size=200,
                                   extra=200, loss=0.05, seed=2024,
                                   until=120.0)
    nodes = run.nodes
    report.check("chaos_coverage", run.covered == 20,
                 f"{run.covered}/20 nodes hold the block")
    timeouts = sum(n.relay_timeouts for n in nodes)
    retries = sum(n.relay_retries for n in nodes)
    report.check("chaos_loss_bites", timeouts > 0,
                 f"{timeouts} timeouts, {retries} retries"
                 if timeouts else "the loss never bit -- scenario is not "
                 "exercising recovery, repin the seeds")
    stranded = (sum(n.pending_fetches for n in nodes)
                + sum(len(n.announced_roots) for n in nodes))
    report.check("chaos_no_stranded_state", stranded == 0,
                 f"{stranded} stale fetch-state entries left behind")
    # Accounting: the metrics fold must equal CostBreakdown.from_events
    # over the same streams, and retries must recharge honest bytes.
    streams = run.relay_streams()
    report.extend(check_stream_invariants(streams, prefix="relay"))
    report.invariants.append(
        check_metrics_match_costs(run.registry, streams, prefix="relay"))
    report.add_metrics(run.registry)
    if run.covered == 20 and not stranded and timeouts:
        print(f"ok: chaos 20 nodes @ 5% loss converged in "
              f"{run.covered_at:.3f}s simulated ({timeouts} timeouts, "
              f"{retries} retries, no stranded state)")
    else:
        print("FAIL: chaos run violated an invariant (see run report)")


def smoke_scale(report: RunReport) -> None:
    """100 scale-free nodes, 10 blocks: the multi-block regime, on the
    same per-message streams as every smaller run."""
    from repro.obs import check_metrics_match_costs as check_costs
    from repro.obs import run_propagation_scenario
    run = run_propagation_scenario(nodes=100, degree=8, blocks=10,
                                   block_txns=16, interval=1.0, seed=2026)
    report.check("scale_coverage", run.coverage == 1.0,
                 f"{len(run.delays)} of {10 * 99} deliveries landed "
                 f"({run.coverage:.2%})")
    streams = run.relay_streams()
    retained = sum(len(events) for events in streams.values())
    holding = all(streams.values())
    report.check("scale_streams_hold_events", bool(streams) and holding,
                 f"{len(streams)} relay streams retain {retained} "
                 f"per-message events")
    # The per-stream checks and the metrics fold run on the streams
    # themselves, as in the chaos run.
    report.extend(check_stream_invariants(streams, prefix="scale"))
    report.invariants.append(
        check_costs(run.registry, streams, prefix="relay"))
    report.check("scale_forks_bounded", run.fork_rate <= 0.5,
                 f"fork rate {run.fork_rate:.2%} with 1s intervals")
    if run.coverage == 1.0 and holding:
        print(f"ok: scale 100 nodes x 10 blocks converged "
              f"(p50 {run.delay_quantile(0.5):.3f}s, "
              f"p99 {run.delay_quantile(0.99):.3f}s, fork rate "
              f"{run.fork_rate:.2%}, {retained} events retained)")
    else:
        print("FAIL: scale run violated an invariant (see run report)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", type=Path, default=DEFAULT_REPORT,
                        help="where to write the run report JSON")
    args = parser.parse_args(argv)

    report = RunReport(name="smoke_net",
                       context={"seed_chaos": 2024, "loss_chaos": 0.05})
    for protocol in RelayProtocol:
        smoke_relay(protocol, report)
    smoke_mempool_sync(report)
    smoke_chaos(report)
    smoke_scale(report)
    path = report.write(args.report)
    print(f"run report: {len(report.invariants)} invariants, "
          f"{len(report.failed)} failed -> {path}")
    if not report.ok:
        for inv in report.failed:
            print(f"SMOKE FAIL: {inv.name}: {inv.detail}")
        return 1
    print("smoke: all invariants held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
