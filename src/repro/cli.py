"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the workflows a user reaches for first:

* ``relay``       -- relay one synthetic block, print per-protocol bytes.
* ``sync``        -- synchronize two mempools, print costs.
* ``iblt-params`` -- look up (or search live) optimal IBLT parameters.
* ``experiment``  -- run one figure's experiment driver, print its rows.
* ``attack``      -- run the section 6.1 collision attack summary.
* ``sim``         -- a simulated network from one preset (``relay``,
  ``netsim``, ``net``: up to 1000+ nodes, many blocks) through any view:
  the summary, ``--trace``, ``--report`` (tables and accounting
  invariants), ``--json``.  ``netsim`` / ``net`` / ``trace`` /
  ``report`` are aliases (the last two ``sim relay`` + their view).
* ``fuzz``        -- run the differential fuzzing engines; minimize and
  archive any failures as replayable corpus artifacts.
* ``serve``       -- announce and serve one synthetic block over real TCP.
* ``peer``        -- fetch a block from a node group (repeated
  ``--connect``, optional ``--listen``; ``--port`` names a single
  ``serve`` instance); optionally assert byte parity against the
  loopback relay of the same scenario.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.baselines.compact_blocks import CompactBlocksRelay
from repro.baselines.full_block import FullBlockRelay
from repro.baselines.xthin import XThinRelay
from repro.chain.scenarios import make_block_scenario, make_sync_scenario
from repro.core.engine import ENCODED_OPENINGS, SENDER_STEPS
from repro.core.mempool_sync import synchronize_mempools
from repro.core.params import GrapheneConfig
from repro.core.session import BlockRelaySession
from repro.errors import ParameterError
from repro.net.node import RelayProtocol

#: ``--protocol`` choices: the relay protocols a simulated node speaks.
_PROTOCOLS = [protocol.value for protocol in RelayProtocol]


def _cmd_relay(args) -> int:
    scenario = make_block_scenario(n=args.n, extra=args.extra,
                                   fraction=args.fraction, seed=args.seed)
    print(f"block: {scenario.n} txns, receiver mempool: {scenario.m} txns, "
          f"holds {args.fraction:.0%} of block")
    config = GrapheneConfig(protocol=3 if args.p3 else 1)
    outcome = BlockRelaySession(config).relay(scenario.block,
                                              scenario.receiver_mempool)
    print(f"  graphene       {outcome.total_bytes:>9,} B  "
          f"protocol {outcome.protocol_used}  {outcome.roundtrips} RTT  "
          f"success={outcome.success}")
    cb = CompactBlocksRelay().relay(scenario.block,
                                    scenario.receiver_mempool)
    print(f"  compact blocks {cb.total_bytes:>9,} B  {cb.roundtrips} RTT  "
          f"success={cb.success}")
    xthin = XThinRelay().relay(scenario.block, scenario.receiver_mempool)
    print(f"  xthin          {xthin.total_bytes:>9,} B  "
          f"{xthin.roundtrips} RTT  success={xthin.success}")
    full = FullBlockRelay().relay(scenario.block)
    print(f"  full block     {full.total_bytes:>9,} B")
    if args.breakdown:
        print("graphene breakdown:")
        for part, size in outcome.cost.as_dict().items():
            if size:
                print(f"  {part:<16}{size:>9,} B")
    return 0 if outcome.success else 1


def _cmd_sync(args) -> int:
    scenario = make_sync_scenario(n=args.n, fraction_common=args.common,
                                  seed=args.seed)
    result = synchronize_mempools(scenario.sender_mempool,
                                  scenario.receiver_mempool,
                                  GrapheneConfig(protocol=3 if args.p3
                                                 else 1))
    print(f"mempools of {args.n} txns, {args.common:.0%} common")
    print(f"  protocol {result.protocol_used}, {result.roundtrips} RTT, "
          f"{result.total_bytes:,} B encoding")
    print(f"  receiver gained {result.receiver_gained}, sender gained "
          f"{result.sender_gained}, synchronized={result.synchronized}")
    return 0 if result.synchronized else 1


def _cmd_iblt_params(args) -> int:
    if args.search:
        import numpy as np
        from repro.pds.param_search import optimal_parameters
        result = optimal_parameters(args.j, 1.0 - 1.0 / args.denom,
                                    rng=np.random.default_rng(args.seed))
        print(f"search: j={args.j} denom={args.denom} -> k={result.k} "
              f"cells={result.cells} tau={result.tau:.3f}")
    else:
        from repro.pds.param_table import default_param_table
        params = default_param_table(args.denom).params_for(args.j)
        print(f"table: j={args.j} denom={args.denom} -> k={params.k} "
              f"cells={params.cells} tau={params.cells / max(1, args.j):.3f}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.analysis import experiments
    driver = getattr(experiments, f"{args.name}_rows", None)
    if driver is None:
        names = sorted(n[:-5] for n in dir(experiments)
                       if n.endswith("_rows"))
        print(f"unknown experiment {args.name!r}; choose from: "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    rows = driver() if args.trials is None else driver(trials=args.trials)
    if args.json:
        json.dump(rows, sys.stdout, indent=1, default=str)
        print()
    elif args.plot:
        from repro.analysis.plotting import ascii_plot
        x = args.x or next(k for k, v in rows[0].items()
                           if isinstance(v, (int, float)))
        ys = args.y or [k for k, v in rows[0].items()
                        if isinstance(v, (int, float)) and k != x][:3]
        print(ascii_plot(rows, x=x, ys=ys, logy=args.logy,
                         title=f"{args.name} ({len(rows)} rows)"))
    else:
        for row in rows:
            print("  ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def _cmd_attack(args) -> int:
    from repro.security import run_collision_attack
    tallies = {"xthin": 0, "compact_blocks": 0, "cb_siphash": 0,
               "graphene": 0}
    for seed in range(args.trials):
        result = run_collision_attack(seed=seed)
        tallies["xthin"] += result.xthin_failed
        tallies["compact_blocks"] += result.compact_blocks_failed
        tallies["cb_siphash"] += result.compact_blocks_siphash_failed
        tallies["graphene"] += result.graphene_failed
    for name, count in tallies.items():
        print(f"  {name:<16} failed {count}/{args.trials}")
    return 0


#: Each simulated-network preset's options and their defaults (its
#: aliases' too); ``--protocol`` and the views apply to every preset.
_PRESETS = {
    "relay": dict(nodes=20, degree=4, block_size=200, loss=0.05,
                  seed=2024, until=120.0, sync_rounds=0),
    "netsim": dict(nodes=16, degree=4, block_size=500, latency=0.05,
                   bandwidth=1_000_000.0, seed=0),
    "net": dict(nodes=1000, degree=8, blocks=200, block_txns=24,
                interval=2.0, topology="scale_free", loss=0.0, seed=2026),
}


def _observed_run(args):
    """Run ``args.preset`` with ``args``' options; a report is taken
    traced, so it folds the spans' latencies too."""
    from repro.obs import (
        measure_propagation_delay,
        run_block_relay_scenario,
        run_propagation_scenario,
    )

    options = {name: getattr(args, name) for name in _PRESETS[args.preset]}
    options.update(protocol=RelayProtocol(args.protocol),
                   trace=args.trace or args.report)
    if args.preset == "relay":
        return run_block_relay_scenario(**options)
    if args.preset == "netsim":
        return measure_propagation_delay(
            block_txns=options.pop("block_size"), extra_mempool=0, **options)
    return run_propagation_scenario(**options)


def _cmd_sim(args) -> int:
    """One preset's run through the views asked for: ``--trace``,
    ``--report``, else the summary; ``--json`` writes the run report
    (its context the preset's options and the run's statistics).  Exits
    1 when a node lacks a block or a checked invariant fails."""
    from repro.obs import RunReport

    if not args.trace and (args.kind or args.summary or args.jsonl
                           or args.limit is not None):
        raise ParameterError(
            "--kind, --summary, --limit and --jsonl shape the --trace view")
    run = _observed_run(args)
    sim = run.simulator
    held = ("the block" if len(run.records) == 1
            else f"all {len(run.records)} blocks")
    report = RunReport(name=f"sim-{args.preset}", context={
        **{name: getattr(args, name) for name in _PRESETS[args.preset]},
        "protocol": args.protocol, "events": sim.events_processed,
        "simulated_seconds": sim.now, "wire_bytes": run.total_bytes,
        "coverage": run.coverage, "fork_rate": run.fork_rate,
        "delay_percentiles": {f"p{round(q * 100)}": run.delay_quantile(q)
                              for q in (0.5, 0.9, 0.99)}})
    report.check("block_coverage", run.covered == args.nodes,
                 f"{run.covered}/{args.nodes} nodes hold {held}")
    if getattr(args, "verbose", False):
        for stats in run.cycles:
            print(f"  cycle {stats.cycle:4d}  t={stats.t_end:8.1f}s  "
                  f"events={stats.events:7d}  pending={stats.pending}")
    if args.trace:
        tracer = run.tracer
        print(f"{args.protocol}: {run.covered}/{args.nodes} nodes hold "
              f"{held} in {run.covered_at:.3f}s simulated, run to "
              f"{sim.now:.3f}s; {len(tracer.spans())} spans")
        print(tracer.timeline(events=not args.summary, kind=args.kind,
                              limit=args.limit))
        if args.jsonl:
            from pathlib import Path
            path = Path(args.jsonl)
            path.parent.mkdir(parents=True, exist_ok=True)
            jsonl = tracer.to_jsonl(kind=args.kind)
            path.write_text(jsonl)
            print(f"wrote {len(jsonl.splitlines())} spans to {path}")
    if args.report:
        _show_report(run, args, report)
    elif not args.trace:
        _show_summary(run, args)
    if args.json:
        report.add_metrics(run.registry)
        print(f"\nwrote report to {report.write(args.json)}")
    return 0 if report.ok else 1


def _show_summary(run, args) -> None:
    if len(run.records) == 1:
        print(f"{args.protocol}: {run.covered}/{args.nodes} nodes in "
              f"{run.covered_at:.3f} s, {run.total_bytes:,} bytes total")
        return
    sim = run.simulator
    print(f"{args.protocol} on {args.topology}: {args.nodes} nodes "
          f"(degree ~{args.degree}), {len(run.records)} blocks every "
          f"{args.interval:g}s")
    print(f"  {sim.events_processed:,} events over {sim.now:,.1f}s "
          f"simulated, {run.total_bytes:,} bytes on the wire")
    print(f"  propagation delay p50/p90/p99: "
          f"{run.delay_quantile(0.5):.3f}/{run.delay_quantile(0.9):.3f}/"
          f"{run.delay_quantile(0.99):.3f} s")
    print(f"  fork rate: {run.fork_rate:.2%} "
          f"({run.forks}/{max(1, len(run.ledger) - 1)} stale blocks), "
          f"coverage {run.coverage:.2%}")


def _show_report(run, args, report) -> None:
    from repro.obs import (
        check_metrics_match_costs,
        check_stream_invariants,
        render_byte_table,
        render_helper_line,
        render_memo_table,
        render_outcome_table,
    )
    from repro.chain.merkle import helper_stats
    from repro.utils.memo import memo_stats

    registry = run.registry
    streams = run.relay_streams()
    report.extend(check_stream_invariants(streams, prefix="relay"))
    report.invariants.append(
        check_metrics_match_costs(registry, streams, prefix="relay"))
    report.memos = memo_stats()
    report.merkle_helper = helper_stats()
    print(f"{args.protocol}: {run.covered}/{args.nodes} nodes in "
          f"{run.covered_at:.3f}s simulated, run to "
          f"{run.simulator.now:.3f}s "
          f"({int(registry.sum('relay_timeouts'))} timeouts, "
          f"{int(registry.sum('relay_retries'))} retries, decode success "
          f"rate {registry.sum('decode_success_rate'):.2f})")
    print("\nrelay bytes by phase (per receiving node):")
    print(render_byte_table(registry, prefix="relay"))
    print("\nrelay outcomes (count/bytes):")
    print(render_outcome_table(registry, prefix="relay"))
    print("\nprocess memos (counts since start; pinned = bytes or "
          "entries held):")
    print(render_memo_table(report.memos))
    print(render_helper_line(report.merkle_helper))
    if getattr(args, "sync_rounds", 0):
        print("\nmempool sync bytes by phase (per initiator):")
        print(render_byte_table(registry, prefix="sync"))
    print("\ninvariants:")
    for inv in report.invariants:
        status = "ok  " if inv.ok else "FAIL"
        print(f"  {status} {inv.name}: {inv.detail}")


def _cmd_fuzz(args) -> int:
    from pathlib import Path

    from repro.fuzz import ENGINES, replay_artifact, run_fuzz

    if args.replay:
        failure = replay_artifact(args.replay)
        if failure is None:
            print(f"{args.replay}: replays clean (bug stays fixed)")
            return 0
        print(f"{args.replay}: STILL FAILS\n  {failure}")
        return 1
    engines = None if args.engine == "all" else [args.engine]
    corpus = None if args.no_artifacts else Path(args.corpus)
    stats = run_fuzz(seed=args.seed, cases=args.cases, budget=args.budget,
                     engines=engines, corpus_dir=corpus,
                     max_failures=args.max_failures,
                     log=print if args.verbose else None)
    print(stats.summary())
    for failure in stats.failures:
        print(f"  {failure}")
    for path in stats.artifacts:
        print(f"  artifact: {path}")
    return 0 if stats.ok else 1


#: ``--blackhole`` drops every request command forever: the server
#: handshakes and announces, then never answers -- the deterministic
#: stand-in for a peer that went dark mid-exchange.
_REQUEST_COMMANDS = (*SENDER_STEPS, "getdata_block")


def _parse_drops(specs, blackhole: bool) -> dict:
    """``--drop CMD[:N]`` specs (plus ``--blackhole``) -> {command: count}."""
    drops: dict = {}
    if blackhole:
        drops.update({cmd: 10 ** 9 for cmd in _REQUEST_COMMANDS})
    for spec in specs or ():
        command, _, count = spec.partition(":")
        drops[command] = int(count) if count else 1
    return drops


def _cmd_serve(args) -> int:
    import asyncio

    from repro.net.peer import BlockServer

    scenario = make_block_scenario(n=args.n, extra=args.extra,
                                   fraction=args.fraction, seed=args.seed)
    drops = _parse_drops(args.drop, args.blackhole)

    async def run() -> int:
        # Openings this process builds (not first serves per engine).
        built_before = ENCODED_OPENINGS.misses
        server = BlockServer(scenario.block,
                             config=GrapheneConfig(
                                 protocol=3 if args.p3 else 1),
                             node_id=args.node_id, drop=drops)
        port = await server.start(args.host, args.port)
        # Parseable by scripts that pass --port 0 and need the real one.
        print(f"listening on {args.host}:{port}", flush=True)
        print(f"serving block {server.root.hex()[:12]} ({scenario.n} txns, "
              f"seed {args.seed})", flush=True)
        if args.once:
            await server.wait_served(1)
        else:
            await asyncio.Event().wait()  # forever; Ctrl-C to stop
        await server.close()
        built = ENCODED_OPENINGS.misses - built_before
        print(f"served {server.connections_served} connection(s), "
              f"built {built} opening(s)")
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_peer(args) -> int:
    """``repro peer``: every ``--connect`` target (``--port`` names
    one) is dialed into one :class:`~repro.net.peer.PeerManager`, the
    first announced block is fetched under the full recovery ladder
    (failover included), and the traced marks come out in the JSON
    document."""
    import asyncio

    from repro.net import RecoveryPolicy
    from repro.net.peer import PeerManager
    from repro.obs import Tracer, WallClock

    if not args.connect:
        if args.port is None:
            print("peer: give --port for one server or --connect HOST:PORT "
                  "(repeatable) for a node group", file=sys.stderr)
            return 2
        # One server is a one-entry dial list.
        args.connect = [f"{args.host}:{args.port}"]
    scenario = make_block_scenario(n=args.n, extra=args.extra,
                                   fraction=args.fraction, seed=args.seed)
    policy = RecoveryPolicy(timeout_base=args.timeout_base,
                            max_retries=args.max_retries)
    config = GrapheneConfig(protocol=3 if args.p3 else 1)
    tracer = Tracer(WallClock())
    out = sys.stderr if args.json else sys.stdout

    async def run():
        manager = PeerManager(node_id=args.node_id,
                              mempool=scenario.receiver_mempool,
                              config=config, policy=policy,
                              tracer=tracer)
        try:
            if args.listen is not None:
                port = await manager.listen(args.host, args.listen)
                print(f"listening on {args.host}:{port}", file=out,
                      flush=True)
            for target in args.connect:
                host, _, port = target.rpartition(":")
                cid = await manager.connect(host or "127.0.0.1", int(port))
                print(f"connected to {manager.connections[cid].label} "
                      f"at {target}", file=out, flush=True)
            result = await manager.fetch_next(timeout=args.fetch_timeout)
        finally:
            await manager.close()
        return manager, result

    try:
        manager, result = asyncio.run(run())
    except asyncio.TimeoutError:
        print(f"peer: no fetch completed within {args.fetch_timeout}s",
              file=sys.stderr)
        return 1
    print(f"fetched block {result.root.hex()[:12]} via "
          f"{len(result.announcers)} announcer(s) "
          f"{'/'.join(result.announcers)}: success={result.success} "
          f"protocol {result.protocol_used}, {result.total_bytes:,} B "
          f"graphene (+{result.wire_overhead} B frame overhead)", file=out)
    if result.timeouts or result.escalated or result.failovers:
        print(f"  recovery: {result.timeouts} timeouts, {result.retries} "
              f"retries, escalated={result.escalated}, "
              f"failovers={result.failovers}, "
              f"abandoned={result.abandoned}, "
              f"via_fullblock={result.via_fullblock}", file=out)
    for mark in tracer.marks:
        detail = " ".join(f"{k}={v}" for k, v in mark.detail)
        print(f"  mark {mark.name}" + (f" ({detail})" if detail else ""),
              file=out)
    ok = result.success
    if args.check_parity:
        # Failed announcers cost honest retry bytes, so mesh parity is
        # checked on the *surviving path*: the attempt that completed.
        fresh = make_block_scenario(n=args.n, extra=args.extra,
                                    fraction=args.fraction, seed=args.seed)
        loop = BlockRelaySession(config).relay(fresh.block,
                                               fresh.receiver_mempool)
        cost_ok = (json.dumps(result.surviving_cost.as_dict(),
                              sort_keys=True)
                   == json.dumps(loop.cost.as_dict(), sort_keys=True))
        events_ok = ([e.as_dict() for e in result.surviving_events]
                     == [e.as_dict() for e in loop.events])
        print(f"  loopback parity (surviving path): cost "
              f"{'ok' if cost_ok else 'MISMATCH'}, events "
              f"{'ok' if events_ok else 'MISMATCH'} "
              f"({len(result.surviving_events)} events, "
              f"{loop.total_bytes:,} B)", file=out)
        ok = ok and cost_ok and events_ok
    if args.json:
        json.dump({"success": result.success,
                   "protocol_used": result.protocol_used,
                   "roundtrips": result.roundtrips,
                   "total_bytes": result.total_bytes,
                   "wire_overhead": result.wire_overhead,
                   "timeouts": result.timeouts,
                   "retries": result.retries,
                   "escalated": result.escalated,
                   "failovers": result.failovers,
                   "abandoned": result.abandoned,
                   "via_fullblock": result.via_fullblock,
                   "announcers": result.announcers,
                   "invs_seen": manager.invs_seen,
                   "inv_duplicates": manager.inv_duplicates,
                   "frames_shed": manager.frames_shed,
                   "marks": [{"name": m.name, "detail": dict(m.detail)}
                             for m in tracer.marks],
                   "cost": result.cost.as_dict(),
                   "surviving_cost": result.surviving_cost.as_dict(),
                   "events": [e.as_dict() for e in result.events],
                   "surviving_events": [e.as_dict()
                                        for e in result.surviving_events]},
                  sys.stdout, indent=1)
        print()
    return 0 if ok else 1


def _add_sim_args(parser, preset: str, **views) -> None:
    """``preset``'s options, the views, and ``views`` as defaults;
    ``--verbose`` (the cycle lines) only where there are cycles."""
    for name, default in _PRESETS[preset].items():
        parser.add_argument(
            "--" + name.replace("_", "-"), type=type(default),
            default=default, choices=(["scale_free", "random_regular"]
                                      if name == "topology" else None))
    parser.add_argument("--protocol", default="graphene",
                        choices=_PROTOCOLS)
    parser.add_argument("--trace", action="store_true",
                        help="attach a tracer; print the span timeline")
    parser.add_argument("--kind", default=None,
                        choices=["relay", "serve", "sync", "sync-serve"],
                        help="--trace: only spans of this kind")
    parser.add_argument("--summary", action="store_true",
                        help="--trace: one line per span")
    parser.add_argument("--limit", type=int, default=None,
                        help="--trace: only the first N spans")
    parser.add_argument("--jsonl", default=None, metavar="PATH",
                        help="--trace: also export spans as JSONL")
    parser.add_argument("--report", action="store_true",
                        help="byte / outcome / memo tables and the "
                             "accounting invariants")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the run report to PATH")
    if preset == "net":
        parser.add_argument("--verbose", action="store_true",
                            help="print per-cycle statistics after the run")
    parser.set_defaults(func=_cmd_sim, preset=preset, **views)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    relay = sub.add_parser("relay", help="relay one synthetic block")
    relay.add_argument("--n", type=int, default=2000)
    relay.add_argument("--extra", type=int, default=2000)
    relay.add_argument("--fraction", type=float, default=1.0)
    relay.add_argument("--seed", type=int, default=0)
    relay.add_argument("--breakdown", action="store_true")
    relay.add_argument("--p3", action="store_true",
                       help="use Protocol 3 (rateless symbol stream) "
                            "instead of Protocol 1 with P2 fallback")
    relay.set_defaults(func=_cmd_relay)

    sync = sub.add_parser("sync", help="synchronize two mempools")
    sync.add_argument("--n", type=int, default=1000)
    sync.add_argument("--common", type=float, default=0.5)
    sync.add_argument("--seed", type=int, default=0)
    sync.add_argument("--p3", action="store_true",
                      help="reconcile with the rateless Protocol 3 "
                           "encoding")
    sync.set_defaults(func=_cmd_sync)

    params = sub.add_parser("iblt-params",
                            help="optimal IBLT parameters for j items")
    params.add_argument("--j", type=int, required=True)
    params.add_argument("--denom", type=int, default=240)
    params.add_argument("--search", action="store_true",
                        help="run Algorithm 1 live instead of the table")
    params.add_argument("--seed", type=int, default=0)
    params.set_defaults(func=_cmd_iblt_params)

    experiment = sub.add_parser("experiment",
                                help="run one figure's experiment driver")
    experiment.add_argument("name", help="e.g. fig14, fig18, sec51")
    experiment.add_argument("--trials", type=int, default=None)
    experiment.add_argument("--json", action="store_true")
    experiment.add_argument("--plot", action="store_true",
                            help="render an ASCII chart of the rows")
    experiment.add_argument("--x", default=None,
                            help="x-axis field for --plot")
    experiment.add_argument("--y", action="append", default=None,
                            help="y series for --plot (repeatable)")
    experiment.add_argument("--logy", action="store_true")
    experiment.set_defaults(func=_cmd_experiment)

    attack = sub.add_parser("attack", help="collision-attack summary")
    attack.add_argument("--trials", type=int, default=20)
    attack.set_defaults(func=_cmd_attack)

    sim = sub.add_parser("sim", help="simulate a network: a preset "
                         "(relay, netsim, net) through any view")
    presets = sim.add_subparsers(dest="preset", required=True)
    for preset in _PRESETS:
        _add_sim_args(presets.add_parser(preset), preset)
    for alias, preset, views in (("netsim", "netsim", {}), ("net", "net", {}),
                                 ("trace", "relay", {"trace": True}),
                                 ("report", "relay", {"report": True})):
        _add_sim_args(sub.add_parser(alias, help=f"alias of sim {preset}"),
                      preset, **views)

    fuzz = sub.add_parser("fuzz",
                          help="differential fuzzing: codec round-trips, "
                               "PDS batch paths, lossy relay scenarios")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; same seed -> same cases")
    fuzz.add_argument("--cases", type=int, default=500,
                      help="case budget for a cost-1 engine")
    fuzz.add_argument("--budget", type=float, default=None,
                      help="wall-clock cap in seconds")
    fuzz.add_argument("--engine", default="all",
                      choices=["all", "codec", "pds", "relay"])
    fuzz.add_argument("--corpus", default="tests/corpus",
                      help="artifact directory for minimized failures")
    fuzz.add_argument("--no-artifacts", action="store_true",
                      help="report failures without writing artifacts")
    fuzz.add_argument("--max-failures", type=int, default=5,
                      help="stop the campaign after this many findings")
    fuzz.add_argument("--replay", default=None, metavar="ARTIFACT",
                      help="replay one corpus artifact instead of fuzzing")
    fuzz.add_argument("--verbose", action="store_true")
    fuzz.set_defaults(func=_cmd_fuzz)

    def _add_socket_scenario_args(parser) -> None:
        # Both ends derive the identical scenario from the same seed, so
        # only parameters cross the command line, never transactions.
        parser.add_argument("--host", default="127.0.0.1")
        parser.add_argument("--n", type=int, default=200)
        parser.add_argument("--extra", type=int, default=200)
        parser.add_argument("--fraction", type=float, default=1.0)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--p3", action="store_true",
                            help="speak Protocol 3 (rateless symbol "
                                 "stream); both ends must agree")

    serve = sub.add_parser("serve",
                           help="announce and serve one synthetic block "
                                "over real TCP")
    _add_socket_scenario_args(serve)
    serve.add_argument("--port", type=int, default=0,
                       help="0 binds an ephemeral port; the bound port "
                            "is printed as 'listening on HOST:PORT'")
    serve.add_argument("--once", action="store_true",
                       help="exit after serving one connection")
    serve.add_argument("--node-id", default="server",
                       help="identity announced in the version handshake")
    serve.add_argument("--drop", action="append", default=None,
                       metavar="CMD[:N]",
                       help="ignore the first N inbound CMD frames "
                            "(default 1); repeatable")
    serve.add_argument("--blackhole", action="store_true",
                       help="never answer any request: handshake and "
                            "announce, then go dark (forces the "
                            "fetcher's recovery ladder)")
    serve.set_defaults(func=_cmd_serve)

    peer = sub.add_parser("peer",
                          help="fetch a block from a serve instance "
                               "(--port) or a node group (--connect)")
    _add_socket_scenario_args(peer)
    peer.add_argument("--port", type=int, default=None,
                      help="shorthand for one --connect HOST:PORT")
    peer.add_argument("--connect", action="append", default=None,
                      metavar="HOST:PORT",
                      help="dial this peer (repeatable); the ladder "
                           "can fail over between them")
    peer.add_argument("--listen", type=int, default=None, metavar="PORT",
                      help="also accept inbound peers (and re-serve "
                           "fetched blocks); 0 = ephemeral")
    peer.add_argument("--node-id", default="peer",
                      help="identity announced in the version handshake")
    peer.add_argument("--timeout-base", type=float, default=2.0,
                      help="first-attempt response timeout (seconds)")
    peer.add_argument("--max-retries", type=int, default=3,
                      help="resends per recovery rung before escalating")
    peer.add_argument("--fetch-timeout", type=float, default=120.0,
                      help="overall wall-clock budget for the fetch "
                           "(seconds)")
    peer.add_argument("--check-parity", action="store_true",
                      help="also run the loopback relay of the same "
                           "scenario and require byte-identical cost "
                           "and telemetry on the surviving path")
    peer.add_argument("--json", action="store_true",
                      help="dump the result (cost, events, marks) "
                           "as JSON")
    peer.set_defaults(func=_cmd_peer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
