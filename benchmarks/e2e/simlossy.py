"""``sim_lossy_20``: one block across a lossy 20-node simulated network.

An operation is one call of the program's own scenario builder,
``obs.scenario.run_block_relay_scenario`` -- nodes, links, block and
mempools included, exactly what ``repro report`` and the smoke test
run -- with run seed ``S + i``.  It completes 19 relays (every node but
the miner), so its wall time over 19 is one latency sample.  The clock
is simulated and every random draw is seeded: byte, event, retry and
timeout counts repeat exactly for a seed, which makes this the workload
a recovery-ladder refactor is held to byte parity on.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

from repro.baselines.compact_blocks import compact_blocks_bytes
from repro.core.sizing import CostBreakdown
from repro.obs.scenario import run_block_relay_scenario

from tally import block_delivered, crossing_messages
from tracing import Shims, Trace, engine_layers
from workloads import SIM_DEGREE, SIM_LOSS, SIM_NODES, WARMUP_OPS


def left_fast_path(events) -> bool:
    """Whether a relay stream shows Protocol 2 or a short-id fetch."""
    return any(event.outcome == "fallback" or event.phase == "fetch"
               for event in events)


def run_pass(workload, args, tally) -> dict:
    """Run the pass into ``tally``; returns the per-layer metrics."""
    traced = args.trace_out is not None
    trace = Trace()
    shims = Shims(trace)
    counts = {"events": 0, "retries": 0, "timeouts": 0, "abandons": 0}
    delays: list = []
    compact = compact_blocks_bytes(workload.n)

    def operation(index: int, trace_marks: bool):
        return run_block_relay_scenario(
            nodes=SIM_NODES, degree=SIM_DEGREE, block_size=workload.n,
            extra=workload.extra, loss=SIM_LOSS,
            seed=args.seed + index, trace=trace_marks)

    for index in range(-WARMUP_OPS, args.ops):
        tally.calibrate()
        if traced and index >= 0:
            # The program's own tracer rides along for its recovery
            # marks (abandons); it changes neither bytes nor clock.
            with shims.operation("sim.run", index) as span:
                run = operation(index, trace_marks=True)
            wall_ns = trace.duration_ns(span)
        else:
            started = perf_counter_ns()
            run = operation(index, trace_marks=False)
            wall_ns = perf_counter_ns() - started
        if index < 0:
            tally.add_setup(wall_ns / 1e9)
            continue

        root = run.root
        delivered = sum(1 for node in run.nodes[1:]
                        if block_delivered(run.block, node.blocks.get(root)))
        tally.add_op(wall_ns, workload.relays_per_op - delivered)
        if run.covered != SIM_NODES:
            continue
        for (_, stream_root), events in run.relay_streams().items():
            if stream_root == root:
                tally.add_relay(CostBreakdown.from_events(events).total(),
                                compact, crossing_messages(events),
                                fallback=left_fast_path(events))
        counts["events"] += run.simulator.events_processed
        counts["retries"] += sum(node.relay_retries for node in run.nodes)
        counts["timeouts"] += sum(node.relay_timeouts for node in run.nodes)
        if run.tracer is not None:
            counts["abandons"] += sum(1 for mark in run.tracer.marks
                                      if mark.name == "abandon")
        delays.extend(node.block_arrival[root] for node in run.nodes[1:])
    tally.calibrate(force=True)

    if not traced:
        return {}
    trace.write(args.trace_out)
    layers, total, scale = engine_layers(trace, tally, "sim.run")
    relays = max(1, tally.completed)
    run_s = total.get("sim.run", 0.0) * tally.speed_factor / 1e3
    layers.update({
        "sim.events_per_relay": counts["events"] / relays,
        "sim.events_per_s": counts["events"] / run_s,
        "sim.retries_per_relay": counts["retries"] / relays,
        "sim.timeouts_per_relay": counts["timeouts"] / relays,
        "sim.abandons": counts["abandons"],
        "sim.delay_p50_s": statistics.median(delays),
        "sim.non_engine_ms": layers.pop("engine.outside_ms"),
    })
    return layers
