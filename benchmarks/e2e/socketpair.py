"""``socket_pair_2000``: the fresh P1 relay over two localhost sockets.

One serving `PeerManager`, two fetching `PeerManager`s, two TCP
connections, one event loop, one thread.  An operation is
``serve_block`` on the server until both fetchers' ``fetch_next`` have
returned; its wall time over two is one latency sample.  The traffic
crosses the host's loopback interface, not a real link, so the numbers
hold the peer stack's processing cost and nothing about a network.

The engine work per relay is the same as on ``fresh_p1_2000``; what
this workload adds is framing, manager demultiplexing and asyncio
scheduling.  Each fetch's cost is checked against a loopback relay of
the same block (run after the operation, so it warms nothing the
sockets will use).
"""

from __future__ import annotations

import asyncio
from time import perf_counter, perf_counter_ns

from repro.chain.mempool import Mempool
from repro.core.engine import (ActionKind, GrapheneReceiverEngine,
                               GrapheneSenderEngine)
from repro.core.params import GrapheneConfig
from repro.core.sizing import CostBreakdown, getdata_bytes
from repro.net.peer import FrameDecoder, PeerManager
from repro.net.transport import LoopbackTransport

from inputs import read_records
from tally import block_delivered, compact_baseline, crossing_messages
from tracing import Shims, Trace, engine_layers
from workloads import WARMUP_OPS

#: Far beyond any healthy relay; a fetch this slow is a failed relay.
FETCH_TIMEOUT_S = 60.0


def loopback_cost(block, mempool, config) -> dict:
    """The byte-parity reference: the same relay without sockets.

    Where the engines give up, a `PeerManager` escalates to a
    ``getdata_block`` and charges it; so does the reference.
    """
    receiver = GrapheneReceiverEngine(mempool, config)
    final = LoopbackTransport(GrapheneSenderEngine(block, config),
                              receiver).run()
    cost = CostBreakdown.from_events(receiver.telemetry)
    if final.kind is ActionKind.FAILED:
        cost.extra_getdata += getdata_bytes(0)
    return cost.as_dict()


async def _run(workload, args, tally) -> dict:
    traced = args.trace_out is not None
    config = GrapheneConfig(protocol=workload.protocol)
    trace = Trace()
    shims = Shims(trace)
    counts = {"envelope_bytes": 0, "retries": 0, "failovers": 0}

    connecting = perf_counter()
    server = PeerManager("server", config=config)
    fetchers = [PeerManager(f"fetcher{i}", mempool=Mempool(), config=config)
                for i in range(workload.relays_per_op)]
    port = await server.listen()
    for fetcher in fetchers:
        await fetcher.connect("127.0.0.1", port)
    records = read_records(args.inputs)
    tally.add_setup(perf_counter() - connecting)

    async def operation(block):
        root = server.serve_block(block)
        return root, await asyncio.gather(
            *(fetcher.fetch_next(timeout=FETCH_TIMEOUT_S)
              for fetcher in fetchers), return_exceptions=True)

    try:
        for index in range(-WARMUP_OPS, args.ops):
            loading = perf_counter()
            block, mempool = next(records)
            for fetcher in fetchers:
                fetcher.mempool = mempool
            tally.add_setup(perf_counter() - loading)
            tally.calibrate()

            if traced and index >= 0:
                with shims.operation("relay", index, framing=True) as span:
                    root, results = await operation(block)
                wall_ns = trace.duration_ns(span)
                decoder = FrameDecoder()
                for frame in shims.frames:
                    with trace.span("peer.frame_decode", span, index):
                        decoder.feed(frame)
            else:
                started = perf_counter_ns()
                root, results = await operation(block)
                wall_ns = perf_counter_ns() - started
            # The server would otherwise hold every block it ever served.
            server.blocks.pop(root, None)
            if index < 0:
                tally.add_setup(wall_ns / 1e9)
                continue

            reference = loopback_cost(block, mempool, config)
            good = [result for result in results
                    if not isinstance(result, BaseException)
                    and result.success and result.root == root
                    and block_delivered(block, result.block)
                    and result.cost.as_dict() == reference]
            tally.add_op(wall_ns, len(results) - len(good))
            for result in good:
                tally.add_relay(result.cost.total(),
                                compact_baseline(block, mempool),
                                crossing_messages(result.events),
                                fallback=result.roundtrips > 1.5,
                                gave_up=result.via_fullblock)
                counts["envelope_bytes"] += result.wire_overhead
                counts["retries"] += result.retries
                counts["failovers"] += result.failovers
    finally:
        for manager in fetchers + [server]:
            await manager.close()
    tally.calibrate(force=True)

    if not traced:
        return {}
    trace.write(args.trace_out)
    layers, total, scale = engine_layers(trace, tally, "relay")
    relays = max(1, tally.completed)
    layers.update({
        "peer.frame_encode_ms": total.get("peer.frame_encode", 0.0) * scale,
        "peer.frame_decode_ms": total.get("peer.frame_decode", 0.0) * scale,
        "peer.envelope_bytes_per_relay": counts["envelope_bytes"] / relays,
        "peer.socket_overhead_ms": layers.pop("engine.outside_ms"),
        "peer.retries_per_relay": counts["retries"] / relays,
        "peer.failovers": counts["failovers"],
    })
    return layers


def run_pass(workload, args, tally) -> dict:
    """Run the pass into ``tally``; returns the per-layer metrics."""
    return asyncio.run(_run(workload, args, tally))
