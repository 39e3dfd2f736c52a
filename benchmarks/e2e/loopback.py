"""The four loopback workloads: fresh P1, fan-out P1, P2 fallback, P3.

Untraced, a relay is exactly what the program's own callers run:
``LoopbackTransport(sender, receiver).run()``, timed from just before
the receiver's ``start()`` to the terminal action.  Traced, the harness
owns the pump -- ``receiver.start()`` then ``engine.handle(command,
message)`` per step, which is all ``LoopbackTransport.deliver`` does --
so it can put a span around every engine call, then replays the layers
below the engines (`replay.py`).

A relay is complete when the receiver holds the validated block.  The
engines may give up (``ActionKind.FAILED``: even Protocol 2 could not
decode, or a rateless stream peeled a key twice -- about one Protocol 3
relay in a few thousand at this block size).  Every node of this repo
then fetches the whole block (`net.node`, `PeerManager` and
`fetch_block` all escalate to a ``getdata_block``); the loopback
transport has no node around it, so the harness takes that step with
the peer stack's public full-block codec and charges the same
``getdata`` bytes.  The time counts toward the relay, the relay counts
as having left the fast path, and ``engine.gave_up_share`` says how
often it happened.
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns

from repro.core.engine import (ActionKind, GrapheneReceiverEngine,
                               GrapheneSenderEngine, SENDER_STEPS)
from repro.core.params import GrapheneConfig
from repro.core.sizing import CostBreakdown, getdata_bytes
from repro.net.peer import decode_full_block, encode_full_block
from repro.net.transport import LoopbackTransport

from inputs import read_records
from tally import block_delivered, compact_baseline, crossing_messages
from tracing import Trace, engine_layers
from workloads import WARMUP_OPS


def relay_inputs(workload, records):
    """Yield ``(block, mempool, sender, sender_state)`` per relay.

    Fresh workloads read one record per relay and serve it from a new
    sender engine.  The fan-out workload reads its single record once
    and serves every relay from the *same* sender engine, walking the
    ring of mempools; ``sender_state`` is the replay's mirror of that
    engine's payload cache (see `replay.py`), so it lives and dies with
    the engine.
    """
    config = GrapheneConfig(protocol=workload.protocol)
    if workload.ring:
        block, ring = next(records)
        sender = GrapheneSenderEngine(block, config)
        state: dict = {}
        index = 0
        while True:
            yield block, ring[index % len(ring)], sender, state
            index += 1
    for block, mempool in records:
        yield block, mempool, GrapheneSenderEngine(block, config), {}


def pump_traced(trace, relay_id, sender, receiver):
    """``LoopbackTransport.run`` with a span around each engine call.

    Returns the terminal action and the step record the replays need:
    ``(span_id, command, message)`` per call, ``start`` first.
    """
    relay = trace.open("relay", None, relay_id)
    span_id = trace.open("engine.receiver_step", relay, relay_id)
    action = receiver.start()
    trace.close(span_id)
    steps = [(span_id, "start", b"")]
    while action.kind is ActionKind.SEND:
        command, message = action.command, action.message
        if command in SENDER_STEPS:
            span_id = trace.open("engine.sender_step", relay, relay_id)
            action = sender.handle(command, message)
        else:
            span_id = trace.open("engine.receiver_step", relay, relay_id)
            action = receiver.handle(command, message)
        trace.close(span_id)
        steps.append((span_id, command, message))
    trace.close(relay)
    return action, steps, relay


def fetch_full_block(block):
    """The escalation after a give-up; returns the block and the time."""
    started = perf_counter_ns()
    fetched = decode_full_block(encode_full_block(block))
    return fetched, perf_counter_ns() - started


def run_pass(workload, args, tally) -> dict:
    """Run the pass into ``tally``; returns the per-layer metrics."""
    traced = args.trace_out is not None
    config = GrapheneConfig(protocol=workload.protocol)
    trace = Trace()
    replayer = None
    if traced:
        from replay import Replayer
        replayer = Replayer(trace, config)
    counts = {"events": 0, "decodes": 0, "decodes_ok": 0}

    inputs = relay_inputs(workload, read_records(args.inputs))
    for index in range(-WARMUP_OPS, args.ops):
        if traced and index == 0:
            # Warm-up relays were pumped and replayed like any other, so
            # the sender-cache mirror is in step; drop their spans.
            trace.spans.clear()
            replayer.reset_counts()
        loading = perf_counter()
        block, mempool, sender, sender_state = next(inputs)
        receiver = GrapheneReceiverEngine(mempool, config)
        tally.add_setup(perf_counter() - loading)
        tally.calibrate()
        if traced:
            final, steps, relay = pump_traced(trace, index, sender, receiver)
            wall_ns = trace.duration_ns(relay)
        else:
            transport = LoopbackTransport(sender, receiver)
            started = perf_counter_ns()
            final = transport.run()
            wall_ns = perf_counter_ns() - started
        gave_up = final.kind is ActionKind.FAILED
        if gave_up:
            got_block, fetch_ns = fetch_full_block(block)
            wall_ns += fetch_ns
        else:
            got_block = final.block
        delivered = block_delivered(block, got_block)
        if traced and delivered and not gave_up:
            with trace.span("telemetry.fold", None, index):
                CostBreakdown.from_events(receiver.telemetry)
            replayer.relay(index, steps, block, mempool, sender_state)
        if index < 0:
            tally.add_setup(wall_ns / 1e9)
            continue

        tally.add_op(wall_ns, 0 if delivered else 1)
        if not delivered:
            continue
        stream = receiver.telemetry
        tally.add_relay(
            CostBreakdown.from_events(stream).total()
            + (getdata_bytes(0) if gave_up else 0),
            compact_baseline(block, mempool),
            crossing_messages(stream) + (2 if gave_up else 0),
            fallback=receiver.roundtrips > 1.5, gave_up=gave_up)
        counts["events"] += len(stream)
        counts["decodes"] += 1
        counts["decodes_ok"] += not receiver.p1_decode_failed
        if receiver.protocol_used == 2:
            counts["decodes"] += 1
            counts["decodes_ok"] += receiver.p2_decode_complete
    tally.calibrate(force=True)

    if not traced:
        return {}
    trace.write(args.trace_out)
    return layer_metrics(workload, tally, trace, replayer, counts)


def layer_metrics(workload, tally, trace, replayer, counts) -> dict:
    """Per-layer means per completed relay, from the traced pass."""
    layers, total, scale = engine_layers(trace, tally, "relay")
    relays = max(1, tally.completed)
    own = trace.self_ms()
    layers.update({name + "_ms": total.get(name, 0.0) * scale for name in (
        "pds.bloom_build", "pds.bloom_query", "pds.iblt_build",
        "pds.iblt_peel", "pds.riblt_encode", "pds.riblt_peel",
        "codec.encode", "codec.decode", "chain.merkle",
        "core.p1_build", "core.p1_receive", "core.p2",
        "core.p3_build", "core.p3_ingest", "telemetry.fold")})
    layers.update({
        "pds.iblt_decode_ok_share":
            counts["decodes_ok"] / counts["decodes"]
            if workload.protocol == 1 and counts["decodes"] else 0.0,
        "pds.riblt_symbols_per_diff":
            replayer.riblt_symbols / replayer.riblt_diffs
            if replayer.riblt_diffs else 0.0,
        "codec.blob_bytes_per_relay": replayer.blob_bytes / relays,
        "engine.self_ms": (own.get("engine.sender_step", 0.0)
                           + own.get("engine.receiver_step", 0.0)) * scale,
        "transport.pump_ms": layers.pop("engine.outside_ms"),
        "telemetry.events_per_relay": counts["events"] / relays,
        "trace.replay_skips": replayer.skipped,
    })
    return layers
