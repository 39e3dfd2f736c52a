"""Tests for the scaled simulator core and columnar network state."""

from __future__ import annotations

import pytest

from repro.core.telemetry import (
    AggregateRecorder,
    EventRecorder,
    MessageEvent,
    total_wire_bytes,
)
from repro.core.sizing import CostBreakdown
from repro.errors import ParameterError, SimulationBudgetError
from repro.net.node import Node
from repro.net.simulator import FaultInjector, Link, Simulator, _COMPACT_MIN


class TestRunBudget:
    def test_budget_is_per_call_not_cumulative(self):
        # The old bug: max_events compared against the lifetime total,
        # so a second run() inherited a spent budget and did nothing.
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        sim.run(max_events=10)
        assert sim.events_processed == 10
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        sim.run(max_events=10)
        assert sim.events_processed == 20
        assert not sim.truncated

    def test_truncation_sets_flag_and_preserves_queue(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        sim.run(max_events=4)
        assert sim.truncated
        assert sim.pending == 6
        sim.run()
        assert not sim.truncated
        assert sim.pending == 0
        assert sim.events_processed == 10

    def test_truncation_never_clamps_clock_to_horizon(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        sim.run(until=100.0, max_events=4)
        assert sim.now == 3.0  # not 100.0: the run did not get there

    def test_on_budget_raise(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        with pytest.raises(SimulationBudgetError):
            sim.run(max_events=4, on_budget="raise")
        # The queue survives the raise; a fresh budget drains it.
        assert sim.pending == 6
        sim.run()
        assert sim.pending == 0

    def test_on_budget_validated(self):
        with pytest.raises(ParameterError):
            Simulator().run(on_budget="ignore")


class TestPostFastPath:
    def test_post_orders_with_schedule(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("handle"))
        sim.post_at(1.0, lambda: order.append("fast"))
        sim.post_at(3.0, lambda: order.append("fast_at"))
        sim.run()
        assert order == ["fast", "handle", "fast_at"]

    def test_post_counts_as_pending(self):
        sim = Simulator()
        sim.post_at(1.0, lambda: None)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_post_validation(self):
        sim = Simulator()
        with pytest.raises(ParameterError):
            sim.post_at(-1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ParameterError):
            sim.post_at(1.0, lambda: None)

    def test_slots_are_recycled(self):
        sim = Simulator()
        for i in range(100):
            sim.post_at(float(i), lambda: None)
        sim.run()
        for i in range(100):
            sim.post_at(sim.now + i, lambda: None)
        sim.run()
        # The pool never grew beyond the first wave's peak.
        assert len(sim._slot_cb) <= 100


class TestHeapCompaction:
    def test_compaction_drops_cancelled_entries(self):
        sim = Simulator()
        handles = [sim.schedule(1000.0 + i, lambda: None)
                   for i in range(2 * _COMPACT_MIN)]
        for handle in handles:
            handle.cancel()
        # Trigger the push-time compaction check.
        sim.post_at(1.0, lambda: None)
        assert len(sim._queue) == 1
        assert sim.pending == 1

    def test_compaction_preserves_order(self):
        # Same workload with and without compaction kicking in must
        # fire surviving events in the same order at the same clocks.
        def run_one(cancel_bulk):
            sim = Simulator()
            order = []
            for i in range(50):
                sim.schedule(float(100 + i),
                             lambda i=i: order.append((i, sim.now)))
            doomed = [sim.schedule(5000.0 + i, lambda: None)
                      for i in range(cancel_bulk)]
            for handle in doomed:
                handle.cancel()
            sim.post_at(1.0, lambda: order.append(("first", sim.now)))
            sim.run(until=200.0)
            return order

        quiet = run_one(cancel_bulk=0)
        compacted = run_one(cancel_bulk=2 * _COMPACT_MIN)
        assert quiet == compacted

    def test_cancelled_events_never_fire_after_compaction(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(10.0 + i, lambda i=i: fired.append(i))
                   for i in range(2 * _COMPACT_MIN)]
        keep = list(range(0, len(handles), 7))
        for i, handle in enumerate(handles):
            if i % 7:
                handle.cancel()
        sim.post_at(1.0, lambda: None)
        sim.run()
        assert fired == keep


class TestRunCycles:
    def test_cycles_advance_in_fixed_steps(self):
        sim = Simulator()
        for i in range(10):
            sim.post_at(float(i), lambda: None)
        stats = []
        ran = sim.run_cycles(cycle=2.5, cycles=4, on_cycle=stats.append)
        assert ran == 4
        assert [s.t_end for s in stats] == [2.5, 5.0, 7.5, 10.0]
        assert sum(s.events for s in stats) == 10
        assert stats[-1].pending == 0

    def test_unbounded_cycles_stop_when_drained(self):
        sim = Simulator()
        sim.post_at(7.0, lambda: None)
        ran = sim.run_cycles(cycle=2.0)
        assert ran == 4  # 0-2, 2-4, 4-6, 6-8
        assert sim.pending == 0

    def test_cycle_budget_raises_by_default(self):
        sim = Simulator()
        for i in range(10):
            sim.post_at(0.1 * i, lambda: None)
        with pytest.raises(SimulationBudgetError):
            sim.run_cycles(cycle=5.0, cycles=1, max_events_per_cycle=3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            Simulator().run_cycles(cycle=0.0)
        with pytest.raises(ParameterError):
            Simulator().run_cycles(cycle=1.0, cycles=-1)


class TestFaultInjectorReset:
    def test_reset_rewinds_index_and_counter(self):
        fault = FaultInjector(drop_nth=frozenset({0, 2}))
        decisions = [fault.should_drop(0.0, "inv") for _ in range(4)]
        assert decisions == [True, False, True, False]
        assert fault.dropped == 2
        fault.reset()
        assert fault.dropped == 0
        assert fault._index == 0
        assert [fault.should_drop(0.0, "inv")
                for _ in range(4)] == decisions

    def test_reset_keeps_configuration(self):
        fault = FaultInjector(drop_commands=frozenset({"block"}),
                              blackhole=(1.0, 2.0))
        fault.should_drop(1.5, "inv")
        fault.reset()
        assert fault.should_drop(0.0, "block")
        assert fault.should_drop(1.5, "inv")


def _event(command="graphene_block", direction="received",
           role="receiver", phase="p1", parts=None, outcome=""):
    return MessageEvent(command=command, direction=direction, role=role,
                        phase=phase, roundtrip=1,
                        parts=parts or {"iblt_i": 100, "bloom_s": 40},
                        outcome=outcome)


class TestAggregateRecorder:
    def test_aggregates_match_full_recorder(self):
        full, aggregate = EventRecorder(), AggregateRecorder()
        events = [
            _event(),
            _event(direction="sent", phase="fetch",
                   parts={"fetched_tx_bytes": 500}, outcome="fetch"),
            _event(parts={"counts": 8}, outcome="decoded"),
        ]
        for event in events:
            full.append(event)
            aggregate.append(event)
        assert aggregate.totals == full.totals
        assert full.totals.part_totals == {"iblt_i": 100, "bloom_s": 40,
                                           "fetched_tx_bytes": 500,
                                           "counts": 8}

    def test_events_are_not_retained(self):
        aggregate = AggregateRecorder()
        aggregate.append(_event())
        assert len(aggregate) == 0
        assert aggregate.totals.direction_counts == {"received": 1}

    def test_cost_breakdown_fast_path_reads_aggregates(self):
        full, aggregate = EventRecorder(), AggregateRecorder()
        for _ in range(3):
            full.append(_event())
            aggregate.append(_event())
        assert (CostBreakdown.from_events(aggregate).as_dict()
                == CostBreakdown.from_events(full).as_dict())
        assert total_wire_bytes(aggregate) == total_wire_bytes(full)


class TestColumnarState:
    def test_stats_view_is_peerstats_compatible(self):
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        a.connect(b)
        assert a.stats[b].bytes_sent == 0
        a.mine_block(_make_block(0))
        sim.run()
        assert a.stats[b].messages_sent >= 1
        assert a.stats[b].bytes_sent > 0
        assert b in a.stats
        assert len(a.stats) == 1
        assert a.total_bytes_sent() == sum(
            s.bytes_sent for s in a.stats.values())

    def test_direct_link_assignment_reuses_edge(self):
        # tests/test_lossy_links.py wires links by assigning into
        # node.peers directly; the edge registry must tolerate that.
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        a.connect(b)
        a.mine_block(_make_block(1))
        sim.run()
        before = a.stats[b].bytes_sent
        assert before > 0
        a.peers[b] = Link(latency=0.01)
        b.peers[a] = Link(latency=0.01)
        a.mine_block(_make_block(2))
        sim.run()
        # Same ordered pair -> same edge row: counters accumulate.
        assert a.stats[b].bytes_sent > before

    def test_block_sources_resolve_through_registry(self):
        from repro.chain.scenarios import make_block_scenario
        from repro.net import connect_line
        sim = Simulator()
        nodes = [Node(f"n{i}", sim) for i in range(3)]
        connect_line(nodes)
        scenario = make_block_scenario(n=8, extra=0, fraction=1.0, seed=3)
        for node in nodes[1:]:
            node.mempool.add_many(
                scenario.receiver_mempool.transactions())
        nodes[0].mine_block(scenario.block)
        sim.run()
        root = scenario.block.header.merkle_root
        assert all(root in node.blocks for node in nodes)
        # Registries were GCed after acceptance.
        assert all(not node.announced_roots for node in nodes)


class TestPropagationScenario:
    def test_small_run_reports_consistent_stats(self):
        from repro.obs import run_propagation_scenario
        run = run_propagation_scenario(nodes=12, degree=4, blocks=3,
                                       block_txns=8, interval=1.0,
                                       seed=3, drain=10.0)
        assert len(run.records) == 3
        assert run.coverage == 1.0
        assert run.fork_rate == 0.0
        assert run.delay_quantile(0.5) > 0.0
        assert len(run.delays) == 3 * 11
        # Below the threshold, full per-event telemetry is kept.
        assert run.params["telemetry_mode"] == "full"
        retained = sum(len(s) for n in run.nodes
                       for s in n.relay_telemetry.values())
        assert retained > 0
        histogram = run.registry.histogram("net_propagation_seconds")
        assert histogram.count == len(run.delays)

    def test_aggregate_threshold_switches_mode(self):
        from repro.obs import run_propagation_scenario
        run = run_propagation_scenario(nodes=12, degree=4, blocks=2,
                                       block_txns=8, interval=1.0,
                                       seed=3, drain=5.0,
                                       aggregate_threshold=10)
        assert run.params["telemetry_mode"] == "aggregate"
        assert sum(len(s) for n in run.nodes
                   for s in n.relay_telemetry.values()) == 0
        # Aggregate streams still account nonzero relay bytes.
        assert run.simulator.net.total_bytes() > 0

    def test_seeded_runs_are_identical(self):
        from repro.obs import run_propagation_scenario
        runs = [run_propagation_scenario(nodes=12, degree=4, blocks=2,
                                         block_txns=8, interval=1.0,
                                         seed=9, drain=5.0)
                for _ in range(2)]
        assert runs[0].delays == runs[1].delays
        assert ([r.root for r in runs[0].records]
                == [r.root for r in runs[1].records])
        assert (runs[0].simulator.events_processed
                == runs[1].simulator.events_processed)

    def test_cycle_stats_cover_the_run(self):
        from repro.obs import run_propagation_scenario
        run = run_propagation_scenario(nodes=8, degree=4, blocks=2,
                                       block_txns=6, interval=1.0,
                                       seed=5, drain=4.0)
        assert sum(s.events for s in run.cycles) \
            == run.simulator.events_processed
        assert run.cycles[-1].pending == 0
        assert not any(s.truncated for s in run.cycles)

    def test_validation(self):
        from repro.obs import run_propagation_scenario
        with pytest.raises(ParameterError):
            run_propagation_scenario(nodes=1)
        with pytest.raises(ParameterError):
            run_propagation_scenario(nodes=4, topology="torus")


def _make_block(i):
    from repro.chain.block import Block
    from repro.chain.transaction import TransactionGenerator
    return Block.assemble(TransactionGenerator(seed=1000 + i).make_batch(1))
