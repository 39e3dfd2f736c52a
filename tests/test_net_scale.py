"""Tests for the scaled simulator core and per-link traffic counters."""

from __future__ import annotations

import weakref
from itertools import chain

import pytest

from repro.core.telemetry import MessageEvent, message_event
from repro.core.sizing import CostBreakdown
from repro.errors import ParameterError, SimulationBudgetError
from repro.net.messages import NetMessage
from repro.net.node import Node, RelayProtocol
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

    def test_spent_callbacks_are_released(self):
        # A callback that fired, was cancelled (and then skipped by
        # run) or was compacted away is no longer reachable from the
        # simulator: the heap entry was its only reference.
        sim = Simulator()
        refs = []

        def tracked():
            callback = (lambda: None)
            refs.append(weakref.ref(callback))
            return callback

        sim.post_at(1.0, tracked())
        sim.schedule(2.0, tracked())
        sim.schedule(3.0, tracked()).cancel()
        sim.run()
        assert sim.pending == 0
        doomed = [sim.schedule(10.0 + i, tracked())
                  for i in range(2 * _COMPACT_MIN)]
        for handle in doomed:
            handle.cancel()
        # Trigger the push-time compaction check.
        sim.post_at(sim.now + 1.0, lambda: None)
        assert len(sim._queue) == 1
        assert len(refs) == 3 + 2 * _COMPACT_MIN
        assert [ref for ref in refs if ref() is not None] == []


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


class TestInternedEvents:
    def test_equal_events_are_one_object(self):
        fields = ("graphene_block", "received", "receiver", "p1", 1,
                  {"iblt_i": 100, "bloom_s": 40})
        first = message_event(*fields, outcome="decoded")
        assert message_event(*fields, outcome="decoded") is first
        assert message_event(*fields) is not first
        assert first == MessageEvent(*fields, outcome="decoded")
        with pytest.raises(TypeError):
            first.parts["iblt_i"] = 0


class TestColumnarState:
    """Each :class:`Link` counts the traffic its sender put on it."""

    def test_stats_view_is_peerstats_compatible(self):
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        a.connect(b)
        assert a.peers[b].bytes_sent == 0
        a.mine_block(_make_block(0))
        sim.run()
        assert a.peers[b].messages_sent >= 1
        assert a.peers[b].bytes_sent > 0
        assert b in a.peers
        assert len(a.peers) == 1
        assert a.total_bytes_sent() == sum(
            a.peers[peer].bytes_sent for peer in a.peers)

    def test_link_counts_every_send_drops_included(self):
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        fault = FaultInjector(drop_nth=frozenset({1, 3, 4}))
        a.connect(b, Link(loss_rate=0.3, fault=fault))
        messages = [NetMessage("inv", ("block", bytes([i]) * 32), 37)
                    for i in range(12)]
        messages.append(NetMessage("block", None, 500))
        for message in messages:
            a._send(b, message)
        link = a.peers[b]
        assert fault.dropped == 3
        assert sim.pending < len(messages) - fault.dropped  # random loss
        assert link.bytes_sent == sum(m.total_size for m in messages)
        assert link.messages_sent == len(messages)
        assert b.peers[a].bytes_sent == 0

    def test_total_bytes_sent_sums_the_links(self):
        from repro.chain.scenarios import make_block_scenario
        from repro.net import connect_clique
        sim = Simulator()
        nodes = [Node(f"n{i}", sim) for i in range(4)]
        connect_clique(nodes, loss_rate=0.2)
        scenario = make_block_scenario(n=40, extra=10, fraction=0.9, seed=7)
        for node in nodes[1:]:
            node.mempool.add_many(scenario.receiver_mempool.transactions())
        nodes[0].mine_block(scenario.block)
        sim.run(until=60.0)
        for node in nodes:
            assert node.total_bytes_sent() == sum(
                link.bytes_sent for link in node.peers.values())
        assert all(link.bytes_sent > 0 for link in nodes[0].peers.values())

    def test_replacement_link_starts_at_zero(self):
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        a.connect(b)
        a.mine_block(_make_block(1))
        sim.run()
        assert a.peers[b].bytes_sent > 0
        a.connect(b, Link(latency=0.01), Link(latency=0.01))
        assert a.peers[b].bytes_sent == 0
        assert a.peers[b].messages_sent == 0
        assert a.total_bytes_sent() == 0
        a.mine_block(_make_block(2))
        sim.run()
        assert a.total_bytes_sent() == a.peers[b].bytes_sent > 0

    def test_unknown_command_raises_before_any_byte_is_charged(self):
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        a.connect(b)
        with pytest.raises(ParameterError, match="unknown command"):
            a._send(b, NetMessage("bogus", None, 10))
        assert a.peers[b].bytes_sent == a.peers[b].messages_sent == 0
        assert sim.pending == 0

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
                                       seed=3)
        assert len(run.records) == 3
        assert run.coverage == 1.0
        assert run.fork_rate == 0.0
        assert run.delay_quantile(0.5) > 0.0
        assert len(run.delays) == 3 * 11
        retained = sum(len(s) for n in run.nodes
                       for s in n.relay_telemetry.values())
        assert retained > 0
        histogram = run.registry.histogram("net_propagation_seconds")
        assert histogram.count == len(run.delays)

    def test_large_run_retains_events_and_folds_the_same(self):
        from repro.obs import run_propagation_scenario
        run = run_propagation_scenario(nodes=64, degree=4, blocks=2,
                                       block_txns=8, interval=1.0,
                                       seed=3)
        streams = [stream for node in run.nodes
                   for stream in node.relay_telemetry.values()]
        assert len(streams) == 2 * 63
        assert all(streams)
        cost = CostBreakdown.from_events(chain.from_iterable(streams))
        # The totals the aggregate-only recording of 64+ nodes folded.
        assert {part: nbytes for part, nbytes in cost.as_dict().items()
                if nbytes} == {"inv": 7686, "getdata": 7812,
                               "bloom_s": 1134, "iblt_i": 9072,
                               "counts": 378}
        for part, nbytes in cost.as_dict().items():
            assert run.registry.sum("relay_part_bytes", part=part) == nbytes

    def test_seeded_runs_are_identical(self):
        from repro.obs import run_propagation_scenario
        runs = [run_propagation_scenario(nodes=12, degree=4, blocks=2,
                                         block_txns=8, interval=1.0,
                                         seed=9)
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
                                       seed=5)
        assert sum(s.events for s in run.cycles) \
            == run.simulator.events_processed
        assert run.cycles[-1].pending == 0
        assert not any(s.truncated for s in run.cycles)

    def test_validation(self):
        from repro.obs import (measure_propagation_delay,
                               run_block_relay_scenario,
                               run_propagation_scenario)
        with pytest.raises(ParameterError):
            run_propagation_scenario(nodes=1)
        with pytest.raises(ParameterError):
            run_propagation_scenario(nodes=4, topology="torus")
        # Every preset goes through the one runner's checks, before a
        # node is built.
        bad = [lambda: run_propagation_scenario(interval=float("inf")),
               lambda: run_propagation_scenario(interval=float("nan")),
               # ~3e301 cycles: refused, not started.
               lambda: run_propagation_scenario(interval=1e-300),
               lambda: run_propagation_scenario(interval=5e-324),
               lambda: run_block_relay_scenario(nodes=0),
               lambda: run_block_relay_scenario(until=-1.0),
               lambda: run_block_relay_scenario(until=float("nan")),
               lambda: run_block_relay_scenario(sync_rounds=-1),
               lambda: measure_propagation_delay(RelayProtocol.GRAPHENE,
                                                 10, nodes=1)]
        for build in bad:
            with pytest.raises(ParameterError):
                build()


def _make_block(i):
    from repro.chain.block import Block
    from repro.chain.transaction import TransactionGenerator
    return Block.assemble(TransactionGenerator(seed=1000 + i).make_batch(1))
