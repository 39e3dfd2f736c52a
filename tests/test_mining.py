"""Tests for Poisson mining and the ledger facts a run's fork count reads."""

from __future__ import annotations

import pytest

from repro.chain.ledger import assemble_child
from repro.chain.transaction import TransactionGenerator
from repro.errors import ParameterError
from repro.net.node import Node, RelayProtocol
from repro.net.simulator import Link, Simulator
from repro.obs import NetworkRun, run_mining_scenario, run_propagation_scenario
from repro.obs import scenario
from repro.obs.scenario import BlockRecord

#: A calm network: 50 s between finds, fast links.
CALM = dict(blocks=12, miners=3, interval=50.0, block_txns=100,
            latency=0.1, bandwidth=200_000.0, seed=5)


class TestMiningExperiment:
    def test_budget_respected_and_chain_complete(self):
        run = run_mining_scenario(RelayProtocol.GRAPHENE, **CALM)
        assert len(run.records) == 12
        # Every mined block is in the reference ledger: main chain or
        # stale, none still in flight after the drain.
        assert run.ledger.height + run.forks == 12
        assert run.covered == 3

    def test_mined_blocks_are_all_distinct(self):
        run = run_mining_scenario(RelayProtocol.GRAPHENE, **CALM)
        assert len({record.root for record in run.records}) == 12

    def test_work_split_across_miners(self):
        run = run_mining_scenario(
            RelayProtocol.GRAPHENE, blocks=15, miners=3, interval=30.0,
            block_txns=50, latency=0.05, bandwidth=500_000.0, seed=6)
        assert len({record.miner for record in run.records}) >= 2

    def test_finds_are_a_seeded_poisson_clock(self):
        run = run_mining_scenario(RelayProtocol.GRAPHENE, **CALM)
        again = run_mining_scenario(RelayProtocol.GRAPHENE, **CALM)
        times = [record.mined_at for record in run.records]
        assert times == [record.mined_at for record in again.records]
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        assert all(gap > 0 for gap in gaps)
        # Not the fixed ``interval`` schedule of the "ingest" fill.
        assert len({round(gap, 6) for gap in gaps}) == len(gaps)

    def test_slow_relay_forks_more(self):
        # Stress: big blocks, slow links, short interval.  Full-block
        # relay must fork visibly more than Graphene.
        kwargs = dict(blocks=30, miners=4, interval=20.0, block_txns=400,
                      latency=0.3, bandwidth=15_000.0, seed=7)
        full = run_mining_scenario(RelayProtocol.FULL_BLOCK, **kwargs)
        graphene = run_mining_scenario(RelayProtocol.GRAPHENE, **kwargs)
        assert full.fork_rate > graphene.fork_rate
        assert full.forks >= 2

    def test_cycle_bound_counts_the_drawn_finds(self, monkeypatch):
        # Twelve finds 50 s apart on average need about 14 cycles, but
        # exponential gaps may add up to more: the bound is checked on
        # the drawn times, so no run exceeds it.
        monkeypatch.setattr(scenario, "MAX_CYCLES", 14)
        outcomes = []
        for seed in range(6):
            try:
                run = run_mining_scenario(RelayProtocol.GRAPHENE,
                                          **{**CALM, "seed": seed})
            except ParameterError:
                outcomes.append("refused")
            else:
                assert len(run.cycles) <= 14
                outcomes.append("ran")
        assert set(outcomes) == {"refused", "ran"}

    def test_rejects_bad_args(self):
        for bad in ({"blocks": 0}, {"miners": 1}, {"interval": 0.0}):
            with pytest.raises(ParameterError):
                run_mining_scenario(RelayProtocol.GRAPHENE, **{**CALM, **bad})


class TestLedgerFacts:
    def test_fork_free_run_leaves_every_node_one_tip(self):
        run = run_propagation_scenario(nodes=24, degree=4, blocks=4,
                                       block_txns=12, interval=1.0,
                                       topology="random_regular", seed=11)
        assert run.forks == 0 and run.fork_rate == 0.0 and run.reorgs == 0
        for node in run.nodes:
            chain = node.chain
            assert chain.height == 4
            assert len(chain) == 5          # genesis and one line: one tip
            assert not chain._orphans
            assert chain.tip.header.merkle_root == run.records[-1].root

    def test_planted_race_leaves_one_stale_block(self):
        simulator = Simulator()
        a = Node("a", simulator, protocol=RelayProtocol.FULL_BLOCK)
        b = Node("b", simulator, protocol=RelayProtocol.FULL_BLOCK)
        # 0.5 s each way: the rival block lands long after each find.
        a.connect(b, Link(latency=0.5, bandwidth=1_000_000.0))
        gen = TransactionGenerator(seed=3)
        records = []
        for miner in (a, b):
            block = assemble_child(miner.chain.tip, gen.make_batch(5))
            records.append(BlockRecord(root=block.header.merkle_root,
                                       miner=miner.node_id, mined_at=0.0))
            miner.mine_block(block)
        simulator.run()
        run = NetworkRun(simulator=simulator, nodes=[a, b], tracer=None,
                         records=records)
        # Each side keeps the block it saw first and holds the rival's.
        assert a.chain.tip.header.merkle_root == records[0].root
        assert b.chain.tip.header.merkle_root == records[1].root
        assert run.forks == 1 and run.reorgs == 0
        assert run.ledger is a.chain        # equal size: the first node
        assert run.fork_rate == pytest.approx(1 / 2)
