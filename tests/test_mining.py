"""Tests for the Poisson mining simulation."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.net.mining import MinerNode, run_mining_experiment
from repro.net.node import RelayProtocol
from repro.net.simulator import Simulator


def mine(sim: Simulator, miner: MinerNode, blocks: int) -> None:
    """Run ``sim`` until ``miner`` has found ``blocks`` blocks, then stop
    it and drain what is in flight."""
    miner.start_mining()
    while len(miner.mined) < blocks:
        sim.run(max_events=1)
    miner.stop_mining()
    sim.run()


class TestMinerNode:
    def test_rejects_bad_hashrate(self):
        sim = Simulator()
        with pytest.raises(ParameterError):
            MinerNode("m", sim, hashrate_share=1.5)

    def test_cannot_mine_without_hashrate(self):
        sim = Simulator()
        miner = MinerNode("m", sim, hashrate_share=0.0)
        with pytest.raises(ParameterError):
            miner.start_mining()

    def test_solo_miner_builds_linear_chain(self):
        sim = Simulator()
        a = MinerNode("a", sim, hashrate_share=1.0, block_interval=10.0)
        b = MinerNode("b", sim, hashrate_share=0.0)
        # Share a genesis so chains agree.
        b.chain = type(b.chain)(a.chain.genesis)
        a.connect(b)
        mine(sim, a, 5)
        assert len(a.mined) == 5
        assert a.chain.height == 5
        assert a.chain.fork_rate() == 0.0

    def test_blocks_include_coinbase(self):
        sim = Simulator()
        a = MinerNode("a", sim, hashrate_share=1.0, block_interval=5.0)
        mine(sim, a, 2)
        for block in a.mined:
            assert any(tx.is_coinbase for tx in block.txs)

    def test_mined_blocks_are_all_distinct(self):
        sim = Simulator()
        a = MinerNode("a", sim, hashrate_share=1.0, block_interval=5.0)
        mine(sim, a, 4)
        roots = {block.header.merkle_root for block in a.mined}
        assert len(roots) == 4  # coinbase uniqueness


class TestMiningExperiment:
    def test_budget_respected_and_chain_complete(self):
        report = run_mining_experiment(
            RelayProtocol.GRAPHENE, blocks=12, miners=3,
            block_interval=50.0, block_txns=100,
            latency=0.1, bandwidth=200_000.0, seed=5)
        assert report.blocks_mined >= 12
        # Every mined block is accounted for: main chain + stale.
        assert (report.main_chain_height + report.stale_blocks
                >= report.blocks_mined - 2)  # in-flight slack

    def test_work_split_across_miners(self):
        report = run_mining_experiment(
            RelayProtocol.GRAPHENE, blocks=15, miners=3,
            block_interval=30.0, block_txns=50,
            latency=0.05, bandwidth=500_000.0, seed=6)
        contributors = sum(1 for count in report.per_miner_blocks.values()
                           if count > 0)
        assert contributors >= 2

    def test_slow_relay_forks_more(self):
        # Stress: big blocks, slow links, short interval.  Full-block
        # relay must fork visibly more than Graphene.
        kwargs = dict(blocks=30, miners=4, block_interval=20.0,
                      block_txns=400, latency=0.3, bandwidth=15_000.0,
                      seed=7)
        full = run_mining_experiment(RelayProtocol.FULL_BLOCK, **kwargs)
        graphene = run_mining_experiment(RelayProtocol.GRAPHENE, **kwargs)
        assert full.fork_rate > graphene.fork_rate
        assert full.stale_blocks >= 2

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            run_mining_experiment(RelayProtocol.GRAPHENE, blocks=0)
        with pytest.raises(ParameterError):
            run_mining_experiment(RelayProtocol.GRAPHENE, miners=1)
