"""Tests for the end-to-end block relay session."""

from __future__ import annotations

import pytest

from repro.chain.scenarios import make_block_scenario
from repro.core.session import BlockRelaySession


@pytest.fixture
def session():
    return BlockRelaySession()


class TestProtocol1Path:
    def test_success_and_costs(self, session, small_scenario):
        outcome = session.relay(small_scenario.block,
                                small_scenario.receiver_mempool)
        assert outcome.success
        assert outcome.protocol_used == 1
        assert outcome.roundtrips == 1.5
        assert outcome.cost.bloom_s > 0 or outcome.cost.iblt_i > 0
        assert outcome.cost.bloom_r == 0
        assert outcome.cost.iblt_j == 0

    def test_block_reconstructed_in_order(self, session, small_scenario):
        outcome = session.relay(small_scenario.block,
                                small_scenario.receiver_mempool)
        assert [t.txid for t in outcome.txs] == small_scenario.block.txids

    def test_total_bytes_is_cost_total(self, session, small_scenario):
        outcome = session.relay(small_scenario.block,
                                small_scenario.receiver_mempool)
        assert outcome.total_bytes == outcome.cost.total()


class TestProtocol2Path:
    def test_fallback_succeeds(self, session, missing_scenario):
        outcome = session.relay(missing_scenario.block,
                                missing_scenario.receiver_mempool)
        assert outcome.success
        assert outcome.protocol_used == 2
        assert outcome.roundtrips >= 2.5
        assert outcome.cost.iblt_j > 0

    def test_pushed_bytes_counted_separately(self, session, missing_scenario):
        outcome = session.relay(missing_scenario.block,
                                missing_scenario.receiver_mempool)
        assert outcome.cost.pushed_tx_bytes > 0
        assert (outcome.cost.total(include_txs=True)
                >= outcome.cost.total() + outcome.cost.pushed_tx_bytes)

    def test_fetch_path_counts_roundtrip(self, session):
        # Run many missing-tx scenarios; whenever a fetch happened, the
        # roundtrip count and byte accounting must reflect it.
        fetches = 0
        for t in range(15):
            sc = make_block_scenario(n=150, extra=150, fraction=0.85,
                                     seed=900 + t)
            outcome = session.relay(sc.block, sc.receiver_mempool)
            assert outcome.success
            if outcome.fetched_count:
                fetches += 1
                assert outcome.roundtrips == 3.5
                assert outcome.cost.extra_getdata > 0
                assert outcome.cost.fetched_tx_bytes > 0
        # Not asserting fetches > 0: b is tuned to make slips rare.


class TestOrderingCost:
    def test_included_when_requested(self, small_scenario):
        plain = BlockRelaySession().relay(
            small_scenario.block, small_scenario.receiver_mempool)
        with_order = BlockRelaySession(include_ordering_cost=True).relay(
            small_scenario.block, small_scenario.receiver_mempool)
        assert with_order.cost.ordering > 0
        assert plain.cost.ordering == 0


class TestCostScaling:
    def test_graphene_beats_compact_blocks_for_large_blocks(self):
        from repro.baselines.compact_blocks import compact_blocks_bytes
        session = BlockRelaySession()
        sc = make_block_scenario(n=2000, extra=2000, fraction=1.0, seed=51)
        outcome = session.relay(sc.block, sc.receiver_mempool)
        assert outcome.success
        assert outcome.total_bytes < compact_blocks_bytes(2000)

    def test_cost_grows_sublinearly_with_mempool(self):
        session = BlockRelaySession()
        totals = []
        for extra in (1000, 4000):
            sc = make_block_scenario(n=1000, extra=extra, fraction=1.0,
                                     seed=52)
            totals.append(session.relay(sc.block,
                                        sc.receiver_mempool).total_bytes)
        assert totals[1] < 2 * totals[0]
