"""Tests for the baseline relay protocols."""

from __future__ import annotations

import pytest

from repro.baselines.bloom_only import bloom_only_bytes, bloom_only_fpr
from repro.baselines.compact_blocks import (
    CompactBlocksRelay,
    compact_blocks_bytes,
    index_width,
)
from repro.baselines.difference_digest import (
    DifferenceDigestRelay,
    StrataEstimator,
)
from repro.baselines.full_block import FullBlockRelay, full_block_bytes
from repro.baselines.xthin import XThinRelay, xthin_bytes, xthin_star_bytes
from repro.chain.scenarios import make_block_scenario


class TestFullBlock:
    def test_size_is_header_plus_payloads(self, small_scenario):
        assert full_block_bytes(small_scenario.block) == (
            80 + sum(tx.size for tx in small_scenario.block.txs))

    def test_relay_always_succeeds(self, small_scenario):
        outcome = FullBlockRelay().relay(small_scenario.block)
        assert outcome.success
        assert outcome.total_bytes > full_block_bytes(small_scenario.block)


class TestCompactBlocks:
    def test_index_width_boundary(self):
        assert index_width(255) == 1
        assert index_width(256) == 3

    def test_analytic_size_scales_with_n(self):
        # Both counts use 3-byte CompactSizes, so the delta is pure IDs.
        assert compact_blocks_bytes(2000) - compact_blocks_bytes(1000) == 8000

    def test_six_byte_variant(self):
        assert compact_blocks_bytes(100, short_id_bytes=6) < \
            compact_blocks_bytes(100, short_id_bytes=8)

    def test_missing_adds_index_cost(self):
        base = compact_blocks_bytes(1000)
        with_missing = compact_blocks_bytes(1000, missing=50)
        assert with_missing == base + 24 + 1 + 3 * 50

    def test_synced_receiver_one_roundtrip(self, small_scenario):
        outcome = CompactBlocksRelay().relay(small_scenario.block,
                                             small_scenario.receiver_mempool)
        assert outcome.success
        assert outcome.roundtrips == 1.5
        assert outcome.missing_count == 0

    def test_missing_txs_repaired(self, missing_scenario):
        outcome = CompactBlocksRelay().relay(
            missing_scenario.block, missing_scenario.receiver_mempool)
        assert outcome.success
        assert outcome.missing_count == len(missing_scenario.missing)
        assert outcome.roundtrips == 2.5
        assert outcome.repair_tx_bytes == sum(
            tx.size for tx in missing_scenario.missing)

    def test_siphash_keys_differ_per_relay(self, small_scenario):
        a = CompactBlocksRelay(use_siphash=True)
        b = CompactBlocksRelay(use_siphash=True)
        assert a.siphash_key != b.siphash_key  # fresh per connection

    def test_total_include_txs(self, missing_scenario):
        outcome = CompactBlocksRelay().relay(
            missing_scenario.block, missing_scenario.receiver_mempool)
        assert outcome.total(include_txs=True) == (
            outcome.total_bytes + outcome.repair_tx_bytes)


class TestXThin:
    def test_star_is_8_bytes_per_txn(self):
        assert xthin_star_bytes(1000) == 80 + 3 + 8000

    def test_full_cost_includes_mempool_bloom(self):
        assert xthin_bytes(1000, 10_000) > xthin_star_bytes(1000)

    def test_synced_relay_succeeds(self, small_scenario):
        outcome = XThinRelay().relay(small_scenario.block,
                                     small_scenario.receiver_mempool)
        assert outcome.success
        assert outcome.pushed_count == 0

    def test_missing_txs_pushed_proactively(self, missing_scenario):
        outcome = XThinRelay().relay(missing_scenario.block,
                                     missing_scenario.receiver_mempool)
        assert outcome.success
        assert outcome.roundtrips == 1.5  # no extra roundtrip, unlike CB
        assert outcome.pushed_count >= len(missing_scenario.missing)

    def test_bloom_grows_with_mempool(self):
        small = make_block_scenario(n=100, extra=100, fraction=1.0, seed=61)
        large = make_block_scenario(n=100, extra=2000, fraction=1.0, seed=62)
        out_small = XThinRelay().relay(small.block, small.receiver_mempool)
        out_large = XThinRelay().relay(large.block, large.receiver_mempool)
        assert out_large.bloom_bytes > out_small.bloom_bytes


class TestBloomOnly:
    def test_fpr_budget(self):
        assert bloom_only_fpr(m=1144, n=1000) == pytest.approx(1 / (144 * 144))

    def test_fpr_degenerate_when_m_not_larger(self):
        assert bloom_only_fpr(m=100, n=100) == 1.0

    def test_analytic_size_smaller_than_compact_blocks(self):
        # Paper section 3: smaller whenever m < 71,982,340 + n.
        n, m = 2000, 6000
        assert bloom_only_bytes(n, m) < compact_blocks_bytes(n,
                                                             short_id_bytes=6)

    def test_graphene_smaller_for_large_blocks(self):
        from repro.analysis.theory import graphene_protocol1_bytes
        n, m = 5000, 10_000
        assert graphene_protocol1_bytes(n, m) < bloom_only_bytes(n, m)


class TestStrataEstimator:
    def test_estimate_order_of_magnitude(self, rng):
        shared = [rng.getrandbits(64) for _ in range(800)]
        only_a = [rng.getrandbits(64) for _ in range(100)]
        a = StrataEstimator(12, seed=5)
        b = StrataEstimator(12, seed=5)
        a.insert_all(shared + only_a)
        b.insert_all(shared)
        estimate = a.estimate_difference(b)
        assert 25 <= estimate <= 800  # coarse, like the original

    def test_identical_sets_estimate_small(self, rng):
        keys = [rng.getrandbits(64) for _ in range(500)]
        a = StrataEstimator(10, seed=6)
        b = StrataEstimator(10, seed=6)
        a.insert_all(keys)
        b.insert_all(keys)
        assert a.estimate_difference(b) <= 4

    def test_size_accounts_all_strata(self):
        est = StrataEstimator(8, seed=0)
        assert est.serialized_size() == 8 * est.strata[0].serialized_size()


class TestDifferenceDigest:
    def test_succeeds_on_moderate_difference(self):
        sc = make_block_scenario(n=500, extra=500, fraction=0.95, seed=63)
        outcome = DifferenceDigestRelay().relay(sc.block,
                                                sc.receiver_mempool)
        assert outcome.success
        assert outcome.estimate >= 1

    def test_more_expensive_than_graphene(self):
        # The section 5.3.2 claim.
        from repro.core.session import BlockRelaySession
        sc = make_block_scenario(n=2000, extra=2000, fraction=0.95, seed=64)
        digest = DifferenceDigestRelay().relay(sc.block, sc.receiver_mempool)
        graphene = BlockRelaySession().relay(sc.block, sc.receiver_mempool)
        assert graphene.success
        assert digest.total_bytes > graphene.total_bytes

    def test_strata_bytes_dominated_by_log_m(self):
        sc = make_block_scenario(n=200, extra=3000, fraction=1.0, seed=65)
        outcome = DifferenceDigestRelay().relay(sc.block,
                                                sc.receiver_mempool)
        assert outcome.strata_bytes >= 10 * 80 * 12  # >= 10 strata of 80 cells
