"""Tests for Graphene Protocol 1."""

from __future__ import annotations

import pytest

from repro.chain.scenarios import make_block_scenario
from repro.core.protocol1 import (
    SEED_I,
    SEED_S,
    build_protocol1,
    receive_protocol1,
)


class TestBuild:
    def test_payload_parts(self, small_scenario, config):
        payload = build_protocol1(small_scenario.block.txs,
                                  small_scenario.m, config)
        assert payload.n == small_scenario.n
        assert payload.bloom_s.count == small_scenario.n
        assert payload.iblt_i.count == small_scenario.n
        assert payload.recover >= 1

    def test_wire_size_sums_parts(self, small_scenario, config):
        payload = build_protocol1(small_scenario.block.txs,
                                  small_scenario.m, config)
        assert payload.wire_size() >= (payload.bloom_bytes
                                       + payload.iblt_bytes)

    def test_seeds_differ_between_s_and_i(self):
        assert SEED_S != SEED_I

    def test_bloom_contains_all_block_txids(self, small_scenario, config):
        payload = build_protocol1(small_scenario.block.txs,
                                  small_scenario.m, config)
        for tx in small_scenario.block.txs:
            assert tx.txid in payload.bloom_s

    def test_plan_override(self, small_scenario, config):
        from repro.core.params import optimize_a
        plan = optimize_a(small_scenario.n, small_scenario.m, config)
        payload = build_protocol1(small_scenario.block.txs,
                                  small_scenario.m, config, plan=plan)
        assert payload.plan is plan


class TestReceiveHappyPath:
    def test_success_with_synced_mempool(self, small_scenario, config):
        payload = build_protocol1(small_scenario.block.txs,
                                  small_scenario.m, config)
        result = receive_protocol1(payload, small_scenario.receiver_mempool,
                                   config, validate_block=small_scenario.block)
        assert result.success
        assert result.merkle_ok
        assert len(result.txs) == small_scenario.n
        assert [t.txid for t in result.txs] == small_scenario.block.txids

    def test_candidates_cover_block(self, small_scenario, config):
        payload = build_protocol1(small_scenario.block.txs,
                                  small_scenario.m, config)
        result = receive_protocol1(payload, small_scenario.receiver_mempool,
                                   config, validate_block=small_scenario.block)
        # No Bloom false negatives: all block txns must be candidates.
        z = result.candidate_set
        candidates = {tx.txid for tx in z.source.gather(z.rows)}
        for txid in set(small_scenario.block.txids):
            assert txid in candidates

    def test_mempool_sync_mode_no_merkle(self, small_scenario, config):
        payload = build_protocol1(small_scenario.block.txs,
                                  small_scenario.m, config)
        result = receive_protocol1(payload, small_scenario.receiver_mempool,
                                   config, validate_block=None)
        assert result.success
        assert not result.merkle_ok  # merkle was never checked
        assert {t.txid for t in result.txs} == set(small_scenario.block.txids)

    def test_exact_mempool_equals_block(self, config):
        # m == n: degenerate filter, IBLT-only, must still succeed.
        sc = make_block_scenario(n=120, extra=0, fraction=1.0, seed=31)
        payload = build_protocol1(sc.block.txs, sc.m, config)
        assert payload.bloom_s.is_degenerate
        result = receive_protocol1(payload, sc.receiver_mempool, config,
                                   validate_block=sc.block)
        assert result.success


class TestReceiveFailurePaths:
    def test_missing_txs_flagged(self, missing_scenario, config):
        payload = build_protocol1(missing_scenario.block.txs,
                                  missing_scenario.m, config)
        result = receive_protocol1(payload,
                                   missing_scenario.receiver_mempool,
                                   config,
                                   validate_block=missing_scenario.block)
        assert not result.success
        # Either the IBLT failed outright, or it decoded and identified
        # the missing transactions by short ID.
        if result.decode_complete:
            missing_sids = {tx.short_id() for tx in missing_scenario.missing}
            assert result.missing_short_ids <= missing_sids

    def test_state_preserved_for_protocol2(self, missing_scenario, config):
        payload = build_protocol1(missing_scenario.block.txs,
                                  missing_scenario.m, config)
        result = receive_protocol1(payload,
                                   missing_scenario.receiver_mempool,
                                   config,
                                   validate_block=missing_scenario.block)
        assert result.iblt_diff is not None
        assert result.z == len(result.candidate_set)

    def test_badly_undersynced_receiver_fails(self, config):
        sc = make_block_scenario(n=200, extra=200, fraction=0.5, seed=32)
        payload = build_protocol1(sc.block.txs, sc.m, config)
        result = receive_protocol1(payload, sc.receiver_mempool, config,
                                   validate_block=sc.block)
        assert not result.success


class TestStatisticalBehaviour:
    def test_decode_rate_meets_beta(self, config):
        # Paper Fig. 15: failure rate well under 1/240 for synced pools.
        failures = 0
        trials = 120
        for t in range(trials):
            sc = make_block_scenario(n=100, extra=100, fraction=1.0,
                                     seed=5000 + t)
            payload = build_protocol1(sc.block.txs, sc.m, config)
            result = receive_protocol1(payload, sc.receiver_mempool, config,
                                       validate_block=sc.block)
            if not result.success:
                failures += 1
        assert failures <= 2

    def test_false_positive_count_near_a(self, config):
        # The candidate set should exceed the block by roughly `a`.
        sc = make_block_scenario(n=500, extra=2500, fraction=1.0, seed=33)
        payload = build_protocol1(sc.block.txs, sc.m, config)
        result = receive_protocol1(payload, sc.receiver_mempool, config,
                                   validate_block=sc.block)
        observed_fps = result.z - sc.n
        assert observed_fps <= payload.recover


class TestPrefill:
    """The step-3 note: send transactions the receiver cannot have."""

    def test_coinbase_auto_prefilled(self, config):
        from repro.chain.block import Block
        from repro.chain.mempool import Mempool
        from repro.chain.transaction import TransactionGenerator
        gen = TransactionGenerator(seed=61)
        txs = gen.make_batch(100)
        coinbase = gen.make_coinbase()
        block = Block.assemble(txs + [coinbase])
        receiver = Mempool(txs)  # receiver has everything BUT the coinbase
        receiver.add_many(gen.make_batch(50))

        payload = build_protocol1(block.txs, len(receiver), config)
        assert any(tx.is_coinbase for tx in payload.prefilled)
        result = receive_protocol1(payload, receiver, config,
                                   validate_block=block)
        # Protocol 1 alone suffices despite the missing coinbase.
        assert result.success

    def test_prefill_disabled_forces_protocol2(self, config):
        from repro.chain.block import Block
        from repro.chain.mempool import Mempool
        from repro.chain.transaction import TransactionGenerator
        gen = TransactionGenerator(seed=62)
        txs = gen.make_batch(100)
        coinbase = gen.make_coinbase()
        block = Block.assemble(txs + [coinbase])
        receiver = Mempool(txs)
        receiver.add_many(gen.make_batch(50))

        payload = build_protocol1(block.txs, len(receiver), config,
                                  prefill=())
        assert not payload.prefilled
        result = receive_protocol1(payload, receiver, config,
                                   validate_block=block)
        assert not result.success  # the coinbase is unrecoverable locally

    def test_prefill_charged_on_the_wire(self, config):
        from repro.chain.transaction import TransactionGenerator
        gen = TransactionGenerator(seed=63)
        txs = gen.make_batch(50) + [gen.make_coinbase(size=120)]
        with_prefill = build_protocol1(txs, 100, config)
        without = build_protocol1(txs, 100, config, prefill=())
        assert with_prefill.wire_size() >= without.wire_size() + 120

    @pytest.mark.parametrize("protocol", [1, 3])
    def test_one_prefill_rule(self, config, protocol):
        """``None`` prefills exactly the coinbase, ``()`` nothing, and a
        list exactly that list -- the coinbase too only if listed."""
        from repro.chain.block import Block
        from repro.chain.transaction import TransactionGenerator
        from repro.core.protocol3 import build_protocol3

        def prefilled(prefill):
            if protocol == 3:
                payload, _ = build_protocol3(block.columns, 150, config,
                                             prefill=prefill)
            else:
                payload = build_protocol1(block.columns, 150, config,
                                          prefill=prefill)
            return [tx.txid for tx in payload.prefilled]

        gen = TransactionGenerator(seed=64)
        coinbase = gen.make_coinbase()
        block = Block.assemble(gen.make_batch(100) + [coinbase])
        listed = [tx for tx in block.txs if not tx.is_coinbase][:3]
        assert prefilled(None) == [coinbase.txid]
        assert prefilled(()) == []
        assert prefilled(listed) == [tx.txid for tx in listed]

    def test_explicit_prefill_list(self, config, small_scenario):
        extra_push = small_scenario.block.txs[:3]
        payload = build_protocol1(small_scenario.block.txs,
                                  small_scenario.m, config,
                                  prefill=extra_push)
        assert len(payload.prefilled) == 3
        result = receive_protocol1(payload, small_scenario.receiver_mempool,
                                   config,
                                   validate_block=small_scenario.block)
        assert result.success
