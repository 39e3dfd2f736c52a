"""Tests for workload scenario generators."""

from __future__ import annotations

import pytest

from repro.chain.scenarios import (
    make_block_scenario,
    make_sync_scenario,
    mempool_multiple_to_extra,
)
from repro.errors import ParameterError


class TestBlockScenario:
    def test_full_overlap(self):
        sc = make_block_scenario(n=100, extra=50, fraction=1.0, seed=1)
        assert sc.n == 100
        assert sc.m == 150
        assert not sc.missing
        block_ids = set(sc.block.txids)
        assert all(txid in sc.receiver_mempool for txid in block_ids)

    def test_partial_overlap_counts(self):
        sc = make_block_scenario(n=100, extra=0, fraction=0.7, seed=2)
        assert len(sc.missing) == 30
        assert sc.m == 70

    def test_missing_disjoint_from_receiver(self):
        sc = make_block_scenario(n=50, extra=20, fraction=0.5, seed=3)
        for tx in sc.missing:
            assert tx.txid not in sc.receiver_mempool

    def test_extra_disjoint_from_block(self):
        sc = make_block_scenario(n=50, extra=30, fraction=1.0, seed=4)
        block_ids = set(sc.block.txids)
        extra_count = sum(
            1 for tx in sc.receiver_mempool if tx.txid not in block_ids)
        assert extra_count == 30

    def test_sender_mempool_covers_block(self):
        sc = make_block_scenario(n=40, extra=10, fraction=0.5, seed=5)
        for txid in set(sc.block.txids):
            assert txid in sc.sender_mempool

    def test_deterministic_by_seed(self):
        a = make_block_scenario(n=20, extra=10, fraction=0.5, seed=6)
        b = make_block_scenario(n=20, extra=10, fraction=0.5, seed=6)
        assert a.block.header.merkle_root == b.block.header.merkle_root

    def test_fraction_zero(self):
        sc = make_block_scenario(n=30, extra=10, fraction=0.0, seed=7)
        assert len(sc.missing) == 30

    @pytest.mark.parametrize("kwargs", [
        dict(n=-1, extra=0), dict(n=1, extra=-1),
        dict(n=1, extra=0, fraction=1.5),
    ])
    def test_rejects_bad_args(self, kwargs):
        with pytest.raises(ParameterError):
            make_block_scenario(**{"fraction": 1.0, **kwargs})


class TestSyncScenario:
    def test_sizes_equal(self):
        sc = make_sync_scenario(n=100, fraction_common=0.4, seed=8)
        assert len(sc.sender_mempool) == 100
        assert len(sc.receiver_mempool) == 100

    def test_common_really_common(self):
        sc = make_sync_scenario(n=100, fraction_common=0.4, seed=9)
        assert len(sc.common) == 40
        for tx in sc.common:
            assert tx.txid in sc.sender_mempool
            assert tx.txid in sc.receiver_mempool

    def test_exclusive_sets_disjoint(self):
        sc = make_sync_scenario(n=100, fraction_common=0.4, seed=10)
        for tx in sc.sender_only:
            assert tx.txid not in sc.receiver_mempool
        for tx in sc.receiver_only:
            assert tx.txid not in sc.sender_mempool

    def test_full_overlap_identical(self):
        sc = make_sync_scenario(n=50, fraction_common=1.0, seed=12)
        assert ({t.txid for t in sc.sender_mempool}
                == {t.txid for t in sc.receiver_mempool})

    def test_rejects_bad_fraction(self):
        with pytest.raises(ParameterError):
            make_sync_scenario(n=10, fraction_common=-0.1)


class TestMempoolMultiple:
    def test_conversion(self):
        assert mempool_multiple_to_extra(200, 0.5) == 100
        assert mempool_multiple_to_extra(200, 0.0) == 0

    def test_rounds_up(self):
        assert mempool_multiple_to_extra(3, 0.5) == 2

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            mempool_multiple_to_extra(10, -1.0)
