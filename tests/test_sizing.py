"""Tests for wire-cost accounting."""

from __future__ import annotations

from repro.core.sizing import (
    CostBreakdown,
    getdata_bytes,
    inv_bytes,
    short_id_request_bytes,
)


class TestMessageSizes:
    def test_inv_single_entry(self):
        assert inv_bytes(1) == 24 + 1 + 36

    def test_inv_batches(self):
        assert inv_bytes(10) == 24 + 1 + 360

    def test_getdata_carries_mempool_count(self):
        small = getdata_bytes(10)
        large = getdata_bytes(100_000)
        assert large > small  # CompactSize growth

    def test_short_id_request_zero_is_free(self):
        assert short_id_request_bytes(0) == 0

    def test_short_id_request_scales(self):
        assert short_id_request_bytes(5) == 24 + 1 + 40
        assert short_id_request_bytes(5, id_bytes=6) == 24 + 1 + 30


class TestCostBreakdown:
    def test_total_excludes_txs_by_default(self):
        cost = CostBreakdown(bloom_s=100, iblt_i=50, pushed_tx_bytes=1000)
        assert cost.total() == 150
        assert cost.total(include_txs=True) == 1150

    def test_merge_elementwise(self):
        a = CostBreakdown(bloom_s=1, iblt_i=2)
        b = CostBreakdown(bloom_s=10, iblt_j=5)
        merged = a.merge(b)
        assert merged.bloom_s == 11
        assert merged.iblt_i == 2
        assert merged.iblt_j == 5

    def test_merge_does_not_mutate(self):
        a = CostBreakdown(bloom_s=1)
        b = CostBreakdown(bloom_s=2)
        a.merge(b)
        assert a.bloom_s == 1

    def test_as_dict_covers_all_fields(self):
        cost = CostBreakdown()
        d = cost.as_dict()
        assert "bloom_s" in d and "fetched_tx_bytes" in d
        assert all(v == 0 for v in d.values())
