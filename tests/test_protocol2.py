"""Tests for Graphene Protocol 2 (Graphene Extended)."""

from __future__ import annotations

import pytest

from repro.chain.scenarios import make_block_scenario, make_sync_scenario
from repro.core import params, protocol2
from repro.core.bounds import x_star, y_star
from repro.core.params import GrapheneConfig
from repro.core.protocol1 import build_protocol1, receive_protocol1
from repro.core.protocol2 import (
    SPECIAL_CASE_FPR,
    build_protocol2_request,
    finish_protocol2,
    respond_protocol2,
)


def _run_p1(scenario, config):
    payload = build_protocol1(scenario.block.txs, scenario.m, config)
    p1 = receive_protocol1(payload, scenario.receiver_mempool, config,
                           validate_block=scenario.block)
    return payload, p1


def _run_full_p2(scenario, config):
    payload, p1 = _run_p1(scenario, config)
    assert not p1.success
    request, state = build_protocol2_request(p1, payload, scenario.m, config)
    response = respond_protocol2(request, scenario.block.txs, scenario.m,
                                 config)
    result = finish_protocol2(response, state, scenario.receiver_mempool,
                              config, validate_block=scenario.block)
    return request, response, result


class TestRequest:
    def test_bounds_are_consistent(self, missing_scenario, config):
        payload, p1 = _run_p1(missing_scenario, config)
        request, state = build_protocol2_request(p1, payload,
                                                 missing_scenario.m, config)
        true_x = missing_scenario.n - len(missing_scenario.missing)
        assert request.xstar <= true_x          # Theorem 2 (w.h.p.)
        assert request.z == p1.z
        assert request.b >= 1
        assert request.bloom_r.count == p1.z

    def test_wire_size_positive(self, missing_scenario, config):
        payload, p1 = _run_p1(missing_scenario, config)
        request, _ = build_protocol2_request(p1, payload, missing_scenario.m,
                                             config)
        assert request.wire_size() > request.bloom_bytes

    def test_special_case_triggers_when_m_equals_n(self, config):
        sc = make_block_scenario(n=150, extra=0, fraction=0.6, seed=41)
        payload, p1 = _run_p1(sc, config)
        assert not p1.success
        request, state = build_protocol2_request(p1, payload, sc.m, config)
        assert request.special_case
        assert request.bloom_r.target_fpr == pytest.approx(
            SPECIAL_CASE_FPR)

    def test_standard_case_when_mempool_larger(self, config):
        sc = make_block_scenario(n=200, extra=200, fraction=0.9, seed=42)
        payload, p1 = _run_p1(sc, config)
        assert not p1.success
        request, _ = build_protocol2_request(p1, payload, sc.m, config)
        assert not request.special_case


class TestRespond:
    def test_pushes_filter_misses(self, config):
        sc = make_block_scenario(n=200, extra=200, fraction=0.9, seed=43)
        payload, p1 = _run_p1(sc, config)
        request, _ = build_protocol2_request(p1, payload, sc.m, config)
        response = respond_protocol2(request, sc.block.txs, sc.m, config)
        pushed_ids = {tx.txid for tx in response.missing_txs}
        missing_ids = {tx.txid for tx in sc.missing}
        # Everything pushed is genuinely in the block and missed R.
        assert pushed_ids <= set(sc.block.txids)
        # Most missing transactions fail R and get pushed; at most b slip.
        assert len(missing_ids - pushed_ids) <= max(2 * request.b, 10)

    def test_iblt_j_covers_block(self, config):
        sc = make_block_scenario(n=100, extra=100, fraction=0.9, seed=44)
        payload, p1 = _run_p1(sc, config)
        request, _ = build_protocol2_request(p1, payload, sc.m, config)
        response = respond_protocol2(request, sc.block.txs, sc.m, config)
        assert response.iblt_j.count == sc.n

    def test_special_case_includes_filter_f(self, config):
        sc = make_block_scenario(n=150, extra=0, fraction=0.6, seed=45)
        payload, p1 = _run_p1(sc, config)
        request, _ = build_protocol2_request(p1, payload, sc.m, config)
        response = respond_protocol2(request, sc.block.txs, sc.m, config)
        assert response.bloom_f is not None
        assert response.bloom_f_bytes > 0


class TestFinish:
    def test_recovers_block_with_repair(self, config):
        sc = make_block_scenario(n=200, extra=200, fraction=0.9, seed=46)
        request, response, result = _run_full_p2(sc, config)
        assert result.decode_complete
        recovered_ids = {tx.txid for tx in result.reconciled}
        if result.missing_short_ids:
            # The protocol identified exactly what a final getdata fetches.
            still = {tx for tx in sc.block.txs
                     if tx.short_id() in result.missing_short_ids}
            recovered_ids |= {tx.txid for tx in still}
        assert recovered_ids == set(sc.block.txids)

    def test_success_without_residual_missing(self, config):
        # With fraction 0.95 and roomy mempool, usually nothing slips R.
        successes = 0
        for t in range(10):
            sc = make_block_scenario(n=100, extra=100, fraction=0.95,
                                     seed=600 + t)
            payload, p1 = _run_p1(sc, config)
            if p1.success:
                continue
            request, state = build_protocol2_request(p1, payload, sc.m,
                                                     config)
            response = respond_protocol2(request, sc.block.txs, sc.m, config)
            result = finish_protocol2(response, state, sc.receiver_mempool,
                                      config, validate_block=sc.block)
            if result.success:
                successes += 1
                assert result.merkle_ok
        assert successes >= 5

    def test_special_case_end_to_end(self, config):
        sc = make_block_scenario(n=150, extra=0, fraction=0.6, seed=47)
        request, response, result = _run_full_p2(sc, config)
        assert request.special_case
        assert result.decode_complete

    def test_sync_scenario_special_case(self, config):
        # m = n mempool sync: the regime of Fig. 18.
        sc = make_sync_scenario(n=300, fraction_common=0.5, seed=48)
        sender_txs = sc.sender_mempool.transactions()
        payload = build_protocol1(sender_txs, len(sc.receiver_mempool),
                                  config)
        p1 = receive_protocol1(payload, sc.receiver_mempool, config)
        assert not p1.decode_complete
        request, state = build_protocol2_request(p1, payload,
                                                 len(sc.receiver_mempool),
                                                 config)
        response = respond_protocol2(request, sender_txs,
                                     len(sc.receiver_mempool), config)
        result = finish_protocol2(response, state, sc.receiver_mempool,
                                  config)
        assert result.decode_complete
        # Everything recovered is from the sender's mempool.
        sender_ids = {tx.txid for tx in sender_txs}
        assert {tx.txid for tx in result.reconciled} <= sender_ids


class TestPlanMemos:
    """``(x*, y*)`` and the ``b`` plan are memoized by their exact inputs:
    a hit answers as the computation did, and no key count outgrows the
    budget."""

    def test_a_hit_is_the_computed_answer(self, missing_scenario, config):
        protocol2._BOUNDS_CACHE.clear()
        params._PLAN_B_CACHE.clear()
        payload, p1 = _run_p1(missing_scenario, config)
        first, _ = build_protocol2_request(p1, payload, missing_scenario.m,
                                           config)
        misses = (protocol2._BOUNDS_CACHE.misses,
                  params._PLAN_B_CACHE.misses)
        again, _ = build_protocol2_request(p1, payload, missing_scenario.m,
                                           config)
        assert (again.xstar, again.ystar, again.b, again.bloom_r._bits) \
            == (first.xstar, first.ystar, first.b, first.bloom_r._bits)
        assert misses == (protocol2._BOUNDS_CACHE.misses,
                          params._PLAN_B_CACHE.misses)
        assert protocol2._BOUNDS_CACHE.hits >= 1
        assert params._PLAN_B_CACHE.hits >= 1
        key = next(iter(protocol2._BOUNDS_CACHE))
        xstar = x_star(*key[:3], beta=key[3], n=key[4])
        assert protocol2._BOUNDS_CACHE[key] == (xstar, y_star(
            *key[:3], beta=key[3], xstar=xstar, n=key[4]))
        for key, plan in params._PLAN_B_CACHE.items():
            assert plan == params._optimize_b_uncached(*key)

    def test_ten_thousand_keys_stay_within_each_budget(self, config):
        protocol2._BOUNDS_CACHE.clear()
        params._PLAN_B_CACHE.clear()
        for i in range(10_000):
            protocol2._bounds(3 + i % 5, 10 + i, 0.1, config.beta, 8)
            params.optimize_b(1 + i, 0, i % 7, config)
        for memo in (protocol2._BOUNDS_CACHE, params._PLAN_B_CACHE):
            assert 0 < len(memo) == memo.pinned <= memo.budget
            assert memo.misses == 10_000
        protocol2._BOUNDS_CACHE.clear()
        params._PLAN_B_CACHE.clear()
