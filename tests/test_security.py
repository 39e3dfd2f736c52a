"""Tests for the section 6.1 attack simulations."""

from __future__ import annotations

import pytest

from repro.errors import MalformedIBLTError, ParameterError
from repro.security.collision_attack import (
    craft_colliding_pair,
    run_collision_attack,
)
from repro.security.malformed_iblt import make_malformed_iblt


class TestMalformedIBLT:
    def test_decode_raises_instead_of_looping(self):
        with pytest.raises(MalformedIBLTError):
            make_malformed_iblt().decode()

    def test_with_honest_cover_traffic(self, rng):
        honest = [rng.getrandbits(64) for _ in range(10)]
        iblt = make_malformed_iblt(cells=120, honest_keys=honest)
        with pytest.raises(MalformedIBLTError):
            iblt.decode()

    def test_rejects_low_k(self):
        with pytest.raises(ParameterError):
            make_malformed_iblt(k=2)

    def test_subtraction_still_malformed(self, rng):
        # Subtracting an honest IBLT does not cleanse the poison.
        from repro.pds.iblt import IBLT
        honest = [rng.getrandbits(64) for _ in range(5)]
        poisoned = make_malformed_iblt(cells=60, seed=3, honest_keys=honest)
        clean = IBLT(poisoned.cells, k=poisoned.k, seed=3)
        clean.update(honest)
        with pytest.raises(MalformedIBLTError):
            poisoned.subtract(clean).decode()


class TestCollisionSearch:
    def test_crafted_pair_collides_on_short_id(self):
        t1, t2 = craft_colliding_pair(seed=2)
        assert t1.txid != t2.txid
        assert t1.short_id() == t2.short_id()


class TestCollisionAttack:
    def test_deployed_protocols_always_fail(self):
        for seed in range(5):
            result = run_collision_attack(seed=seed)
            assert result.xthin_failed
            assert result.compact_blocks_failed

    def test_siphash_defends_compact_blocks(self):
        # Keyed short IDs: the precomputed collision misses the key.
        failures = sum(run_collision_attack(seed=s)
                       .compact_blocks_siphash_failed for s in range(5))
        assert failures == 0

    def test_graphene_failure_needs_both_filters(self):
        for seed in range(10):
            result = run_collision_attack(seed=seed)
            assert result.graphene_failed == (
                result.t2_passed_s and result.t1_passed_r)

    def test_graphene_failure_probability_is_small(self):
        result = run_collision_attack(seed=0)
        assert result.graphene_failure_probability < 0.01

    def test_graphene_rarely_fails_empirically(self):
        failures = sum(run_collision_attack(seed=s).graphene_failed
                       for s in range(30))
        assert failures <= 2
