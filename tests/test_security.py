"""Tests for the section 6.1 attack simulations."""

from __future__ import annotations

import math

import pytest

from repro.errors import MalformedIBLTError, ParameterError
from repro.pds.bloom import BloomFilter
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


def _binomial_upper(trials: int, p: float, alpha: float = 1e-6) -> int:
    """Smallest ``c`` with ``Pr[Binomial(trials, p) > c] <= alpha``."""
    tail = 1.0
    for c in range(trials + 1):
        tail -= math.comb(trials, c) * p ** c * (1 - p) ** (trials - c)
        if tail <= alpha:
            return c
    return trials


class TestSeedZeroFilter:
    def test_a_short_id_twin_passes_only_at_the_false_positive_rate(self):
        """Seed 0 is an ordinary seed: S and R absorb the whole ID.

        ``GrapheneConfig(seed=SEED_S)`` gives S the seed ``0`` (every
        structure's seed is ``config.seed ^`` its constant), and R or F
        likewise at ``0xF00D`` / ``0xFEED``.  A filter there must still
        tell a manufactured 8-byte short-ID twin from its partner
        (paper 6.1); one that read only a prefix of the ID would pass
        every twin.
        """
        trials, passed, fpr = 200, 0, 0.0
        for seed in range(trials):
            t1, t2 = craft_colliding_pair(seed=seed)
            filt = BloomFilter.from_fpr(200, 0.3, seed=0)
            assert filt.k == 2
            filt.insert(t1.txid)
            passed += t2.txid in filt
            fpr = filt.actual_fpr()
        assert passed <= _binomial_upper(trials, fpr), \
            f"{passed} of {trials} twins passed at FPR {fpr:.2e}"


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
