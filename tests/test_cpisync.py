"""Tests for CPISync (characteristic polynomial interpolation)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeFailure, ParameterError
from repro.pds.cpisync import (
    FIELD_PRIME,
    cpisync_size_bytes,
    make_digest,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_roots,
    reconcile,
    sample_points,
)

P = FIELD_PRIME


def _from_roots(roots):
    """The characteristic polynomial with ``roots``, lowest degree first."""
    poly = [1]
    for root in roots:
        poly = poly_mul(poly, [(-root) % FIELD_PRIME, 1])
    return poly


class TestFieldPolynomials:
    def test_eval_known(self):
        # 3 + 2x + x^2 at x = 5 -> 38.
        assert poly_eval([3, 2, 1], 5) == 38

    def test_mul_degrees_add(self):
        product = poly_mul([1, 1], [2, 0, 1])  # (1+x)(2+x^2)
        assert product == [2, 2, 1, 1]

    def test_divmod_roundtrip(self):
        a = [5, 0, 3, 1]
        b = [2, 1]
        q, r = poly_divmod(a, b)
        recombined = poly_mul(q, b)
        recombined = [(c + (r[i] if i < len(r) else 0)) % P
                      for i, c in enumerate(recombined)]
        assert recombined == a

    def test_gcd_of_shared_roots(self):
        a = _from_roots([10, 20, 30])
        b = _from_roots([20, 30, 40])
        g = poly_gcd(a, b)
        assert sorted(poly_roots(g)) == [20, 30]

    def test_roots_of_characteristic_polynomial(self):
        roots = [7, 99, 12345, 2**63]
        recovered = poly_roots(_from_roots(roots))
        assert sorted(recovered) == sorted(roots)

    def test_roots_of_constant_is_empty(self):
        assert poly_roots([5]) == []

    def test_divide_by_zero_rejected(self):
        with pytest.raises(ParameterError):
            poly_divmod([1, 2], [])

    @given(st.sets(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_from_roots_evaluates_to_zero_at_roots(self, roots):
        poly = _from_roots(roots)
        assert all(poly_eval(poly, r) == 0 for r in roots)


class TestSamplePoints:
    def test_points_above_key_universe(self):
        for z in sample_points(10):
            assert z >= 2**64

    def test_rejects_bad_count(self):
        with pytest.raises(ParameterError):
            sample_points(0)


class TestReconcile:
    def _sets(self, shared, a_extra, b_extra, seed=0):
        rng = random.Random(seed)
        common = [rng.getrandbits(64) for _ in range(shared)]
        a = [rng.getrandbits(64) for _ in range(a_extra)]
        b = [rng.getrandbits(64) for _ in range(b_extra)]
        return common, a, b

    def test_recovers_two_sided_difference(self):
        common, a_only, b_only = self._sets(100, 6, 9, seed=1)
        digest = make_digest(common + a_only, mbar=20)
        remote, local = reconcile(digest, common + b_only)
        assert remote == frozenset(a_only)
        assert local == frozenset(b_only)

    def test_identical_sets(self):
        common, _, _ = self._sets(50, 0, 0, seed=2)
        digest = make_digest(common, mbar=4)
        remote, local = reconcile(digest, list(common))
        assert remote == frozenset() and local == frozenset()

    def test_one_sided_difference(self):
        common, a_only, _ = self._sets(60, 5, 0, seed=3)
        digest = make_digest(common + a_only, mbar=8)
        remote, local = reconcile(digest, list(common))
        assert remote == frozenset(a_only)
        assert local == frozenset()

    def test_exact_bound(self):
        common, a_only, b_only = self._sets(40, 3, 5, seed=4)
        digest = make_digest(common + a_only, mbar=8)  # exactly |diff|
        remote, local = reconcile(digest, common + b_only)
        assert remote == frozenset(a_only) and local == frozenset(b_only)

    def test_bound_violation_detected(self):
        common, a_only, b_only = self._sets(80, 10, 10, seed=5)
        digest = make_digest(common + a_only, mbar=6)
        with pytest.raises(DecodeFailure):
            reconcile(digest, common + b_only)

    def test_generous_bound_still_exact(self):
        common, a_only, b_only = self._sets(30, 2, 3, seed=6)
        digest = make_digest(common + a_only, mbar=30)
        remote, local = reconcile(digest, common + b_only)
        assert remote == frozenset(a_only) and local == frozenset(b_only)

    @given(st.integers(0, 6), st.integers(0, 6),
           st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_property(self, na, nb, seed):
        common, a_only, b_only = self._sets(20, na, nb, seed=seed)
        digest = make_digest(common + a_only, mbar=max(1, na + nb))
        remote, local = reconcile(digest, common + b_only)
        assert remote == frozenset(a_only)
        assert local == frozenset(b_only)


class TestSizeComparison:
    def test_near_information_optimal(self):
        # One field element (16 B) per difference item plus verification.
        assert cpisync_size_bytes(10) == 16 * 12 + 9

    def test_smaller_than_iblt_per_item(self):
        # Section 2.1: "more computation but smaller in size" -- CPISync
        # needs ~16 B/item while a 1/240-certified IBLT needs tau * 12 B
        # per item plus hedging.
        from repro.pds.param_table import default_param_table
        table = default_param_table(240)
        for j in (10, 50, 200):
            params = table.params_for(j)
            iblt_bytes = 12 + params.cells * 12
            assert cpisync_size_bytes(j) < iblt_bytes

    def test_rejects_bad_mbar(self):
        with pytest.raises(ParameterError):
            cpisync_size_bytes(0)
