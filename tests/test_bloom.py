"""Tests for the from-scratch Bloom filter."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.pds.bloom import (
    BloomFilter,
    bloom_size_bits,
    bloom_size_bytes,
    optimal_hash_count,
)
from repro.pds.reference import ReferenceBloomFilter
from repro.utils.hashing import sha256
from repro.utils.stats import wilson_interval

#: Width of every statistical interval below, in standard deviations: a
#: correct hash family leaves a two-sided Wilson interval at this width
#: about once in 150 000 draws, and the draws here are seeded anyway.
Z = 4.5


def _ids(count, tag=b""):
    return [sha256(tag + i.to_bytes(4, "little")) for i in range(count)]


class TestSizing:
    def test_matches_paper_formula(self):
        # T_BF = -n ln(f) / (8 ln^2 2) bytes (Eq. 2).
        n, f = 2000, 0.01
        expected = -n * math.log(f) / (8 * math.log(2) ** 2)
        assert bloom_size_bytes(n, f) == pytest.approx(expected, abs=2)

    def test_lower_fpr_means_bigger(self):
        assert bloom_size_bits(100, 0.001) > bloom_size_bits(100, 0.01)

    def test_fpr_one_is_zero_bits(self):
        assert bloom_size_bits(100, 1.0) == 0

    def test_zero_items_zero_bits(self):
        assert bloom_size_bits(0, 0.01) == 0

    def test_rejects_negative_n(self):
        with pytest.raises(ParameterError):
            bloom_size_bits(-1, 0.5)

    def test_rejects_nonpositive_fpr(self):
        with pytest.raises(ParameterError):
            bloom_size_bits(10, 0.0)

    def test_optimal_hash_count(self):
        # k = (bits/n) ln 2; for f = 1/2^10 expect about 10 hashes.
        n = 1000
        bits = bloom_size_bits(n, 2**-10)
        assert 8 <= optimal_hash_count(bits, n) <= 12

    def test_optimal_hash_count_degenerate(self):
        assert optimal_hash_count(0, 10) == 1
        assert optimal_hash_count(100, 0) == 1


class TestMembership:
    def test_no_false_negatives(self):
        filt = BloomFilter.from_fpr(500, 0.01)
        items = _ids(500)
        filt.update(items)
        assert all(item in filt for item in items)

    def test_fpr_close_to_target(self):
        target = 0.02
        filt = BloomFilter.from_fpr(1000, target)
        filt.update(_ids(1000))
        probes = _ids(20_000, tag=b"other")
        observed = sum(1 for p in probes if p in filt) / len(probes)
        assert observed == pytest.approx(target, rel=0.5)

    def test_empty_filter_matches_nothing(self):
        filt = BloomFilter.from_fpr(100, 0.01)
        assert sha256(b"probe") not in filt

    def test_degenerate_filter_matches_everything(self):
        filt = BloomFilter.from_fpr(100, 1.0)
        assert filt.is_degenerate
        assert sha256(b"anything") in filt
        assert filt.serialized_size() == 9  # header only

    def test_seed_changes_mistakes(self):
        # Same items, different seeds: false positive sets should differ.
        items = _ids(200)
        probes = _ids(5000, tag=b"p")
        fps = []
        for seed in (1, 2):
            filt = BloomFilter.from_fpr(200, 0.05, seed=seed)
            filt.update(items)
            fps.append({p for p in probes if p in filt})
        assert fps[0] != fps[1]

    def test_count_tracks_inserts(self):
        filt = BloomFilter.from_fpr(10, 0.1)
        filt.update(_ids(7))
        assert len(filt) == 7


class TestActualFpr:
    def test_unloaded_is_zero(self):
        assert BloomFilter.from_fpr(100, 0.01).actual_fpr() == 0.0

    def test_at_capacity_near_target(self):
        filt = BloomFilter.from_fpr(1000, 0.01)
        filt.update(_ids(1000))
        assert filt.actual_fpr() == pytest.approx(0.01, rel=0.5)

    def test_overload_raises_fpr(self):
        filt = BloomFilter.from_fpr(100, 0.01)
        filt.update(_ids(500))
        assert filt.actual_fpr() > 0.01


class TestConstruction:
    def test_rejects_negative_bits(self):
        with pytest.raises(ParameterError):
            BloomFilter(-1, 2)

    def test_rejects_zero_hashes(self):
        with pytest.raises(ParameterError):
            BloomFilter(100, 0)

    def test_from_fpr_rejects_zero(self):
        with pytest.raises(ParameterError):
            BloomFilter.from_fpr(10, 0.0)

    def test_target_fpr_recorded(self):
        assert BloomFilter.from_fpr(10, 0.07).target_fpr == 0.07

    def test_serialized_size_formula(self):
        filt = BloomFilter.from_fpr(300, 0.01)
        assert filt.serialized_size() == (filt.nbits + 7) // 8 + 9


class TestBatchPaths:
    """The vectorized batch entry points must match per-item inserts
    and probes."""

    def test_update_matches_scalar_inserts(self):
        items = _ids(200)
        batched = BloomFilter.from_fpr(200, 0.01, seed=9)
        batched.update(items)
        single = BloomFilter.from_fpr(200, 0.01, seed=9)
        for item in items:
            single.insert(item)
        assert batched._bits == single._bits
        assert len(batched) == len(single) == 200

    def test_update_matches_scalar_unseeded(self):
        # A filter built without a seed takes seed 0, an ordinary seed
        # of the keyed family: the same bits as the reference's.
        items = _ids(150)
        batched = BloomFilter.from_fpr(150, 0.02)
        batched.update(items)
        single = BloomFilter.from_fpr(150, 0.02)
        ref = ReferenceBloomFilter.from_fpr(150, 0.02)
        for item in items:
            single.insert(item)
            ref.insert(item)
        assert batched._bits == single._bits == ref._bits

    def test_update_matches_scalar_high_k(self):
        # More indices than the digest has 32-bit words, seeded.
        items = _ids(100)
        batched = BloomFilter(503, 11, seed=3)
        batched.update(items)
        single = BloomFilter(503, 11, seed=3)
        for item in items:
            single.insert(item)
        assert batched._bits == single._bits

    def test_update_matches_scalar_high_k_unseeded(self):
        # More indices than the digest has 32-bit words, at seed 0.
        items = _ids(100)
        batched = BloomFilter(503, 11)
        batched.update(items)
        single = BloomFilter(503, 11)
        ref = ReferenceBloomFilter(503, 11)
        for item in items:
            single.insert(item)
            ref.insert(item)
        assert batched._bits == single._bits == ref._bits

    def test_contains_many_matches_scalar(self):
        items = _ids(120)
        filt = BloomFilter.from_fpr(120, 0.05, seed=7)
        filt.update(items)
        probes = items[:60] + _ids(100, tag=b"q")
        assert filt.contains_many(probes) == [p in filt for p in probes]

    @pytest.mark.parametrize("count", [11, 12, 13, 200])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_both_sides_of_the_batch_threshold(self, count, seed):
        # 11/12/13 straddle the size (12 items) below which a scalar
        # list loop used to take over, and stay pinned: every length
        # takes the kernel, and the kernel, per-item inserts and probes
        # and the cache-free reference give one set of bits and one set
        # of answers.
        items = _ids(count)
        batched = BloomFilter(1021, 5, seed=seed)
        batched.update(items)
        single = BloomFilter(1021, 5, seed=seed)
        ref = ReferenceBloomFilter(1021, 5, seed=seed)
        for item in items:
            single.insert(item)
            ref.insert(item)
        assert batched._bits == single._bits == ref._bits
        probes = items[::2] + _ids(count, tag=b"q")
        assert batched.contains_many(probes) \
            == [p in single for p in probes] == [p in ref for p in probes]

    def test_odd_width_items_take_the_sha_first_branch(self):
        # Items that are not 32 bytes are digested first, on every path.
        items = [b"", b"short", bytes(31), bytes(33), bytes(64)] + _ids(40)
        batched = BloomFilter(2039, 4, seed=11)
        batched.update(items)
        single = BloomFilter(2039, 4, seed=11)
        rehashed = BloomFilter(2039, 4, seed=11)
        ref = ReferenceBloomFilter(2039, 4, seed=11)
        for item in items:
            single.insert(item)
            ref.insert(item)
            rehashed.insert(item if len(item) == 32 else sha256(item))
        assert batched._bits == single._bits == rehashed._bits == ref._bits
        assert batched.contains_many(items) == [True] * len(items)

    @pytest.mark.parametrize("count", [0, 1, 11, 12, 200])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_packed_equals_list_equals_scalar_equals_reference(
            self, count, seed):
        # The packed entry points are the batch kernel itself, and the
        # list wrappers reach it at every length, so both must agree
        # with per-item inserts and probes and with the reference at
        # every size and seed, 0 included.
        items = _ids(count)
        probes = items[::2] + _ids(count + 3, tag=b"q")
        packed = BloomFilter(1021, 5, seed=seed)
        packed.update_packed(b"".join(items))
        listed = BloomFilter(1021, 5, seed=seed)
        listed.update(items)
        single = BloomFilter(1021, 5, seed=seed)
        ref = ReferenceBloomFilter(1021, 5, seed=seed)
        for item in items:
            single.insert(item)
            ref.insert(item)
        assert packed._bits == listed._bits == single._bits == ref._bits
        assert len(packed) == len(listed) == len(single) == count
        answers = packed.contains_packed(b"".join(probes))
        assert answers.dtype == bool and answers.flags.writeable
        assert answers.tolist() == listed.contains_many(probes) \
            == [p in single for p in probes] == [p in ref for p in probes]

    def test_a_31_byte_item_is_digested_on_the_way_into_the_kernel(self):
        # The list wrapper packs sha256(item) for the odd item, so
        # packing by hand gives the same bits, at every seed.
        items = _ids(20) + [bytes(31)] + _ids(20, tag=b"r")
        rows = b"".join(item if len(item) == 32 else sha256(item)
                        for item in items)
        for seed in (0, 11):
            listed = BloomFilter(2039, 4, seed=seed)
            listed.update(items)
            packed = BloomFilter(2039, 4, seed=seed)
            packed.update_packed(rows)
            ref = ReferenceBloomFilter(2039, 4, seed=seed)
            for item in items:
                ref.insert(item)
            assert listed._bits == packed._bits == ref._bits
            assert listed.contains_many(items) == [True] * 41 \
                == packed.contains_packed(rows).tolist()

    def test_degenerate_and_ragged_packed_input(self):
        everything = BloomFilter.from_fpr(10, 1.0, seed=3)
        everything.update_packed(b"".join(_ids(20)))
        assert len(everything) == 0
        assert everything.contains_packed(b"".join(_ids(4))).tolist() \
            == [True] * 4
        with pytest.raises(ParameterError):
            BloomFilter(1021, 5, seed=3).update_packed(bytes(33))
        with pytest.raises(ParameterError):
            BloomFilter(1021, 5).contains_packed(bytes(31))

    def test_equal_bytes_in_another_object_hit_the_same_memo_entry(self):
        # The simulator's 20 nodes hold equal mempools in 20 objects.
        from repro.pds import bloom
        filt = BloomFilter.from_fpr(60, 0.01, seed=5)
        rows = b"".join(_ids(60, tag=b"memo"))
        filt.update_packed(rows)
        entries = len(bloom._INDEX_MEMO)
        twin = bytes(bytearray(rows))
        assert twin is not rows
        assert filt.contains_packed(twin).all()
        assert len(bloom._INDEX_MEMO) == entries

    def test_batch_never_answers_for_a_list_with_other_boundaries(self):
        # Regression: the whole-batch memo was keyed by the *joined*
        # bytes and the item count, so a list with the same
        # concatenation but different item boundaries got the first
        # list's answers (40 x True) from contains_many.
        a = _ids(40)
        filt = BloomFilter.from_fpr(40, 0.01, seed=5)
        filt.update(a)
        assert filt.contains_many(a) == [True] * 40
        b = [a[0][:31], a[0][31:] + a[1]] + a[2:]
        assert len(b) == len(a) and b"".join(b) == b"".join(a)
        scalar = [item in filt for item in b]
        assert scalar[:2] == [False, False]
        assert filt.contains_many(b) == scalar

    def test_degenerate_update_keeps_count_zero(self):
        # Zero-bit filters fold nothing into the bit array, so nothing
        # is counted: count tracks the bit-array load.
        filt = BloomFilter.from_fpr(10, 1.0)
        filt.update(_ids(5))
        filt.insert(_ids(1)[0])
        assert len(filt) == 0
        assert filt.actual_fpr() == 1.0
        assert filt.contains_many(_ids(3)) == [True, True, True]


class TestSeededFamilyStatistics:
    """The keyed-mixing family behaves like independent uniform hashing.

    Seeded draws, so the suite is deterministic; the stated bounds say
    how surprising a failure would be had the draws been fresh.
    """

    @pytest.mark.parametrize("target,probes", [(0.5, 20_000), (0.1, 20_000),
                                               (0.01, 60_000),
                                               (0.001, 200_000)])
    def test_observed_fpr_within_binomial_interval(self, target, probes):
        filt = BloomFilter.from_fpr(2000, target, seed=0x5150)
        filt.update(_ids(2000))
        hits = sum(filt.contains_many(_ids(probes, tag=b"probe")))
        low, high = wilson_interval(hits, probes, z=Z)
        assert low <= filt.actual_fpr() <= high, (
            f"target {target}: observed {hits}/{probes}, expected "
            f"{filt.actual_fpr():.5f}, interval [{low:.5f}, {high:.5f}]")

    @pytest.mark.parametrize("nbits", [1 << 14, (1 << 14) + 27])
    def test_two_seeds_share_no_more_mistakes_than_chance(self, nbits):
        # Same items, same geometry, two seeds.  With a power-of-two
        # nbits a salt XORed onto finished index words would only
        # permute bit positions and both filters would err on the very
        # same probes; the salt goes through the mixer so that they
        # share only what independent filters share: f1 * f2.
        items, probes = _ids(2400), _ids(50_000, tag=b"probe")
        mistakes = []
        for seed in (0x5150, 0x5152):
            filt = BloomFilter(nbits, 5, seed=seed)
            filt.update(items)
            mistakes.append(filt.contains_many(probes))
        first, second = (sum(m) for m in mistakes)
        shared = sum(a and b for a, b in zip(*mistakes))
        assert first > 1000 and second > 1000  # the filters do err
        low, _ = wilson_interval(shared, len(probes), z=Z)
        assert low <= (first / len(probes)) * (second / len(probes)), (
            f"{shared} shared false positives of {first} and {second}")


    def test_short_id_collisions_still_land_on_independent_bits(self):
        # Paper 6.1: S and R hold *full* IDs, so a pair manufactured to
        # share its 8-byte short ID passes a filter holding its partner
        # only at the false positive rate.  A filter that mixed the
        # short ID alone would pass all 2000.
        block = _ids(2000)
        partners = [txid[:8] + sha256(txid)[:24] for txid in block]
        filt = BloomFilter.from_fpr(2000, 0.02, seed=0x5150)
        filt.update(block)
        passed = sum(filt.contains_many(partners))
        low, high = wilson_interval(passed, len(partners), z=Z)
        assert low <= filt.actual_fpr() <= high, f"{passed} of 2000 passed"


class TestPropertyBased:
    @given(st.sets(st.binary(min_size=32, max_size=32), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_membership_superset_property(self, items):
        filt = BloomFilter.from_fpr(max(1, len(items)), 0.01)
        for item in items:
            filt.insert(item)
        assert all(item in filt for item in items)

    @given(st.integers(1, 5000),
           st.floats(min_value=1e-6, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_size_positive_and_monotone_cheap(self, n, f):
        assert bloom_size_bytes(n, f) >= 1
        assert bloom_size_bytes(n, min(0.999, f * 2)) <= bloom_size_bytes(n, f)
