"""Tests for repro.utils.hashing."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.pds.bloom import BloomFilter
from repro.pds.iblt import IBLT
from repro.pds.reference import ReferenceHasher
from repro.pds.riblt import RIBLTEncoder
from repro.utils.hashing import (
    DerivedHasher,
    family_salts,
    mix64,
    mix64_array,
    sha256,
    short_id,
)

#: Keys every scalar/batch comparison covers: the extremes of the key
#: space, the small integers docs/TUTORIAL.md inserts, and spread bits.
EDGE_KEYS = [0, 2**64 - 1, *range(1, 10), 2**63, 0xDEADBEEF,
             0x0123456789ABCDEF]


class TestSha256:
    def test_known_digest(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad")

    def test_empty_input(self):
        assert sha256(b"").hex().startswith("e3b0c44298fc1c14")

    def test_length(self):
        assert len(sha256(b"anything")) == 32


class TestShortId:
    def test_truncates_to_8_bytes(self):
        txid = bytes(range(32))
        sid = short_id(txid, 8)
        assert sid == int.from_bytes(bytes(range(8)), "little")

    def test_width_changes_value_range(self):
        txid = sha256(b"x")
        assert short_id(txid, 1) < 256
        assert short_id(txid, 2) < 65536

    def test_shared_prefix_collides(self):
        a = bytes(8) + sha256(b"a")[:24]
        b = bytes(8) + sha256(b"b")[:24]
        assert a != b
        assert short_id(a) == short_id(b)

    @pytest.mark.parametrize("bad", [0, -1, 33])
    def test_rejects_bad_width(self, bad):
        with pytest.raises(ValueError):
            short_id(bytes(32), bad)


class TestDerivedHasher:
    def test_partitioned_indices_stay_in_partition(self):
        hasher = DerivedHasher(4, seed=1)
        cells = 40
        for key in range(100):
            idx = hasher.partitioned_indices(key, cells)
            for partition, value in enumerate(idx):
                assert partition * 10 <= value < (partition + 1) * 10

    def test_partitioned_requires_divisibility(self):
        hasher = DerivedHasher(4, seed=1)
        with pytest.raises(ValueError):
            hasher.partitioned_indices(1, 42)

    def test_different_seeds_differ(self):
        a = DerivedHasher(4, seed=1).partitioned_indices(42, 40)
        b = DerivedHasher(4, seed=2).partitioned_indices(42, 40)
        assert a != b

    def test_deterministic(self):
        h = DerivedHasher(6, seed=7)
        assert h.entry(99) == h.entry(99)

    def test_checksum_bits(self):
        h = DerivedHasher(3, seed=0)
        assert 0 <= h.checksum(12345, bits=16) < (1 << 16)

    def test_checksum_distinguishes_keys(self):
        h = DerivedHasher(3, seed=0)
        sums = {h.checksum(k) for k in range(1000)}
        # 16-bit checksums over 1000 keys: expect very few collisions.
        assert len(sums) > 980

    def test_indices_not_arithmetic_progression(self):
        # Regression: h1 + i*h2 index derivation collapses the IBLT edge
        # space and creates spurious 2-cores (birthday collisions).
        h = DerivedHasher(4, seed=3)
        progressions = 0
        for key in range(500):
            a, b, c, d = (word % 10_000 for word in h.entry(key)[0])
            if b - a == c - b == d - c:
                progressions += 1
        assert progressions <= 1

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            DerivedHasher(0)

    def test_large_k_supported(self):
        h = DerivedHasher(12, seed=5)
        idx = h.partitioned_indices(7, 120)
        assert len(idx) == 12
        assert len(set(idx)) == 12  # one per partition, all distinct


class TestMixingKernel:
    def test_pinned_outputs(self):
        # SplitMix64 seeded with 0 emits mix(g), mix(2g), ... for the
        # golden-ratio increment g: its published first two outputs.
        gamma = 0x9E3779B97F4A7C15
        assert mix64(gamma) == 0xE220A8397B1DCDAF
        assert mix64(2 * gamma & (2**64 - 1)) == 0x6E789E6AA1B965F4
        assert mix64(0) == 0
        assert mix64(1) == 0x5692161D100B05E5  # quoted in PROTOCOL.md 1.2

    def test_scalar_and_array_bodies_are_bit_identical(self):
        keys = EDGE_KEYS + [mix64(i) for i in range(1, 200)]
        mixed = mix64_array(np.array(keys, dtype=np.uint64))
        assert mixed.dtype == np.uint64
        assert mixed.tolist() == [mix64(key) for key in keys]

    def test_array_body_leaves_its_input_alone(self):
        keys = np.array(EDGE_KEYS, dtype=np.uint64)
        mix64_array(keys)
        assert keys.tolist() == EDGE_KEYS

    def test_is_a_bijection_on_a_sample(self):
        assert len({mix64(i) for i in range(20_000)}) == 20_000

    def test_salts_follow_the_documented_derivation(self):
        # Hash-split, four to a digest (PROTOCOL.md 1.2).
        salts = family_salts(b"graphene/hasher", 9, 6)
        for i, salt in enumerate(salts):
            digest = sha256(b"graphene/hasher" + (9).to_bytes(8, "little")
                            + (i // 4).to_bytes(4, "little"))
            word = digest[8 * (i % 4):8 * (i % 4) + 8]
            assert salt == int.from_bytes(word, "little")
        assert family_salts(b"graphene/hasher", 9, 2) == salts[:2]
        assert family_salts(b"graphene/bloom", 9, 1)[0] != salts[0]
        assert family_salts(b"graphene/hasher", 10, 1)[0] != salts[0]


class TestScalarBatchParity:
    @pytest.mark.parametrize("k,seed", [(1, 0), (3, 1), (4, 0x1B17),
                                        (12, 2**32 - 1)])
    def test_batch_entries_equal_entry(self, k, seed):
        hasher = DerivedHasher(k, seed=seed)
        words, csums = hasher.batch_entries(EDGE_KEYS)
        assert words.shape == (len(EDGE_KEYS), k)
        for row, csum, key in zip(words.tolist(), csums.tolist(),
                                  EDGE_KEYS):
            assert (tuple(row), csum) == hasher.entry(key)

    def test_empty_batch(self):
        words, csums = DerivedHasher(4, seed=1).batch_entries([])
        assert words.shape == (0, 4) and csums.shape == (0,)

    @pytest.mark.parametrize("k,seed", [(1, 5), (4, 9), (7, 0)])
    def test_live_hasher_equals_the_reference(self, k, seed):
        live, ref = DerivedHasher(k, seed=seed), ReferenceHasher(k, seed)
        for key in EDGE_KEYS:
            assert live.partitioned_indices(key, 10 * k) == \
                ref.partitioned_indices(key, 10 * k)
            for bits in (16, 32, 64):
                assert live.checksum(key, bits) == ref.checksum(key, bits)


class TestNoPerItemSha:
    """Graphene 6.3: structures mix a txid, never re-hash it.

    A counting wrapper stands in for ``hashlib.sha256`` while each
    structure ingests ``count`` items.  The budget is the family salts
    (four to a digest: one digest for a Bloom filter or the rateless
    stream's k = 1 hasher, two for an IBLT's k = 4) and nothing that
    grows with the item count, so per-item SHA cannot creep back
    unnoticed.
    """

    @staticmethod
    def _sha_calls(monkeypatch, count) -> dict:
        rng = random.Random(count)
        txids = [rng.getrandbits(256).to_bytes(32, "little")
                 for _ in range(2 * count)]
        keys = [rng.getrandbits(64) for _ in range(count)]
        calls = []
        real = hashlib.sha256

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        spent = {}
        with monkeypatch.context() as patch:
            patch.setattr(hashlib, "sha256", counting)
            filt = BloomFilter.from_fpr(count, 0.01, seed=0x5150)
            filt.update(txids[:count])
            assert sum(filt.contains_many(txids)) >= count
            spent["bloom"] = len(calls)

            IBLT(240, k=4, seed=0x1B17).update(keys)
            spent["iblt"] = len(calls) - spent["bloom"]

            RIBLTEncoder(keys, seed=0x3137).extend(64)
            spent["riblt"] = len(calls) - spent["bloom"] - spent["iblt"]
        return spent

    def test_sha_calls_are_a_constant_handful(self, monkeypatch):
        spent = self._sha_calls(monkeypatch, 2000)
        assert spent == {"bloom": 1, "iblt": 2, "riblt": 1}
        assert self._sha_calls(monkeypatch, 4000) == spent
