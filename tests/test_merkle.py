"""Tests for the Merkle tree."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import merkle
from repro.chain.merkle import merkle_root, merkle_root_packed
from repro.errors import ParameterError
from repro.utils.hashing import sha256

TXIDS = st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=40)


class TestMerkleRoot:
    def test_empty_is_zero(self):
        assert merkle_root([]) == bytes(32)

    def test_single_leaf_is_itself(self):
        leaf = sha256(b"only")
        assert merkle_root([leaf]) == leaf

    def test_known_pair(self):
        import hashlib
        a, b = sha256(b"a"), sha256(b"b")
        expected = hashlib.sha256(hashlib.sha256(a + b).digest()).digest()
        assert merkle_root([a, b]) == expected

    def test_odd_leaf_duplicated(self):
        a, b, c = (sha256(x) for x in (b"a", b"b", b"c"))
        assert merkle_root([a, b, c]) == merkle_root([a, b, c, c])

    def test_order_matters(self):
        a, b = sha256(b"a"), sha256(b"b")
        assert merkle_root([a, b]) != merkle_root([b, a])

    def test_content_matters(self):
        a, b, c = (sha256(x) for x in (b"a", b"b", b"c"))
        assert merkle_root([a, b]) != merkle_root([a, c])

    def test_rejects_bad_leaf_width(self):
        with pytest.raises(ParameterError):
            merkle_root([b"not-32-bytes"])

    @given(TXIDS)
    @settings(max_examples=50, deadline=None)
    def test_deterministic(self, txids):
        assert merkle_root(txids) == merkle_root(txids)

    @given(TXIDS, st.integers(0, 39))
    @settings(max_examples=50, deadline=None)
    def test_any_mutation_changes_root(self, txids, position):
        position %= len(txids)
        mutated = list(txids)
        mutated[position] = sha256(mutated[position])
        if mutated != txids:
            assert merkle_root(txids) != merkle_root(mutated)


class TestRootMemo:
    """The memo is keyed by the leaves themselves and bounded in bytes."""

    @staticmethod
    def _leaves(tag: int, count: int) -> bytes:
        return b"".join(sha256(b"%d/%d" % (tag, i)) for i in range(count))

    def test_hit_is_the_uncached_root_for_equal_bytes_in_any_buffer(self):
        leaves = self._leaves(1, 37)
        merkle._ROOT_CACHE.clear()
        root = merkle_root_packed(leaves)
        assert list(merkle._ROOT_CACHE) == [leaves]
        assert merkle_root_packed(bytes(bytearray(leaves))) == root
        assert merkle_root_packed(bytearray(leaves)) == root
        assert merkle_root_packed(memoryview(leaves)) == root
        assert len(merkle._ROOT_CACHE) == 1
        merkle._ROOT_CACHE.clear()
        assert merkle_root_packed(leaves) == root

    def test_pinned_bytes_stay_within_the_budget(self):
        merkle._ROOT_CACHE.clear()
        count = merkle._ROOT_CACHE_BYTES // (32 * 8)  # 8 entries fill it
        for tag in range(30):
            merkle_root_packed(self._leaves(tag, count))
            assert sum(map(len, merkle._ROOT_CACHE)) \
                <= merkle._ROOT_CACHE_BYTES
        newest = self._leaves(29, count)
        assert newest in merkle._ROOT_CACHE
        # A buffer larger than the whole budget is kept alone, and is
        # the first to go at the next insertion.
        huge = self._leaves(99, merkle._ROOT_CACHE_BYTES // 32 + 2)
        assert merkle_root_packed(huge) == merkle_root_packed(huge)
        assert list(merkle._ROOT_CACHE) == [huge]
        merkle_root_packed(newest[:64])
        assert list(merkle._ROOT_CACHE) == [newest[:64]]
        merkle._ROOT_CACHE.clear()

