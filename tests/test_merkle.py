"""Tests for the Merkle tree."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import merkle
from repro.chain.merkle import (certified_root, matches_root, merkle_root,
                                merkle_root_packed)
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
    """The memo is keyed by the root it certifies, holds the leaves that
    certified it, and is bounded in bytes."""

    @staticmethod
    def _leaves(tag: int, count: int) -> bytes:
        return b"".join(sha256(b"%d/%d" % (tag, i)) for i in range(count))

    @staticmethod
    def _count_trees(monkeypatch) -> list:
        calls: list = []
        tree = merkle.merkle_root_packed

        def counted(ids):
            calls.append(len(ids))
            return tree(ids)
        monkeypatch.setattr(merkle, "merkle_root_packed", counted)
        return calls

    def test_hit_is_the_uncached_root_for_equal_bytes_in_any_buffer(
            self, monkeypatch):
        leaves = self._leaves(1, 37)
        merkle._ROOT_CACHE.clear()
        root = merkle_root_packed(leaves)
        assert not merkle._ROOT_CACHE  # the tree itself remembers nothing
        assert matches_root(leaves, root)
        assert list(merkle._ROOT_CACHE.items()) == [(root, leaves)]
        trees = self._count_trees(monkeypatch)
        for buffer in (bytes(bytearray(leaves)), bytearray(leaves),
                       memoryview(leaves)):
            assert matches_root(buffer, root)
        assert trees == [] and merkle._ROOT_CACHE.hits == 3
        assert len(merkle._ROOT_CACHE) == 1
        merkle._ROOT_CACHE.clear()
        assert matches_root(memoryview(leaves), root) and trees == [len(leaves)]
        assert type(merkle._ROOT_CACHE[root]) is bytes
        merkle._ROOT_CACHE.clear()

    def test_pinned_bytes_stay_within_the_budget(self):
        merkle._ROOT_CACHE.clear()
        count = merkle._ROOT_CACHE_BYTES // (32 * 8)  # 8 entries fill it
        for tag in range(30):
            root = certified_root(self._leaves(tag, count))
            assert sum(map(len, merkle._ROOT_CACHE.values())) \
                == merkle._ROOT_CACHE.pinned <= merkle._ROOT_CACHE_BYTES
        assert merkle._ROOT_CACHE[root] == self._leaves(29, count)
        # Leaves larger than the whole budget are kept alone, and are
        # the first to go at the next insertion.
        huge = self._leaves(99, merkle._ROOT_CACHE_BYTES // 32 + 2)
        huge_root = certified_root(huge)
        assert certified_root(huge) == huge_root
        assert list(merkle._ROOT_CACHE.items()) == [(huge_root, huge)]
        small = self._leaves(29, 2)
        assert matches_root(small, merkle_root_packed(small))
        assert list(merkle._ROOT_CACHE.values()) == [small]
        merkle._ROOT_CACHE.clear()

    def test_ten_thousand_roots_stay_within_the_budget(self):
        merkle._ROOT_CACHE.clear()
        for tag in range(10_000):
            leaves = self._leaves(tag, 16)  # 512 bytes: 2 048 fill it
            assert matches_root(leaves, certified_root(leaves))
            assert merkle._ROOT_CACHE.pinned <= merkle._ROOT_CACHE_BYTES
        assert merkle._ROOT_CACHE.pinned \
            == sum(map(len, merkle._ROOT_CACHE.values()))
        assert merkle._ROOT_CACHE.hits == 10_000
        merkle._ROOT_CACHE.clear()

    def test_held_leaves_that_differ_are_recomputed_and_rejected(
            self, monkeypatch):
        leaves = self._leaves(2, 9)
        merkle._ROOT_CACHE.clear()
        root = certified_root(leaves)
        swapped = leaves[32:64] + leaves[:32] + leaves[64:]
        trees = self._count_trees(monkeypatch)
        assert not matches_root(swapped, root)
        assert trees == [len(swapped)]
        # Bitcoin's odd-level rule: doubling the last leaf of an odd
        # list keeps the root.  Such a twin is recomputed and accepted,
        # and the leaves that certified the root first stay held.
        twin = leaves + leaves[-32:]
        assert matches_root(twin, root) and len(trees) == 2
        assert list(merkle._ROOT_CACHE.items()) == [(root, leaves)]
        merkle._ROOT_CACHE.clear()

    def test_hostile_candidates_never_enter_the_memo(self):
        merkle._ROOT_CACHE.clear()
        honest = self._leaves(3, 12)
        root = merkle_root_packed(honest)
        for hostile in (self._leaves(4, 12), honest[32:], honest[:-32],
                        honest[:32] * 12):
            assert not matches_root(hostile, root)
        assert not merkle._ROOT_CACHE
        assert matches_root(honest, root)
        assert list(merkle._ROOT_CACHE.items()) == [(root, honest)]
        merkle._ROOT_CACHE.clear()
