"""Tests for the mempool."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.columns import TxColumns
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction, TransactionGenerator


class TestSetOperations:
    def test_add_and_contains(self, txgen):
        pool = Mempool()
        tx = txgen.make()
        assert pool.add(tx)
        assert tx.txid in pool

    def test_double_add_returns_false(self, txgen):
        pool = Mempool()
        tx = txgen.make()
        pool.add(tx)
        assert not pool.add(tx)
        assert len(pool) == 1

    def test_constructor_seeds_content(self, txgen):
        txs = txgen.make_batch(5)
        pool = Mempool(txs)
        assert len(pool) == 5

    def test_add_many_counts_new(self, txgen):
        txs = txgen.make_batch(5)
        pool = Mempool(txs[:2])
        assert pool.add_many(txs) == 3

    def test_remove_block_evicts_confirmed(self, txgen):
        txs = txgen.make_batch(10)
        pool = Mempool(txs)
        evicted = pool.remove_block([tx.txid for tx in txs[:4]])
        assert evicted == 4
        assert len(pool) == 6

    def test_iteration_yields_transactions(self, txgen):
        txs = txgen.make_batch(3)
        pool = Mempool(txs)
        assert {tx.txid for tx in pool} == {tx.txid for tx in txs}

    def test_txids_property(self, txgen):
        txs = txgen.make_batch(3)
        pool = Mempool(txs)
        assert set(pool.txids) == {tx.txid for tx in txs}


class TestSnapshotLifetime:
    """The cached ``TxColumns`` is dropped when the set changed and only
    then: a hit invalidates, a miss keeps the same object."""

    @pytest.fixture
    def pool(self, txgen):
        return Mempool(txgen.make_batch(6))

    def test_a_hit_invalidates(self, pool, txgen):
        held = pool.txids
        for change in (lambda: pool.add(txgen.make()),
                       lambda: pool.add_many(txgen.make_batch(2)),
                       lambda: pool.remove_block(held[:1]),
                       lambda: pool.remove_block(held[1:3])):
            before = pool.columns()
            assert change()
            after = pool.columns()
            assert after is not before
            assert after.ids == b"".join(pool.txids)
            assert before.ids != after.ids

    def test_a_miss_keeps_the_snapshot(self, pool, txgen):
        stranger = txgen.make()
        before = pool.columns()
        assert not pool.add(pool.transactions()[0])
        assert pool.add_many(pool.transactions()) == 0
        assert pool.add_many([]) == 0
        assert pool.remove_block([stranger.txid, b"\x00" * 32]) == 0
        assert pool.remove_block([]) == 0
        assert pool.columns() is before


_KNOWN = TransactionGenerator(seed=77).make_batch(12)
#: Same txid, different object: first insertion must win.
_TWINS = [Transaction(txid=tx.txid, size=tx.size + 1, fee_rate=tx.fee_rate)
          for tx in _KNOWN[:4]]
#: Short draws from a small population: repeats and members already held.
_TXS = st.lists(st.sampled_from(_KNOWN + _TWINS), max_size=30)


class TestBulkEqualsItemByItem:
    """``add_many`` / ``copy`` against the per-item calls they replace,
    ``remove_block`` against a filter of the set, on sequences with
    repeats, pre-existing members and unknown txids."""

    @staticmethod
    def _same(a: Mempool, b: Mempool) -> None:
        assert a.txids == b.txids
        assert all(x is y for x, y in zip(a.transactions(),
                                          b.transactions()))

    @given(_TXS, _TXS)
    @settings(max_examples=150, deadline=None)
    def test_add_many(self, initial, batch):
        bulk, single = Mempool(), Mempool()
        for pool in (bulk, single):
            for tx in initial:
                pool.add(tx)
        assert bulk.add_many(iter(batch)) == \
            sum(single.add(tx) for tx in batch)
        self._same(bulk, single)
        self._same(Mempool(initial + batch), single)

    @given(_TXS, _TXS)
    @settings(max_examples=150, deadline=None)
    def test_remove_block(self, initial, batch):
        bulk = Mempool(initial)
        txids = [tx.txid for tx in batch] + [b"\xee" * 32]
        kept = Mempool(tx for tx in bulk if tx.txid not in set(txids))
        assert bulk.remove_block(iter(txids)) == \
            len(Mempool(initial)) - len(kept)
        self._same(bulk, kept)

    @given(_TXS, _TXS)
    @settings(max_examples=100, deadline=None)
    def test_copy_is_independent(self, initial, batch):
        original = Mempool(initial)
        snapshot = original.columns()
        content = original.transactions()
        clone = original.copy()
        self._same(clone, original)
        assert clone.columns() is snapshot

        clone.add_many(batch)
        clone.add(TransactionGenerator(seed=5).make())
        clone.remove_block(clone.txids[:2])
        clone.remove_block(tx.txid for tx in batch)
        assert original.transactions() == content
        assert original.columns() is snapshot
        assert snapshot.ids == b"".join(original.txids)
        assert clone.columns().ids == b"".join(clone.txids)
        assert list(clone.columns().txs) == clone.transactions()
        # The other direction: the original changes, the copy does not.
        second = original.copy()
        original.remove_block(original.txids)
        assert second.transactions() == content
        assert second.columns() is snapshot

    @given(_TXS)
    @settings(max_examples=50, deadline=None)
    def test_copy_survives_pickle(self, initial):
        original = Mempool(initial)
        original.columns()
        thawed = pickle.loads(pickle.dumps(
            original.copy(), protocol=pickle.HIGHEST_PROTOCOL))
        assert thawed.transactions() == original.transactions()
        fresh = TxColumns(tuple(thawed.transactions()))
        assert thawed.columns().ids == fresh.ids
        assert list(thawed.columns().txs) == list(fresh.txs)
        assert thawed.add(TransactionGenerator(seed=6).make())
        assert len(thawed.columns()) == len(original) + 1
