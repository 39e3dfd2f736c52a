"""Tests for transactions and their generation."""

from __future__ import annotations

import pytest

from repro.chain.transaction import (
    SHORT_ID_BYTES,
    Transaction,
    TransactionGenerator,
)
from repro.errors import ParameterError
from repro.utils.hashing import sha256


class TestTransaction:
    def test_rejects_wrong_txid_length(self):
        with pytest.raises(ParameterError):
            Transaction(txid=b"short")

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ParameterError):
            Transaction(txid=bytes(32), size=0)

    def test_short_id_default_width(self):
        tx = Transaction(txid=sha256(b"t"))
        assert tx.short_id() < (1 << (8 * SHORT_ID_BYTES))

    def test_short_id_deterministic(self):
        tx = Transaction(txid=sha256(b"t"))
        assert tx.short_id() == tx.short_id()

    def test_keyed_short_id_depends_on_key(self):
        tx = Transaction(txid=sha256(b"t"))
        assert (tx.keyed_short_id(bytes(16))
                != tx.keyed_short_id(bytes([1]) + bytes(15)))

    def test_keyed_short_id_width(self):
        tx = Transaction(txid=sha256(b"t"))
        assert tx.keyed_short_id(bytes(16), nbytes=6) < (1 << 48)

    def test_hashable_by_txid(self):
        a = Transaction(txid=sha256(b"t"), size=100)
        b = Transaction(txid=sha256(b"t"), size=100)
        assert hash(a) == hash(b)


class TestTransactionGenerator:
    def test_unique_ids(self, txgen):
        txs = txgen.make_batch(500)
        assert len({tx.txid for tx in txs}) == 500

    def test_deterministic_across_instances(self):
        a = TransactionGenerator(seed=5).make_batch(10)
        b = TransactionGenerator(seed=5).make_batch(10)
        assert [t.txid for t in a] == [t.txid for t in b]

    def test_different_seeds_differ(self):
        a = TransactionGenerator(seed=5).make()
        b = TransactionGenerator(seed=6).make()
        assert a.txid != b.txid

    def test_size_distribution_centred_near_mean(self, txgen):
        sizes = [tx.size for tx in txgen.make_batch(2000)]
        mean = sum(sizes) / len(sizes)
        assert 200 <= mean <= 350  # clipped lognormal near 250

    def test_minimum_size_clamped(self, txgen):
        assert all(tx.size >= 100 for tx in txgen.make_batch(500))

    def test_explicit_size_honoured(self, txgen):
        assert txgen.make(size=4242).size == 4242

    def test_rejects_negative_batch(self, txgen):
        with pytest.raises(ParameterError):
            txgen.make_batch(-1)

    def test_rejects_tiny_mean(self):
        with pytest.raises(ParameterError):
            TransactionGenerator(mean_size=10)
