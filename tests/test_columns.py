"""Tests for columnar transaction snapshots and who owns them."""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.chain.block import Block
from repro.chain.columns import TxColumns
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction


def _tx(txid: bytes) -> Transaction:
    return Transaction(txid=txid)


class TestTxColumns:
    def test_columns_describe_the_rows(self, txgen):
        txs = txgen.make_batch(40)
        columns = TxColumns(txs)
        assert len(columns) == 40
        assert columns.ids == b"".join(tx.txid for tx in txs)
        assert columns.words.shape == (40, 4)
        assert not columns.words.flags.writeable
        assert columns.words.tobytes() == columns.ids

    @pytest.mark.parametrize("width", range(1, 9))
    def test_short_id_column_is_transaction_short_id(self, txgen, width):
        txs = txgen.make_batch(30)
        assert TxColumns(txs).short_ids(width).tolist() \
            == [tx.short_id(width) for tx in txs]

    def test_of_packs_a_sequence_once_and_passes_columns_through(self, txgen):
        txs = txgen.make_batch(5)
        columns = TxColumns.of(txs)
        assert list(columns.txs) == txs
        assert TxColumns.of(columns) is columns
        assert TxColumns.of(iter(txs)).ids == columns.ids

    def test_take_selects_rows_in_the_order_given(self, txgen):
        txs = txgen.make_batch(10)
        taken = TxColumns(txs).take(np.array([7, 2, 2, 9]))
        assert taken.txs == [txs[7], txs[2], txs[2], txs[9]]
        assert taken.ids == b"".join(tx.txid for tx in taken.txs)

    def test_rows_with_short_ids(self, txgen):
        txs = txgen.make_batch(10)
        columns = TxColumns(txs)
        wanted = {txs[6].short_id(), txs[1].short_id(), 12345, 2**64 - 1}
        assert columns.rows_with_short_ids(wanted).tolist() == [1, 6]
        assert columns.rows_with_short_ids({txs[3].short_id(5)}, 5).tolist() \
            == [3]
        assert columns.rows_with_short_ids(frozenset()).tolist() == []

    def test_empty_set(self):
        columns = TxColumns(())
        assert len(columns) == 0 and columns.ids == b""
        assert columns.short_ids(6).tolist() == []
        assert columns.canonical_rows().tolist() == []
        assert columns.take(np.flatnonzero(np.zeros(0, bool))).txs == []


class TestCanonicalRows:
    """Both paths of ``canonical_rows`` are ``sorted`` by txid: the
    integer sort of the big-endian 8-byte prefixes, and -- once two rows
    share a prefix -- the stable ``argsort`` over the IDs as ``S32``."""

    @staticmethod
    def _check(ids):
        rows = TxColumns([_tx(txid) for txid in ids]).canonical_rows()
        # Same permutation as Python's stable sort, not merely the same
        # sorted values: duplicates keep their input order.
        assert rows.tolist() == sorted(range(len(ids)), key=ids.__getitem__)

    def test_random_ids(self):
        rng = random.Random(5)
        self._check([rng.getrandbits(256).to_bytes(32, "little")
                     for _ in range(500)])

    def test_prefix_is_read_big_endian_and_unsigned(self):
        # Distinct prefixes (so no row takes the S32 path) whose order
        # differs between a little- and a big-endian reading, and
        # between a signed and an unsigned one.
        self._check([b"\x01" + bytes(31), bytes(7) + b"\x02" + bytes(24),
                     b"\x80" + bytes(31), b"\x7f" + b"\xff" * 31,
                     bytes(6) + b"\x01\x00" + bytes(24), b"\xff" * 32,
                     bytes(7) + b"\x01" + b"\xff" * 24])

    def test_one_shared_prefix_sends_the_whole_set_to_the_full_sort(self):
        rng = random.Random(7)
        ids = [rng.getrandbits(256).to_bytes(32, "little") for _ in range(60)]
        ids += [ids[17][:8] + bytes(23) + b"\x01", ids[17][:8] + bytes(24)]
        self._check(ids)

    def test_adversarial_ids(self):
        rng = random.Random(6)
        prefix = rng.getrandbits(128).to_bytes(16, "big")
        ids = [
            bytes(32),                                # all-zero
            bytes(31) + b"\x01",
            b"\x01" + bytes(31),                      # trailing zeros
            b"ab" + bytes(30),
            b"ab" + bytes(29) + b"\x01",
            b"a\x00b" + bytes(29),                    # embedded NUL
            b"a\x00c" + bytes(29),
            prefix + bytes(16),                       # shared 16-byte prefix
            prefix + bytes(15) + b"\x01",
            bytes([0x7F]) * 32, bytes([0x80]) * 32,   # compared unsigned
            bytes([0xFF]) * 32,
        ]
        ids += [prefix + rng.getrandbits(128).to_bytes(16, "big")
                for _ in range(40)]
        ids += ids[:12]                               # duplicates
        rng.shuffle(ids)
        self._check(ids)


class TestMempoolColumns:
    def test_rows_follow_iteration_order(self, txgen):
        pool = Mempool(txgen.make_batch(25))
        columns = pool.columns()
        assert list(columns.txs) == list(pool)
        assert columns.ids == b"".join(pool.txids)

    def test_same_snapshot_while_the_set_is_unchanged(self, txgen):
        txs = txgen.make_batch(8)
        pool = Mempool(txs)
        columns = pool.columns()
        assert pool.columns() is columns
        assert not pool.add(txs[0])          # already present: no change
        pool.note_inv("peer", txs[0].txid)   # the inv log is not the set
        assert pool.columns() is columns

    def test_every_mutation_drops_the_snapshot(self, txgen):
        txs = txgen.make_batch(8)
        pool = Mempool(txs[:6])
        mutations = (lambda: pool.add(txs[6]),
                     lambda: pool.remove(txs[0].txid),
                     lambda: pool.remove_block([txs[1].txid, txs[2].txid]),
                     lambda: pool.add_many(txs[7:]))
        for mutate in mutations:
            before = pool.columns()
            mutate()
            after = pool.columns()
            assert after is not before
            assert list(after.txs) == list(pool)
            assert after.ids == b"".join(pool.txids)

    def test_old_snapshot_still_describes_the_old_set(self, txgen):
        # Protocol 3 holds one snapshot across its round trips.
        txs = txgen.make_batch(6)
        pool = Mempool(txs[:5])
        before = pool.columns()
        pool.remove(txs[0].txid)
        pool.add(txs[5])
        assert list(before.txs) == txs[:5]
        assert before.ids == b"".join(tx.txid for tx in txs[:5])
        assert before.short_ids().tolist() == [tx.short_id() for tx in txs[:5]]

    @pytest.mark.parametrize("warm", [False, True])
    def test_pickle_round_trip(self, txgen, warm):
        pool = Mempool(txgen.make_batch(12))
        pool.note_inv("peer", pool.txids[0])
        if warm:
            pool.columns()
        clone = pickle.loads(pickle.dumps(pool))
        assert list(clone) == list(pool)
        assert clone.inv_exchanged("peer", pool.txids[0])
        assert clone.columns().ids == pool.columns().ids
        assert list(clone.columns().txs) == list(pool)
        clone.add(txgen.make())
        assert len(clone.columns()) == 13 and len(pool.columns()) == 12


class TestBlockColumns:
    def test_cached_for_the_life_of_the_block(self, txgen):
        block = Block.assemble(txgen.make_batch(20))
        columns = block.columns
        assert block.columns is columns
        assert columns.txs == block.txs
        assert columns.ids == b"".join(block.txids)

    def test_snapshot_is_not_part_of_the_block_value(self, txgen):
        txs = txgen.make_batch(9)
        warm, cold = Block.assemble(txs), Block.assemble(txs)
        warm.columns
        assert warm == cold and hash(warm) == hash(cold)

    @pytest.mark.parametrize("warm", [False, True])
    def test_pickle_round_trip(self, txgen, warm):
        block = Block.assemble(txgen.make_batch(15))
        if warm:
            block.columns
        clone = pickle.loads(pickle.dumps(block))
        assert clone == block
        assert clone.columns.ids == block.columns.ids
        assert clone.validate_candidate(block.txs)
