"""Tests for transactions and their generation."""

from __future__ import annotations

import cProfile
import hashlib
import pickle
import pstats
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.scenarios import make_block_scenario
from repro.chain.transaction import (
    MAX_TX_BYTES,
    SHORT_ID_BYTES,
    Transaction,
    TransactionGenerator,
)
from repro.codec import (
    decode_transaction,
    decode_tx_list,
    encode_transaction,
    encode_tx_list,
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

    def test_rejects_a_size_the_u32_wire_field_cannot_hold(self):
        # It used to construct, and encoding it raised struct.error,
        # which is not a ReproError.
        with pytest.raises(ParameterError, match="u32"):
            Transaction(txid=bytes(32), size=2**32 + 5)

    def test_bulk_path_rejects_it_too(self):
        with pytest.raises(ParameterError, match="u32"):
            Transaction.from_columns(bytes(64), [250, 2**32 + 5], [1.0, 1.0])

    def test_largest_wire_size_round_trips(self):
        tx = Transaction(txid=sha256(b"big"), size=MAX_TX_BYTES)
        assert decode_transaction(encode_transaction(tx))[0] == tx

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


def _state_digest(rng) -> str:
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()


def _digest(txs) -> str:
    return hashlib.sha256(encode_tx_list(txs)).hexdigest()


def _interleaved(gen) -> list:
    txs = []
    for _ in range(60):
        txs += [gen.make(), gen.make(size=4242), gen.make(fee_rate=0.0),
                gen.make_coinbase()]
    return txs


class TestDrawIdentity:
    """Every draw of the generator, pinned.

    Recorded from the generator that built one ``Transaction`` per
    ``make`` call through ``rng.lognormvariate`` / ``rng.expovariate``:
    the SHA-256 of the transactions' wire encoding (txid, size, fee
    rate, coinbase flag) and of ``repr(rng.getstate())`` afterwards.
    """

    BATCH = {  # make_batch(500)
        0: (
            "8d08dcb4f63a1fb709067cdb7dbacbb824db64ff00fc3c86159288dcc0fa2932",
            "2c4521bce71a624168e5bc1b46b1ebae3ce74d5c0d6af22616b0661b3461164e"),
        7: (
            "7f7986e7bf44bcd725fbc4ced69d59c5b1530b42d90a5430b190ac1dd9085bba",
            "442665f7f1f5caaba78fdfceb28750ae52a20fa73639b90901d7d8ec48eaab46"),
        2024: (
            "f147fd081638639aca9d0a02cc7dfe37bb87c1c6edac15a49563dde1022ba4ea",
            "e75290dd66c52390c546acc2bc0f8a507d376c17c3134abd33952052e82cfd1c"),
        20190819: (
            "167a0ea7c8ee8074d4a38d1124dc5ebbf2d2b9c20a7557211c52a457e44575cc",
            "01bab0792f8581b48f5d46f3d34c6b64e1ce96752eb0fc44862bab0bd03fb145"),
    }
    INTERLEAVED = {  # 60 x (make(), make(size=4242), make(fee_rate=0.0),
                     #       make_coinbase())
        0: (
            "f859bbba8c4716114640a16865df2529b5feda40500c73bb809c9bbfe4a0dd2b",
            "04e2ae68ed68e66dd8c16114d677af4c0a77cbea959757234c9f397e4a011cee"),
        7: (
            "93e6a4f34154edade2fb1f90d91e368e3343c6b2786209efb010e7418d90d244",
            "aed276f220597f7b1f9bb905887d3698a766850437e94b4b1f12e3cdde1dd7d2"),
        2024: (
            "c107c135cf9b316c14b13c37b723c675714ec3fa46d1bb270d6eab9f4961f63d",
            "7515e1298c7edecab57ca50bf13908a994874096cab60f97922b12fc165ac2b4"),
        20190819: (
            "9d7595e439b9f1954ddb4b2cc081f429f8e89d0ead44446c66d6eb6193b28a7b",
            "2da346adab426bc7563931f0be99a9a3b29ad43ca967512780bb151816d51351"),
    }
    #: pickle.dumps(list(make_block_scenario(2000, 2000, 1.0,
    #: seed=20190819).block.txs), protocol=4): the pickle format too.
    SCENARIO_PICKLE = (
        "6e002b5e107f7dff6bc9a699ef7276e7474b9990faf37e820d12848a040179b9")

    @pytest.mark.parametrize("seed", sorted(BATCH))
    def test_batch(self, seed):
        gen = TransactionGenerator(seed)
        txs = gen.make_batch(500)
        assert (_digest(txs), _state_digest(gen.rng)) == self.BATCH[seed]

    @pytest.mark.parametrize("seed", sorted(INTERLEAVED))
    def test_interleaved_calls(self, seed):
        gen = TransactionGenerator(seed)
        txs = _interleaved(gen)
        assert (_digest(txs), _state_digest(gen.rng)) == self.INTERLEAVED[seed]

    def test_scenario_records_pickle_as_before(self):
        sc = make_block_scenario(2000, 2000, 1.0, seed=20190819)
        blob = pickle.dumps(list(sc.block.txs), protocol=4)
        assert hashlib.sha256(blob).hexdigest() == self.SCENARIO_PICKLE

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_make_is_a_batch_of_one(self, seed):
        one, batch = TransactionGenerator(seed), TransactionGenerator(seed)
        for _ in range(50):
            a, (b,) = one.make(), batch.make_batch(1)
            assert pickle.dumps(a) == pickle.dumps(b)
            assert one.rng.getstate() == batch.rng.getstate()


def _inits(build) -> int:
    """Calls of ``Transaction.__init__`` while ``build()`` runs.

    Counted through ``__post_init__``, which every ``__init__`` call
    runs: generated ``__init__``s all share one file name and line, so
    the profiler cannot tell this class's from another dataclass's.
    """
    code = Transaction.__post_init__.__code__
    profile = cProfile.Profile()
    profile.enable()
    build()
    profile.disable()
    return sum(calls for (path, line, name), (calls, *_)
               in pstats.Stats(profile).stats.items()
               if (path, line, name) == (code.co_filename, code.co_firstlineno,
                                         code.co_name))


class TestBuiltInBulk:
    """Workloads and tx lists build their transactions as columns."""

    def test_the_counter_sees_a_scalar_construction(self):
        assert _inits(lambda: Transaction(txid=bytes(32))) == 1

    def test_a_block_scenario_runs_no_transaction_init(self):
        assert _inits(lambda: make_block_scenario(2000, 2000)) == 0

    def test_a_tx_list_decode_runs_no_transaction_init(self):
        blob = encode_tx_list(TransactionGenerator(5).make_batch(2000))
        assert _inits(lambda: decode_tx_list(blob)) == 0

    def test_equal_to_the_scalar_constructor_row_by_row(self):
        txs = TransactionGenerator(11).make_batch(300)
        ids = b"".join(tx.txid for tx in txs)
        flags = [i % 7 == 0 for i in range(300)]
        fees = [tx.fee_rate * 1.1 for tx in txs] + [0.0]
        bulk = Transaction.from_columns(ids + sha256(b"z"),
                                        [tx.size for tx in txs] + [9], fees,
                                        flags + [True])
        scalar = [Transaction(txid=tx.txid, size=tx.size, fee_rate=fee,
                              is_coinbase=flag)
                  for tx, fee, flag in zip(txs, fees, flags)]
        scalar.append(Transaction(txid=sha256(b"z"), size=9, fee_rate=0.0,
                                  is_coinbase=True))
        assert [pickle.dumps(tx) for tx in bulk] == [pickle.dumps(tx)
                                                     for tx in scalar]

    @given(st.lists(st.tuples(
        st.integers(-2, 2**33),
        st.one_of(st.floats(), st.integers(-2**60, 2**60), st.booleans()),
        st.booleans()), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_any_columns_match_the_scalar_constructor(self, rows):
        ids = b"".join(sha256(bytes([i])) for i in range(len(rows)))
        sizes = [size for size, _, _ in rows]
        fees = [fee for _, fee, _ in rows]
        flags = [flag for _, _, flag in rows]

        def outcome(build):
            try:
                return [pickle.dumps(tx) for tx in build()]
            except ParameterError as exc:
                return str(exc)

        assert outcome(lambda: Transaction.from_columns(
            ids, sizes, fees, flags)) == outcome(lambda: [
                Transaction(txid=ids[32 * i:32 * i + 32], size=size,
                            fee_rate=fee, is_coinbase=flag)
                for i, (size, fee, flag) in enumerate(rows)])

    def test_odd_columns_go_row_by_row_to_the_same_error(self):
        ids = bytes(96)
        for sizes, fees, message in (
                ([5, 0, 2**40], [1.0] * 3, "size must be >= 1, got 0"),
                ([5, 6, 7], [1.0, 1e39, None], "not representable as f32")):
            with pytest.raises(ParameterError, match=message):
                Transaction.from_columns(ids, sizes, fees)
        (tx,) = Transaction.from_columns(bytes(32), [7], [2])
        assert type(tx.fee_rate) is int   # kept as given, like __init__
        with pytest.raises(ParameterError, match="rows of 32 bytes"):
            Transaction.from_columns(bytes(33), [1], [1.0])

    def test_instance_layout_is_the_scalar_one(self):
        bulk = TransactionGenerator(3).make()
        scalar = Transaction(txid=bulk.txid, size=bulk.size,
                             fee_rate=bulk.fee_rate)
        assert list(vars(bulk)) == list(vars(scalar))
        assert sys.getsizeof(bulk.__dict__) <= sys.getsizeof(scalar.__dict__)

    def test_bulk_instances_take_no_more_memory(self):
        # Shared-key instances keep their values inline; an instance
        # that owns a dictionary costs ~64 bytes more.
        txs = TransactionGenerator(4).make_batch(2000)
        ids = b"".join(tx.txid for tx in txs)
        sizes = [tx.size for tx in txs]
        fees = [tx.fee_rate for tx in txs]

        def traced(build):
            tracemalloc.start()
            try:
                kept = build()
                return tracemalloc.get_traced_memory()[0], kept
            finally:
                tracemalloc.stop()

        bulk, _ = traced(lambda: Transaction.from_columns(ids, sizes, fees))
        scalar, _ = traced(lambda: [
            Transaction(txid=txid, size=size, fee_rate=fee)
            for txid, size, fee in zip(
                np.frombuffer(ids, dtype="V32").tolist(), sizes, fees)])
        assert bulk <= scalar * 1.02
