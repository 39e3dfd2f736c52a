"""Bit-identity pins for the receive kernels, on both sides of every size
selection they make, and one count.

* The Bloom batch kernel (a ``(k, n)`` ``uint32`` bit-index matrix, a
  probe that unpacks the filter or gathers its bytes by size, an unpack
  / repack insert) against the scalar ``_indices`` and
  :mod:`repro.pds.reference`, at seed 0 and at S's seed, for ``k`` up
  to and past the eight 32-bit words of an ID.
* The IBLT fold's sort-and-reduce :func:`~repro.pds.iblt.scatter`
  against its ``bincount`` + ``bitwise_xor.at`` path, on both sides of
  ``_SCATTER_MIN`` and of the ``uint16`` cell range.
* The Merkle tree against a per-node reference, odd levels included.
* The row gather against the per-row list (any size, any integer
  dtype, after a pickle), and canonical order over a subset of rows.
* A fresh 2 000-transaction Protocol 1 relay makes no ``ufunc.at`` call
  (cProfile counts them; nothing is timed).
"""

from __future__ import annotations

import ast
import cProfile
import pickle
import pstats
import random
from array import array
from pathlib import Path

import numpy as np
import pytest

from repro.chain import merkle
from repro.chain.columns import TxColumns
from repro.chain.merkle import merkle_root_packed
from repro.chain.scenarios import make_block_scenario
from repro.chain.transaction import Transaction
from repro.codec import encode_iblt
from repro.core.engine import GrapheneReceiverEngine, GrapheneSenderEngine
from repro.core.params import GrapheneConfig
from repro.core.protocol1 import build_protocol1, receive_protocol1
from repro.net.transport import LoopbackTransport
from repro.pds import bloom, iblt
from repro.pds.bloom import BloomFilter
from repro.pds.iblt import IBLT, _SCATTER_MIN, scatter
from repro.pds.reference import ReferenceBloomFilter, ReferenceIBLT, \
    encode_reference_iblt
from repro.utils import memo as memo_module
from repro.utils.hashing import mix64, mix64_array, reduce_mod, sha256
from repro.utils.memo import BoundedMemo


def _ids(count, tag=b""):
    return [sha256(tag + i.to_bytes(4, "little")) for i in range(count)]


def _keys(count, seed=0):
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(count)]


class TestMixer:
    def test_in_place_and_scratch_forms_equal_the_fresh_one(self):
        keys = [0, 1, 2**63, 2**64 - 1] + _keys(200, seed=1)
        fresh = mix64_array(np.array(keys, dtype=np.uint64))
        assert fresh.tolist() == [mix64(key) for key in keys]
        rows = np.array([keys, keys[::-1]], dtype=np.uint64)
        scratch = np.empty(len(keys), dtype=np.uint64)
        for row in rows:
            assert mix64_array(row, out=row, scratch=scratch) is row
        assert rows[0].tolist() == fresh.tolist()
        assert rows[1].tolist() == fresh.tolist()[::-1]

    @pytest.mark.parametrize("dtype,moduli", [
        (np.uint32, [1, 2, 7, 1021, 2**31 - 1, 2**32 - 1]),
        (np.uint64, [1, 3, 14, 16384, 2**40 + 15, 2**64 - 1]),
    ])
    def test_reduce_mod_is_the_remainder(self, dtype, moduli):
        top = np.iinfo(dtype).max
        rng = np.random.default_rng(3)
        words = np.concatenate([
            np.array([0, 1, top, top - 1], dtype=dtype),
            rng.integers(0, top, 500, dtype=dtype, endpoint=True)])
        for modulus in moduli:
            words = np.concatenate([words, np.array(
                [modulus - 1, modulus, top // modulus * modulus],
                dtype=dtype)])
            reduced = words.copy()
            reduce_mod(reduced, modulus)
            assert reduced.tolist() == [w % modulus for w in words.tolist()]


class TestBloomKernel:
    """Packed kernel == scalar ``_indices`` == the reference, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 0x5150])
    @pytest.mark.parametrize("k", [1, 5, 8, 11])
    @pytest.mark.parametrize("count", [12, 300])
    def test_bits_and_answers(self, seed, k, count):
        items = _ids(count, tag=b"%d" % k)
        probes = items[::3] + _ids(count, tag=b"probe")
        nbits = 8 * count + 5   # not a whole number of bytes
        packed = BloomFilter(nbits, k, seed=seed)
        packed.update_packed(b"".join(items))
        single = BloomFilter(nbits, k, seed=seed)
        ref = ReferenceBloomFilter(nbits, k, seed=seed)
        for item in items:
            single.insert(item)
            ref.insert(item)
        assert packed._bits == single._bits == ref._bits
        matrix = packed._packed_indices(b"".join(probes))
        assert matrix.dtype == np.uint32 and matrix.shape == (k, len(probes))
        assert matrix.T.tolist() == [packed._indices(p) for p in probes]
        answers = packed.contains_packed(b"".join(probes))
        assert answers.tolist() == [p in ref for p in probes]
        assert answers.tolist() == [p in single for p in probes]

    @pytest.mark.parametrize("seed", [0, 0x5150])
    @pytest.mark.parametrize("extra_bits", [-1, 0, 1, 10**5])
    def test_both_sides_of_the_unpack_selection(self, seed, extra_bits):
        # A filter of up to 8 bits per probed index is unpacked; a
        # larger one has each index gather its byte instead.
        k, items = 3, _ids(30, tag=b"u")
        probes = items[:10] + _ids(10, tag=b"v")
        nbits = 8 * k * len(probes) + extra_bits
        filt = BloomFilter(nbits, k, seed=seed)
        filt.update(items)
        ref = ReferenceBloomFilter(nbits, k, seed=seed)
        for item in items:
            ref.insert(item)
        assert filt._bits == ref._bits
        assert filt.contains_packed(b"".join(probes)).tolist() \
            == [p in ref for p in probes]

    def test_a_memo_hit_answers_as_the_miss_did(self):
        rows = b"".join(_ids(500, tag=b"hit"))
        filt = BloomFilter.from_fpr(250, 0.02, seed=0x5150)
        filt.update_packed(rows[:32 * 250])
        bloom._INDEX_MEMO.clear()
        miss = filt.contains_packed(rows)
        assert len(bloom._INDEX_MEMO) == 1
        assert filt.contains_packed(rows).tolist() == miss.tolist()
        assert miss[:250].all()

    def test_insert_keeps_bits_already_set(self):
        first, second = _ids(40, tag=b"a"), _ids(40, tag=b"b")
        twice = BloomFilter(997, 4, seed=9)
        twice.update_packed(b"".join(first))
        twice.update_packed(b"".join(second))
        ref = ReferenceBloomFilter(997, 4, seed=9)
        for item in first + second:
            ref.insert(item)
        assert twice._bits == ref._bits


class TestScatter:
    """Sort-and-reduce == ``bincount`` + ``bitwise_xor.at`` == scalar."""

    @staticmethod
    def _fold(monkeypatch, keys, cells, k, scatter_min):
        with monkeypatch.context() as patch:
            patch.setattr(iblt, "_SCATTER_MIN", scatter_min)
            table = IBLT(cells, k=k, seed=0x1B17)
            table.update(np.array(keys, dtype=np.uint64))
        return table

    @pytest.mark.parametrize("count", [_SCATTER_MIN - 1, _SCATTER_MIN])
    @pytest.mark.parametrize("cells,k", [(70, 5), (400, 4)])
    def test_both_sides_of_the_size_selection(self, monkeypatch, count,
                                              cells, k):
        keys = [0, 2**64 - 1, 7, 7] + _keys(count - 4, seed=count)
        iblt._FOLD_CACHE.clear()
        live = IBLT(cells, k=k, seed=0x1B17)
        live.update(np.array(keys, dtype=np.uint64))
        ref = ReferenceIBLT(cells, k=k, seed=0x1B17)
        for key in keys:
            ref.insert(key)
        assert encode_iblt(live) == encode_reference_iblt(ref)
        for scatter_min in (0, 10**9):   # always sort, never sort
            iblt._FOLD_CACHE.clear()
            forced = self._fold(monkeypatch, keys, cells, k, scatter_min)
            assert encode_iblt(forced) == encode_iblt(live)

    @pytest.mark.parametrize("cells", [0x10000, 0x10000 + 4])
    def test_both_sides_of_the_uint16_cell_range(self, monkeypatch, cells):
        # 65 536 cells still sort as uint16 (largest index 65 535);
        # past that the fold keeps the .at path at any batch size.
        keys = _keys(_SCATTER_MIN + 100, seed=cells)
        iblt._FOLD_CACHE.clear()
        folded = self._fold(monkeypatch, keys, cells, 4, 0)
        single = IBLT(cells, k=4, seed=0x1B17)
        for key in keys:
            single.insert(key)
        assert folded._counts == single._counts
        assert folded._key_sums == single._key_sums
        assert folded._check_sums == single._check_sums

    @pytest.mark.parametrize("dtype", [np.uint16, np.intp])
    def test_scatter_is_a_fold_of_every_hit(self, dtype):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 2**64 - 1, 50, dtype=np.uint64)
        csums = keys & np.uint64(0xFFFF)
        cells = rng.integers(0, 9, 400).astype(dtype)
        rows = rng.integers(0, 50, 400)
        offset = 3
        columns = (array("q", bytes(8 * 12)), array("Q", bytes(8 * 12)),
                   array("Q", bytes(8 * 12)))
        scatter(columns, cells, rows, keys, csums, offset=offset)
        counts, key_sums, check_sums = [0] * 12, [0] * 12, [0] * 12
        for cell, row in zip(cells.tolist(), rows.tolist()):
            counts[offset + cell] += 1
            key_sums[offset + cell] ^= int(keys[row])
            check_sums[offset + cell] ^= int(csums[row])
        assert list(columns[0]) == counts
        assert list(columns[1]) == key_sums
        assert list(columns[2]) == check_sums


def _reference_root(leaves: list) -> bytes:
    """Bitcoin's Merkle root, one node at a time."""
    if not leaves:
        return bytes(32)
    level = list(leaves)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [sha256(sha256(left + right))
                 for left, right in zip(level[::2], level[1::2])]
    return level[0]


class TestMerkle:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 2001])
    def test_equals_the_per_node_tree(self, count):
        leaves = _ids(count, tag=b"leaf")
        merkle._ROOT_CACHE.clear()
        assert merkle_root_packed(b"".join(leaves)) == _reference_root(leaves)
        assert merkle_root_packed(b"".join(leaves)) == _reference_root(leaves)


class TestBoundedMemo:
    def test_evicts_oldest_to_half_and_keeps_an_oversized_entry_alone(self):
        memo = BoundedMemo(100, lambda key, value: len(key))
        for tag in "abcd":
            memo.remember(tag * 30, tag)
        # 120 bytes > 100: the oldest go until at most 50 remain.
        assert list(memo) == ["d" * 30] and memo.pinned == 30
        memo.remember("e" * 500, "e")
        assert list(memo) == ["e" * 500]
        memo.remember("f", "f")
        assert list(memo) == ["f"] and memo.pinned == 1
        memo.clear()
        assert not memo and memo.pinned == 0

    def test_every_module_memo_is_named_in_the_memo_docstring(self):
        """A module-level memo lands documented and counted: each ``NAME
        = BoundedMemo(...)`` under ``src/repro`` is listed in
        :mod:`repro.utils.memo`'s docstring as ``module.NAME``, and in
        ``MODULE_MEMOS`` in the docstring's order, which ``memo_stats``
        reads."""
        package = Path(memo_module.__file__).resolve().parents[1]
        found = []
        for path in sorted(package.rglob("*.py")):
            module = ".".join(
                ("repro", *path.relative_to(package).with_suffix("").parts))
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.Assign) \
                        and isinstance(node.value, ast.Call) \
                        and getattr(node.value.func, "id", None) \
                        == "BoundedMemo":
                    found += [f"{module}.{target.id}"
                              for target in node.targets]
        assert "repro.chain.merkle._ROOT_CACHE" in found
        assert [name for name in found
                if f"``{name}``" not in memo_module.__doc__] == []
        assert sorted(memo_module.MODULE_MEMOS) == sorted(found)
        assert list(memo_module.MODULE_MEMOS) == sorted(
            found, key=lambda name: memo_module.__doc__.index(f"``{name}``"))
        assert list(memo_module.memo_stats()) == list(
            memo_module.MODULE_MEMOS)

    def test_lookup_counts_hits_and_misses_and_clear_zeroes_them(self):
        memo = BoundedMemo(2, lambda key, value: 1)
        assert memo.lookup("a") is None
        memo.remember("a", 1)
        assert memo.lookup("a") == 1 and memo.lookup("a") == 1
        assert memo.lookup("b") is None
        assert (memo.hits, memo.misses) == (2, 2)
        memo.remember("b", 2)
        memo.remember("c", 3)   # past the cap: "a" and "b" go
        assert memo.lookup("a") is None and memo.lookup("c") == 3
        assert (memo.hits, memo.misses) == (3, 3)
        memo.clear()
        assert (memo.hits, memo.misses, memo.pinned) == (0, 0, 0)


def _tx(txid: bytes) -> Transaction:
    return Transaction(txid=txid)


class TestRows:
    @pytest.mark.parametrize("rows", [[], [4], [4, 1], [3, 0, 3, 7]])
    def test_gather_at_every_size(self, txgen, rows):
        txs = txgen.make_batch(8)
        gathered = TxColumns(tuple(txs)).gather(np.array(rows, dtype=np.intp))
        assert gathered == [txs[row] for row in rows]

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16,
                                       np.uint16, np.int32, np.uint32,
                                       np.int64, np.uint64, np.intp])
    def test_gather_is_the_per_row_list(self, txgen, dtype):
        txs = tuple(txgen.make_batch(9))
        columns = TxColumns(txs)
        before = pickle.dumps(columns)
        for rows in ([], [6], [3, 3, 3], [8, 0, 4, 0, 8], range(9)):
            index = np.array(rows, dtype=dtype)
            gathered = columns.gather(index)
            assert type(gathered) is list
            assert all(a is b for a, b in zip(
                gathered, [txs[r] for r in rows], strict=True))
            assert columns.take(index).txs == gathered
        # The object column is never pickled; a copy builds its own.
        assert pickle.dumps(columns) == before
        copy = pickle.loads(before)
        assert [tx.txid for tx in copy.gather(np.array([5, 1], dtype))] \
            == [txs[5].txid, txs[1].txid]

    def test_canonical_order_over_a_subset_of_rows(self):
        rng = random.Random(8)
        ids = [rng.getrandbits(256).to_bytes(32, "little") for _ in range(80)]
        ids += [ids[5][:8] + bytes(24), ids[5][:8] + b"\x01" * 24]
        columns = TxColumns([_tx(txid) for txid in ids])
        for subset in (list(range(0, 80, 3)), [81, 5, 80, 9, 5]):
            rows = np.array(subset, dtype=np.intp)
            assert columns.canonical_rows(rows).tolist() \
                == sorted(subset, key=ids.__getitem__)


class TestOneGather:
    def test_reconciled_is_built_only_when_read(self):
        sc = make_block_scenario(300, 300, 1.0, seed=2821)
        payload = build_protocol1(sc.block.columns, sc.m)
        result = receive_protocol1(payload, sc.receiver_mempool,
                                   validate_block=sc.block)
        assert result.success and result.txs == list(sc.block.txs)
        assert "reconciled" not in vars(result)
        assert {tx.txid for tx in result.reconciled} == set(sc.block.txids)


class TestNoUfuncAt:
    """A fresh relay scatters by sorting: ``ufunc.at`` walks hits one
    by one and is numpy's slowest scatter where many keys share few
    cells."""

    def test_a_fresh_p1_relay_makes_no_ufunc_at_call(self):
        sc = make_block_scenario(2000, 2000, 1.0, seed=(7 << 20) + 28)
        for memo in (bloom._INDEX_MEMO, iblt._FOLD_CACHE,
                     merkle._ROOT_CACHE):
            memo.clear()
        config = GrapheneConfig()
        profile = cProfile.Profile()
        profile.enable()
        final = LoopbackTransport(
            GrapheneSenderEngine(sc.block, config),
            GrapheneReceiverEngine(sc.receiver_mempool, config)).run()
        profile.disable()
        assert final.block is not None and final.block.txs == sc.block.txs
        stats = pstats.Stats(profile).stats
        assert [name for (_, _, name) in stats if "'at'" in name] == []
        folds = sum(calls for (_, _, name), (calls, *_) in stats.items()
                    if name == "scatter")
        assert folds == 2   # I at the sender, I' at the receiver
