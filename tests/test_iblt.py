"""Tests for the from-scratch IBLT."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import encode_iblt
from repro.errors import MalformedIBLTError, ParameterError
from repro.pds import iblt as iblt_module
from repro.pds.iblt import (
    DEFAULT_CELL_BYTES,
    IBLT,
    IBLT_HEADER_BYTES,
)
from repro.pds.param_table import default_param_table
from repro.pds.reference import ReferenceIBLT, encode_reference_iblt
from repro.utils.stats import wilson_interval

KEYS = st.sets(st.integers(min_value=0, max_value=2**64 - 1), max_size=40)


def _is_empty(iblt) -> bool:
    """True when every cell of ``iblt`` is all-zero."""
    return not (any(iblt._counts) or any(iblt._key_sums)
                or any(iblt._check_sums))


def _keys(count, seed=0):
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(count)]


class TestConstruction:
    def test_cells_rounded_to_multiple_of_k(self):
        assert IBLT(10, k=4).cells == 12

    def test_rejects_negative_cells(self):
        with pytest.raises(ParameterError):
            IBLT(-1)

    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            IBLT(12, k=1)

    def test_rejects_bad_cell_bytes(self):
        with pytest.raises(ParameterError):
            IBLT(12, cell_bytes=0)

    def test_serialized_size(self):
        iblt = IBLT(24, k=4)
        assert iblt.serialized_size() == IBLT_HEADER_BYTES + 24 * DEFAULT_CELL_BYTES

    def test_from_keys(self):
        keys = _keys(10)
        iblt = IBLT.from_keys(keys, 60)
        assert len(iblt) == 10


class TestInsertEraseDecode:
    def test_decode_empty(self):
        result = IBLT(12).decode()
        assert result.complete
        assert not result.local and not result.remote

    def test_single_item_roundtrip(self):
        iblt = IBLT(12)
        iblt.insert(0xABCD)
        result = iblt.decode()
        assert result.complete
        assert result.local == {0xABCD}

    def test_many_items_roundtrip(self):
        keys = set(_keys(50, seed=1))
        iblt = IBLT.from_keys(keys, 120)
        result = iblt.decode()
        assert result.complete
        assert result.local == keys

    def test_erase_cancels_insert(self):
        iblt = IBLT(12)
        iblt.insert(7)
        iblt.erase(7)
        result = iblt.decode()
        assert result.complete
        assert not result.local

    def test_erase_without_insert_decodes_negative(self):
        iblt = IBLT(12)
        iblt.erase(7)
        result = iblt.decode()
        assert result.complete
        assert result.remote == {7}

    def test_decode_is_nondestructive(self):
        iblt = IBLT.from_keys(_keys(5), 24)
        first = iblt.decode()
        second = iblt.decode()
        assert first.local == second.local

    def test_overfull_decode_fails(self):
        # 12 cells cannot decode 100 items.
        iblt = IBLT.from_keys(_keys(100, seed=3), 12)
        assert not iblt.decode().complete

    def test_decode_result_unpacks(self):
        complete, local, remote = IBLT.from_keys([5], 12).decode()
        assert complete and local == {5} and remote == frozenset()


class TestSubtract:
    def test_symmetric_difference(self):
        shared = _keys(30, seed=4)
        only_a = _keys(10, seed=5)
        only_b = _keys(12, seed=6)
        a = IBLT.from_keys(shared + only_a, 120, seed=9)
        b = IBLT.from_keys(shared + only_b, 120, seed=9)
        result = a.subtract(b).decode()
        assert result.complete
        assert result.local == set(only_a)
        assert result.remote == set(only_b)

    def test_sub_operator(self):
        a = IBLT.from_keys([1, 2], 24, seed=1)
        b = IBLT.from_keys([2, 3], 24, seed=1)
        result = (a - b).decode()
        assert result.local == {1} and result.remote == {3}

    def test_identical_sets_cancel(self):
        keys = _keys(20, seed=7)
        a = IBLT.from_keys(keys, 60, seed=2)
        b = IBLT.from_keys(keys, 60, seed=2)
        diff = a.subtract(b)
        result = diff.decode()
        assert result.complete
        assert not result.local and not result.remote

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ParameterError):
            IBLT(24, k=4).subtract(IBLT(24, k=3, seed=0))

    def test_incompatible_seeds_rejected(self):
        with pytest.raises(ParameterError):
            IBLT(24, seed=1).subtract(IBLT(24, seed=2))

    def test_count_tracks_difference(self):
        a = IBLT.from_keys(_keys(5), 24)
        b = IBLT.from_keys(_keys(3, seed=9), 24)
        assert a.subtract(b).count == 2


class TestPeel:
    def test_peel_reduces_difference(self):
        only_a = _keys(3, seed=10)
        a = IBLT.from_keys(only_a, 24, seed=3)
        b = IBLT(24, seed=3)
        diff = a.subtract(b)
        diff.peel(only_a[0], +1)
        result = diff.decode()
        assert result.complete
        assert result.local == set(only_a[1:])

    def test_peel_remote_side(self):
        b_key = 12345
        a = IBLT(24, seed=3)
        b = IBLT.from_keys([b_key], 24, seed=3)
        diff = a.subtract(b)
        diff.peel(b_key, -1)
        result = diff.decode()
        assert result.complete and not result.remote

    def test_peel_rejects_bad_sign(self):
        with pytest.raises(ParameterError):
            IBLT(24).peel(1, 0)

    def test_peel_local_key_empties_table(self):
        # A +1 key (local side of a difference) peels to a fully empty
        # table: peel(key, +1) must apply delta -1 to every touched cell.
        diff = IBLT.from_keys([0xAB], 24, seed=5).subtract(IBLT(24, seed=5))
        diff.peel(0xAB, +1)
        assert _is_empty(diff)

    def test_peel_remote_key_empties_table(self):
        # A -1 key (remote side) peels with delta +1, also to empty.
        diff = IBLT(24, seed=5).subtract(IBLT.from_keys([0xCD], 24, seed=5))
        diff.peel(0xCD, -1)
        assert _is_empty(diff)


class TestMalformedGuard:
    def test_decode_twice_raises(self):
        # Insert a key into only k-1 cells: peeling oscillates forever
        # without the paper's 6.1 guard.
        iblt = IBLT(24, k=4, seed=0)
        key = 0xFEED
        for idx in iblt.hasher.partitioned_indices(key, iblt.cells)[:-1]:
            iblt.xor_cell(idx, key, +1)
        with pytest.raises(MalformedIBLTError):
            iblt.decode()


class TestDecodeMemo:
    """``IBLT.decode`` peels a table once per process: the frozen result
    is held under the table's exact shape, seed and cell bytes."""

    @pytest.fixture(autouse=True)
    def cold(self):
        iblt_module._DECODE_CACHE.clear()
        yield iblt_module._DECODE_CACHE
        iblt_module._DECODE_CACHE.clear()

    @staticmethod
    def _pair():
        shared = _keys(40, seed=11)
        a = IBLT.from_keys(shared + _keys(6, seed=12), 96, seed=5)
        b = IBLT.from_keys(shared + _keys(4, seed=13), 96, seed=5)
        return a, b

    def test_second_subtract_decodes_from_the_memo(self, cold, monkeypatch):
        a, b = self._pair()
        first = a.subtract(b).decode()
        assert first.complete and len(first.local) == 6
        assert (cold.hits, cold.misses) == (0, 1)

        def no_peel(table):
            raise AssertionError("peeled a table the memo holds")

        monkeypatch.setattr(IBLT, "_peel_uncached", no_peel)
        again = a.subtract(b).decode()
        assert (cold.hits, cold.misses) == (1, 1)
        assert again is first
        monkeypatch.undo()
        assert a.subtract(b)._peel_uncached() == first

    def test_a_malformed_table_raises_every_time_and_is_never_held(
            self, cold):
        from repro.security.malformed_iblt import make_malformed_iblt

        table = make_malformed_iblt(honest_keys=_keys(10, seed=14))
        for calls in (1, 2, 3):
            with pytest.raises(MalformedIBLTError):
                table.decode()
            assert (len(cold), cold.pinned, cold.misses) == (0, 0, calls)

    def test_a_zero_cell_table_never_reaches_the_key(self, cold):
        assert not IBLT(0).decode().complete
        assert (cold.hits, cold.misses, len(cold)) == (0, 0, 0)

    @staticmethod
    def _variants(table):
        """Tables one field away from ``table``: one cell's count,
        keySum or checkSum, then the seed, k and the cell count."""
        cells, k, seed = table.cells, table.k, table.seed
        columns = [np.frombuffer(col, dtype=dtype).copy() for col, dtype in
                   ((table._counts, np.int64), (table._key_sums, np.uint64),
                    (table._check_sums, np.uint64))]
        for which in range(3):
            moved = [col.copy() for col in columns]
            moved[which][7] += 1
            yield IBLT.from_wire(cells, k, seed, DEFAULT_CELL_BYTES, *moved)
        yield IBLT.from_wire(cells, k, seed + 1, DEFAULT_CELL_BYTES, *columns)
        yield IBLT.from_wire(cells, k - 1, seed, DEFAULT_CELL_BYTES, *columns)
        padded = [np.concatenate([col, np.zeros(k, col.dtype)])
                  for col in columns]
        yield IBLT.from_wire(cells + k, k, seed, DEFAULT_CELL_BYTES, *padded)

    def test_any_field_changed_is_a_miss(self, cold):
        a, b = self._pair()
        diff = a.subtract(b)
        diff.decode()
        for misses, other in enumerate(self._variants(diff), start=2):
            try:
                cold_result = other._peel_uncached()
            except MalformedIBLTError:
                cold_result = None
            try:
                result = other.decode()
            except MalformedIBLTError:
                result = None
            assert (cold.hits, cold.misses) == (0, misses)
            assert result == cold_result
        assert misses == 7

    def test_distinct_tables_stay_within_the_budget(self, cold):
        held = 0
        for i in range(10_000):
            IBLT.from_keys([i, i << 40], 24, k=3).decode()
            held = max(held, cold.pinned)
        assert cold.misses == 10_000 and 0 < held <= cold.budget
        assert cold.pinned == sum(cold.size(key, result)
                                  for key, result in cold.items())

    def test_an_oversized_table_is_held_alone_until_the_next(self, cold):
        small = IBLT.from_keys(_keys(3, seed=15), 24)
        small.decode()
        big = IBLT.from_keys(_keys(50, seed=16), 12_000)
        assert 24 * big.cells > cold.budget
        assert big.decode().local == set(_keys(50, seed=16))
        assert len(cold) == 1 and cold.pinned > cold.budget
        assert big.decode().complete and cold.hits == 1
        small.decode()
        assert len(cold) == 1 and cold.pinned < cold.budget
        assert (cold.hits, cold.misses) == (1, 3)


class TestCopy:
    def test_copy_is_deep(self):
        a = IBLT.from_keys([1, 2, 3], 24)
        b = a.copy()
        b.insert(4)
        assert len(a) == 3 and len(b) == 4
        assert a.decode().local == {1, 2, 3}


class TestPropertyBased:
    @given(KEYS, KEYS)
    @settings(max_examples=40, deadline=None)
    def test_subtract_recovers_difference_when_capacity_allows(self, xs, ys):
        a = IBLT.from_keys(xs, 400, seed=11)
        b = IBLT.from_keys(ys, 400, seed=11)
        result = a.subtract(b).decode()
        # 400 cells vastly exceed any 80-item difference: must decode.
        assert result.complete
        assert result.local == xs - ys
        assert result.remote == ys - xs

    @given(KEYS)
    @settings(max_examples=40, deadline=None)
    def test_insert_then_erase_all_is_empty(self, keys):
        iblt = IBLT(48, k=4)
        for key in keys:
            iblt.insert(key)
        for key in keys:
            iblt.erase(key)
        assert _is_empty(iblt)

    @given(KEYS, KEYS)
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_implementation(self, xs, ys):
        # The columnar table and cached hasher must reproduce the seed
        # implementation exactly: same decode outcome, same sets.
        a = IBLT.from_keys(xs, 96, seed=13)
        b = IBLT.from_keys(ys, 96, seed=13)
        got = a.subtract(b).decode()
        ra = ReferenceIBLT.from_keys(xs, 96, seed=13)
        rb = ReferenceIBLT.from_keys(ys, 96, seed=13)
        want = ra.subtract(rb).decode()
        assert (got.complete, got.local, got.remote) \
            == (want.complete, want.local, want.remote)

    @given(KEYS)
    @settings(max_examples=25, deadline=None)
    def test_batch_update_matches_single_inserts(self, keys):
        batched = IBLT(48, k=4, seed=21)
        batched.update(keys)
        single = IBLT(48, k=4, seed=21)
        for key in keys:
            single.insert(key)
        assert batched._counts == single._counts
        assert batched._key_sums == single._key_sums
        assert batched._check_sums == single._check_sums
        assert batched.count == single.count

    def test_large_batch_update_matches_single_inserts(self):
        # Far larger than the hypothesis sets above (40 keys at most).
        keys = _keys(300, seed=5)
        batched = IBLT(96, k=4, seed=33)
        batched.update(keys)
        single = IBLT(96, k=4, seed=33)
        for key in keys:
            single.insert(key)
        assert batched._counts == single._counts
        assert batched._key_sums == single._key_sums
        assert batched._check_sums == single._check_sums
        assert batched.count == single.count

    @pytest.mark.parametrize("count", [5, 6, 7, 8, 9, 40])
    def test_both_sides_of_the_batch_threshold(self, count):
        # 5/6/7 straddle the size (6 keys) below which a scalar loop
        # used to take over, 7/8/9 the threshold of 8 before it; both
        # stay pinned.  Every length takes the one vectorized fold,
        # which must match per-key inserts and the cache-free
        # reference over the extremes of the key space and the small
        # integers docs/TUTORIAL.md inserts.
        edge = [0, 2**64 - 1, 2**63, *range(1, 10)]
        keys = (edge + _keys(40, seed=11))[:count]
        batched = IBLT(96, k=4, seed=33)
        batched.update(keys)
        single = IBLT(96, k=4, seed=33)
        ref = ReferenceIBLT(96, k=4, seed=33)
        for key in keys:
            single.insert(key)
            ref.insert(key)
        assert batched._counts == single._counts
        assert batched._key_sums == single._key_sums
        assert batched._check_sums == single._check_sums
        assert encode_iblt(batched) == encode_reference_iblt(ref)
        assert batched.decode().local == set(keys)

    @pytest.mark.parametrize("count", [0, 1, 5, 6, 7, 8, 9, 60])
    def test_key_column_equals_iterable(self, count):
        # The uint64 array is the packed entry point; a list, a
        # generator and a strided view of the same keys (duplicates
        # included) must fold to the same table at every length, the
        # smallest batches included, and to the reference's.
        edge = [0, 2**64 - 1, 2**63, 7, 7, 2**63]
        keys = (edge + _keys(60, seed=12))[:count]
        column = np.array(keys, dtype=np.uint64)
        strided = np.repeat(column, 2)[::2]
        ref = ReferenceIBLT(96, k=4, seed=33)
        for key in keys:
            ref.insert(key)
        for form in (column, strided, keys, iter(keys)):
            table = IBLT(96, k=4, seed=33)
            table.update(form)
            assert table.count == count
            assert encode_iblt(table) == encode_reference_iblt(ref)

    def test_key_column_on_a_table_that_is_not_pristine(self):
        # The fold memo only serves all-zero tables; a second column
        # folds on top of the first.
        first, second = _keys(30, seed=13), _keys(30, seed=14)
        table = IBLT(96, k=4, seed=33)
        table.update(np.array(first, dtype=np.uint64))
        table.update(np.array(second, dtype=np.uint64))
        again = IBLT(96, k=4, seed=33)
        again.update(np.array(first, dtype=np.uint64))   # memo hit
        again.update(second)
        single = IBLT(96, k=4, seed=33)
        for key in first + second:
            single.insert(key)
        assert encode_iblt(table) == encode_iblt(again) \
            == encode_iblt(single)

    def test_large_batch_matches_reference_decode(self):
        shared = _keys(220, seed=6)
        xs = shared + _keys(30, seed=7)
        ys = shared + _keys(25, seed=8)
        got = IBLT.from_keys(xs, 400, seed=17).subtract(
            IBLT.from_keys(ys, 400, seed=17)).decode()
        want = ReferenceIBLT.from_keys(xs, 400, seed=17).subtract(
            ReferenceIBLT.from_keys(ys, 400, seed=17)).decode()
        assert (got.complete, got.local, got.remote) \
            == (want.complete, want.local, want.remote)


class TestCertifiedDecodeRate:
    """Graphene 3.3: a certified row decodes at rate >= beta = 239/240.

    The rows were certified by hypergraph Monte Carlo (Algorithm 1),
    which assumes uniform independent cell choices; this pins that the
    live hash family delivers them.  Seeded draws; the assertion is
    that the observed rate's Wilson interval, ``Z`` standard deviations
    wide, reaches up to beta, which a family that truly decodes at beta
    misses about once in 2 000 fresh draws per row.
    """

    Z = 3.3

    @pytest.mark.parametrize("j,trials", [(5, 3000), (20, 2000),
                                          (100, 1500), (400, 800)])
    def test_decode_rate_at_certified_row(self, j, trials):
        params = default_param_table(240).params_for(j)
        rng = random.Random(0xB17 + j)
        decoded = 0
        for trial in range(trials):
            table = IBLT(params.cells, k=params.k, seed=trial + 1)
            table.update(rng.getrandbits(64) for _ in range(j))
            decoded += table.decode().complete
        _, high = wilson_interval(decoded, trials, z=self.Z)
        assert high >= 239 / 240, (
            f"j={j}: {trials - decoded} of {trials} tables failed to "
            f"decode at cells={params.cells}, k={params.k}")


class TestDegenerateTables:
    """0-cell and all-zero tables fail *cleanly* (never raise or return
    a silently-complete decode)."""

    def test_zero_cells_constructs(self):
        iblt = IBLT(0)
        assert iblt.cells == 0
        assert _is_empty(iblt)

    def test_zero_cells_decode_is_clean_failure(self):
        decode = IBLT(0).decode()
        assert not decode.complete
        assert decode.local == frozenset() and decode.remote == frozenset()

    def test_zero_cells_subtract_then_decode(self):
        diff = IBLT(0).subtract(IBLT(0))
        assert not diff.decode().complete

    def test_zero_cells_rejects_keys(self):
        with pytest.raises(ParameterError):
            IBLT(0).insert(1)
        with pytest.raises(ParameterError):
            IBLT(0).update(_keys(64))

    def test_all_zero_nonempty_expectation_protocol1(self):
        """A subtracted IBLT that is all-zero while transactions are
        provably in flight must report decode failure, not an empty
        'complete' difference (the replayed-I' attack)."""
        from repro.chain.scenarios import make_block_scenario
        from repro.core.params import GrapheneConfig
        from repro.core.protocol1 import build_protocol1, receive_protocol1

        sc = make_block_scenario(n=60, extra=30, fraction=0.8, seed=41)
        config = GrapheneConfig()
        payload = build_protocol1(list(sc.block.txs),
                                  len(sc.receiver_mempool), config)
        # Forge I := I' by rebuilding the sender IBLT over the
        # *receiver's* candidate set, so the subtract cancels exactly.
        candidates = {tx.txid: tx for tx in payload.prefilled}
        pool = [tx for tx in sc.receiver_mempool
                if tx.txid not in candidates]
        for tx, hit in zip(pool, payload.bloom_s.contains_many(
                [tx.txid for tx in pool])):
            if hit:
                candidates[tx.txid] = tx
        sids = [tx.short_id(config.short_id_bytes)
                for tx in candidates.values()]
        forged_iblt = IBLT(payload.iblt_i.cells, k=payload.iblt_i.k,
                           seed=payload.iblt_i.seed)
        forged_iblt.update(sids)
        forged = type(payload)(n=payload.n, bloom_s=payload.bloom_s,
                               iblt_i=forged_iblt, plan=payload.plan,
                               recover=payload.recover,
                               prefilled=payload.prefilled)
        result = receive_protocol1(forged, sc.receiver_mempool, config)
        assert not result.success
        assert not result.decode_complete
