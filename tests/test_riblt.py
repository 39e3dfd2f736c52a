"""Rateless IBLT: stream determinism, incremental peeling, oracle parity."""

import random

import numpy as np
import pytest

from repro.errors import MalformedIBLTError, ParameterError
from repro.core.protocol3 import OVERHEAD, sender_stream_cap
from repro.pds.riblt import (
    RIBLTDecoder,
    RIBLTEncoder,
    SYMBOL_BYTES,
    _BATCH_MIN,
    _CHUNK_MAX,
    _PRNG_MULT,
    _initial_state,
    _next_index,
    reconcile,
    symbol_stream_bytes,
)
from repro.utils.hashing import DerivedHasher


def _keys(count, seed, lo=1, hi=2**60):
    rng = random.Random(seed)
    out = set()
    while len(out) < count:
        out.add(rng.randrange(lo, hi))
    return out


def _brute_force_stream(keys, seed, size):
    """Each key's symbols accumulated one at a time, the way the decoder
    peels them: no batching, no shared encoder state."""
    hasher = DerivedHasher(1, seed)
    counts, key_sums, check_sums = [0] * size, [0] * size, [0] * size
    for key in keys:
        state, csum = _initial_state(hasher, key)
        idx = 0
        while idx < size:
            counts[idx] += 1
            key_sums[idx] ^= key
            check_sums[idx] ^= csum
            state, idx = _next_index(state, idx)
    return counts, key_sums, check_sums


class TestEncoder:
    def test_stream_is_deterministic(self):
        keys = _keys(100, seed=1)
        a = RIBLTEncoder(keys, seed=7)
        b = RIBLTEncoder(keys, seed=7)
        a.extend(256)
        b.extend(256)
        assert a._counts == b._counts
        assert a._key_sums == b._key_sums
        assert a._check_sums == b._check_sums

    def test_extension_order_does_not_matter(self):
        keys = _keys(64, seed=2)
        whole = RIBLTEncoder(keys, seed=3)
        whole.extend(200)
        stepped = RIBLTEncoder(keys, seed=3)
        for stop in (1, 5, 17, 60, 200):
            stepped.extend(stop)
        assert whole._counts == stepped._counts
        assert whole._key_sums == stepped._key_sums
        assert whole._check_sums == stepped._check_sums

    @pytest.mark.parametrize("n_keys", [31, 32, 33, 200])
    def test_columns_match_brute_force_oracle(self, n_keys):
        # 31/32/33 straddle _BATCH_MIN: the scalar loop and the numpy
        # lockstep loop must both equal the key-at-a-time accumulation.
        keys = _keys(n_keys, seed=4)
        enc = RIBLTEncoder(keys, seed=5)
        enc.extend(100)   # grown in two steps, so the second extend
        enc.extend(300)   # resumes every key mid-stream
        counts, key_sums, check_sums = _brute_force_stream(keys, 5, 300)
        assert list(enc._counts) == counts
        assert list(enc._key_sums) == key_sums
        assert list(enc._check_sums) == check_sums

    @pytest.mark.parametrize("n_keys", [0, 1, 31, 32, 33, 200])
    def test_key_column_equals_iterable(self, n_keys):
        # A uint64 array is the packed entry point: same stream as the
        # list, in any order and with duplicates, on both sides of
        # _BATCH_MIN, and the decoder seeded from a column peels the
        # same difference.
        keys = sorted(_keys(n_keys, seed=14, hi=2**64))
        listed = RIBLTEncoder(keys + keys[:5], seed=5)
        column = np.array((keys + keys[:5])[::-1], dtype=np.uint64)
        packed = RIBLTEncoder(column, seed=5)
        assert packed.key_count == listed.key_count == n_keys
        assert packed.window(0, 120) == listed.window(0, 120)
        counts, key_sums, check_sums = _brute_force_stream(keys, 5, 120)
        assert list(packed._counts) == counts
        assert list(packed._key_sums) == key_sums
        assert list(packed._check_sums) == check_sums
        theirs = sorted(_keys(20, seed=15))
        decoder = RIBLTDecoder(column, seed=5)
        stream = RIBLTEncoder(keys[3:] + theirs, seed=5)
        while not decoder.add_symbols(*stream.window(decoder.size, 40)):
            assert decoder.size < 4000
        assert decoder.local == set(theirs)
        assert decoder.remote == set(keys[:3])

    def test_every_key_hits_symbol_zero(self):
        keys = _keys(80, seed=9)
        enc = RIBLTEncoder(keys, seed=0)
        enc.extend(1)
        assert enc._counts[0] == len(keys)

    def test_density_decays(self):
        # The mapping density should fall roughly as 1.5/(t + 1.5):
        # over 512 symbols each key participates ~1.5 ln(512/1.5) ~ 9
        # times, nowhere near once per symbol.
        keys = _keys(500, seed=10)
        enc = RIBLTEncoder(keys, seed=11)
        enc.extend(512)
        per_key = sum(enc._counts) / len(keys)
        assert 4.0 < per_key < 16.0
        assert enc._counts[0] == len(keys)
        tail = sum(enc._counts[256:]) / 256.0
        assert tail < len(keys) * 0.02

    def test_window_slices_are_stable(self):
        enc = RIBLTEncoder(_keys(40, seed=12), seed=13)
        c1, k1, s1 = enc.window(10, 20)
        enc.extend(400)
        c2, k2, s2 = enc.window(10, 20)
        assert (c1, k1, s1) == (c2, k2, s2)

    def test_window_rejects_negative(self):
        enc = RIBLTEncoder([1, 2, 3], seed=0)
        with pytest.raises(ParameterError):
            enc.window(-1, 4)
        with pytest.raises(ParameterError):
            enc.window(0, -4)

    def test_empty_key_set(self):
        enc = RIBLTEncoder([], seed=0)
        counts, key_sums, check_sums = enc.window(0, 8)
        assert not any(counts) and not any(key_sums)
        assert not any(check_sums)


#: Everything an encoder holds: the three columns and each key's
#: stream position.
_ENCODER_STATE = ("_counts", "_key_sums", "_check_sums", "_states", "_next")


def _state(enc):
    return {name: getattr(enc, name) for name in _ENCODER_STATE}


def _scalar_walk(keys, seed, sizes, states=None):
    """An encoder grown by ``_extend_py`` alone, the scalar specification
    (``states`` overwrites chosen keys' PRNG states first)."""
    enc = RIBLTEncoder(keys, seed=seed)
    for row, state in (states or {}).items():
        enc._states[row] = state
    for size in sizes:
        grow = size - enc.size
        enc._counts.extend([0] * grow)
        enc._key_sums.extend([0] * grow)
        enc._check_sums.extend([0] * grow)
        enc._extend_py(size, range(enc.key_count))
        enc.size = size
    return enc


class TestBatchKernel:
    """The chunked kernel against the scalar walk: columns *and* every
    key's state and next index, however the prefix was grown."""

    INCREMENTS = (1, 2, 3, 7, 50, 51, 400, 5_000, 70_000)

    @pytest.mark.parametrize("n_keys", [_BATCH_MIN - 1, _BATCH_MIN,
                                        _BATCH_MIN + 1, 200, 2000])
    def test_one_shot_and_increments_equal_scalar_walk(self, n_keys):
        keys = _keys(n_keys, seed=60)
        want = _state(_scalar_walk(keys, 61, self.INCREMENTS))
        one_shot = RIBLTEncoder(keys, seed=61)
        one_shot.extend(self.INCREMENTS[-1])   # > 65 536: the wide scatter
        stepped = RIBLTEncoder(keys, seed=61)
        for size in self.INCREMENTS:
            stepped.extend(size)
        assert _state(one_shot) == want
        assert _state(stepped) == want

    def test_symbol_by_symbol_equals_scalar_walk(self):
        keys = _keys(300, seed=62)
        stepped = RIBLTEncoder(keys, seed=63)
        for size in range(1, 401):
            stepped.extend(size)
        assert _state(stepped) == _state(_scalar_walk(keys, 63, [400]))

    def test_keys_that_outrun_one_chunk(self):
        # 1 + 1.5 ln(20 000 / 1.5) ~ 15 hits a key, a chunk holds
        # _CHUNK_MAX: most keys go round the pass loop again, and the
        # last few finish in the scalar tail.
        keys = _keys(200, seed=64)
        want = _scalar_walk(keys, 65, [20_000])
        hits = sum(want._counts) / len(keys)
        assert hits > _CHUNK_MAX + 4
        enc = RIBLTEncoder(keys, seed=65)
        enc.extend(20_000)
        assert _state(enc) == _state(want)

    @pytest.mark.parametrize("n_keys", [_BATCH_MIN - 1, _BATCH_MIN + 1, 500])
    def test_duplicates_and_unsorted_input(self, n_keys):
        keys = sorted(_keys(n_keys, seed=66, hi=2**64))
        rng = random.Random(67)
        messy = keys + rng.sample(keys, n_keys // 3)
        rng.shuffle(messy)
        want = _state(_scalar_walk(keys, 68, [50, 260]))
        for given in (messy, np.array(messy, dtype=np.uint64)):
            enc = RIBLTEncoder(given, seed=68)
            assert list(enc._keys) == keys
            enc.extend(50)
            enc.extend(260)
            assert _state(enc) == want

    def test_extend_to_the_sender_stream_cap(self):
        # 65 536 symbols in one call is the widest window the uint16
        # scatter takes (relative indices 0 .. 65 535).
        keys = _keys(100, seed=69)
        cap = sender_stream_cap(len(keys))
        enc = RIBLTEncoder(keys, seed=70)
        enc.extend(cap)
        assert len(enc) == cap == 1 << 16
        assert _state(enc) == _state(_scalar_walk(keys, 70, [cap]))

    def test_zero_gap_ratio_still_steps_by_one(self):
        # u = 2^32 - 1 makes the gap ratio exactly 0.0; the scalar walk
        # takes max(1, .), the kernel a clamped ratio.  One key in
        # 2^32 draws it, so plant it: states whose *next* state has all
        # ones in its high word.
        inverse = pow(_PRNG_MULT, -1, 1 << 64)
        planted = {row: ((0xFFFFFFFF << 32 | row) * inverse) % (1 << 64)
                   for row in (0, 7, 63)}
        assert all(_next_index(state, 9)[1] == 10
                   for state in planted.values())
        keys = _keys(64, seed=71)
        want = _scalar_walk(keys, 72, [40], states=planted)
        enc = RIBLTEncoder(keys, seed=72)
        for row, state in planted.items():
            enc._states[row] = state
        enc.extend(40)
        assert _state(enc) == _state(want)


class TestDecoder:
    @pytest.mark.parametrize("d_local,d_remote", [
        (0, 0), (1, 0), (0, 1), (3, 2), (10, 10), (40, 25),
    ])
    def test_reconciles_without_estimate(self, d_local, d_remote):
        shared = _keys(300, seed=20)
        sender_only = _keys(d_local, seed=21, lo=2**60, hi=2**61)
        receiver_only = _keys(d_remote, seed=22, lo=2**61, hi=2**62)
        decoder, used = reconcile(shared | sender_only,
                                  shared | receiver_only, seed=23)
        assert decoder.local == sender_only
        assert decoder.remote == receiver_only
        d = d_local + d_remote
        assert used <= max(8, 4 * d + 8)

    def test_equal_sets_decode_in_one_batch(self):
        keys = _keys(64, seed=24)
        decoder, used = reconcile(keys, keys, seed=25, batch=4)
        assert used == 4
        assert decoder.local == decoder.remote == set()

    def test_incremental_matches_batch(self):
        sender = _keys(120, seed=26)
        receiver = set(list(sender)[:100]) | _keys(15, seed=27,
                                                   lo=2**61, hi=2**62)
        one, _ = reconcile(sender, receiver, seed=28, batch=1)
        big, _ = reconcile(sender, receiver, seed=28, batch=64)
        assert one.local == big.local
        assert one.remote == big.remote

    def test_peel_continues_across_batches(self):
        # A key recovered from an early batch must keep being peeled
        # out of later symbols; otherwise later cells never zero.
        sender = _keys(50, seed=29)
        receiver = set()
        decoder, _ = reconcile(sender, receiver, seed=30, batch=2)
        assert decoder.local == sender

    def test_double_decode_raises_malformed(self):
        decoder = RIBLTDecoder([], seed=31)
        enc = RIBLTEncoder([42], seed=31)
        counts, key_sums, check_sums = enc.window(0, 4)
        decoder.add_symbols(counts, key_sums, check_sums)
        assert decoder.local == {42}
        # Replay the same symbols: the same key becomes peelable again,
        # which only a malformed (or replayed) stream can produce.
        with pytest.raises(MalformedIBLTError):
            decoder.add_symbols(counts, key_sums, check_sums)

    def test_column_length_mismatch_rejected(self):
        decoder = RIBLTDecoder([], seed=0)
        with pytest.raises(ParameterError):
            decoder.add_symbols([0, 0], [0], [0])

    def test_complete_is_false_before_any_symbol(self):
        assert not RIBLTDecoder([1, 2], seed=0).complete

    def test_hostile_stream_fails_loudly(self):
        with pytest.raises(MalformedIBLTError):
            # Garbage symbols never decode; the cap must fire.
            decoder = RIBLTDecoder([], seed=1)
            rng = random.Random(99)
            for _ in range(40):
                decoder.add_symbols(
                    [rng.randrange(2, 50)],
                    [rng.randrange(1, 2**64)],
                    [rng.randrange(1, 2**16)])
            raise MalformedIBLTError("stream never decoded")

    def test_wire_size_helper(self):
        assert symbol_stream_bytes(0) == 6
        assert symbol_stream_bytes(10) == 6 + 10 * SYMBOL_BYTES


class TestKnownKeys:
    """Coded symbols are additive: a sender-only key learnt outside the
    stream is subtracted out of the symbols already held, so telling a
    decoder K mid-stream equals having seeded it with K."""

    BATCH = 16

    def _sets(self, known, seed=5):
        shared = _keys(600, seed=seed)
        strangers = _keys(600 + known + 70, seed=seed + 1) - shared
        pool = sorted(strangers)
        k = set(pool[:known])
        sender_only = set(pool[known:known + 40])
        receiver_only = set(pool[known + 40:known + 70])
        return (shared | k | sender_only, shared | receiver_only, k,
                sender_only, receiver_only)

    @pytest.mark.parametrize("known", [0, 1, 79, 400])
    @pytest.mark.parametrize("tell_at", [0, 2])
    def test_told_equals_seeded(self, known, tell_at):
        sender, receiver, k, sender_only, receiver_only = self._sets(known)
        stream = RIBLTEncoder(sender, seed=9)
        told = RIBLTDecoder(receiver, seed=9)
        seeded = RIBLTDecoder(receiver | k, seed=9)
        for batch in range(200):
            if batch == tell_at:
                told.add_known(k)       # before, or after, later windows
            window = stream.window(told.size, self.BATCH)
            done = told.add_symbols(*window)
            assert seeded.add_symbols(*window) == done or batch < tell_at
            if done:
                break
        assert told.complete and seeded.complete
        assert told.size == seeded.size, "complete at the same symbol"
        assert told.remote == seeded.remote == receiver_only
        assert seeded.local == sender_only
        assert told.local == sender_only | k

    def test_telling_completes_a_stream_that_was_waiting(self):
        sender, receiver, k, _, _ = self._sets(400)
        stream = RIBLTEncoder(sender, seed=9)
        told = RIBLTDecoder(receiver, seed=9)
        assert not told.add_symbols(*stream.window(0, 160))
        assert told.add_known(k) and told.complete

    def test_a_known_key_already_peeled_is_skipped(self):
        sender, receiver, k, sender_only, _ = self._sets(0)
        decoder, _ = reconcile(sender, receiver, seed=9)
        before = (decoder._counts[:], decoder._key_sums[:],
                  dict(decoder._peeled))
        assert decoder.add_known(sender_only) and decoder.complete
        assert (decoder._counts, decoder._key_sums,
                decoder._peeled) == before

    def test_a_known_key_recovered_again_is_malformed(self):
        """A key told as the sender's that the sender does not hold
        leaves a -1 residual: it peels as itself a second time."""
        sender, receiver, _, _, _ = self._sets(0)
        stranger = max(sender | receiver) + 12345
        decoder = RIBLTDecoder(receiver, seed=9)
        stream = RIBLTEncoder(sender, seed=9)
        decoder.add_known([stranger])
        with pytest.raises(MalformedIBLTError, match="decoded twice"):
            for _ in range(40):
                decoder.add_symbols(*stream.window(decoder.size, self.BATCH))


class TestOverhead:
    def test_symbol_overhead_near_paper_rate(self):
        # Yang et al. report ~1.35d symbols for moderate d; allow a
        # generous margin but pin the rateless property: cost tracks
        # the difference, not the set size.
        shared = _keys(1000, seed=40)
        total = 0
        for trial in range(5):
            diff = _keys(30, seed=50 + trial, lo=2**61, hi=2**62)
            _, used = reconcile(shared | diff, shared,
                                seed=trial, batch=4)
            total += used
        avg = total / 5.0
        assert avg <= 30 * 2.5

    #: Symbols to decode per difference item, streamed one symbol at a
    #: time (``batch=1``, so the count is exact): long-run ``(mean,
    #: sd)`` over 6 000 / 2 000 / 293 decodes, seeds disjoint from the
    #: draws below.  Yang et al. give 1.35 as d grows and more for
    #: small d; these are what that curve reads *here*, and what
    #: ``OVERHEAD`` -- and so Protocol 3's first batch and its
    #: receiver's ``target`` -- rest on.
    MEASURED = {10: (1.7321, 0.5046), 100: (1.4559, 0.1057),
                1000: (1.3799, 0.0333)}

    @staticmethod
    def _symbols_per_item(d, trials):
        """``symbols / d`` per decode; a draw that peels a key twice
        (a 16-bit checksum coincidence, 7 in 300 at d = 1 000) has no
        decode point and is left out."""
        ratios = []
        for trial in range(trials):
            keys = list(_keys(d, seed=d * 1_000 + trial))
            try:
                _, used = reconcile(keys[:d // 2], keys[d // 2:],
                                    seed=trial, batch=1)
            except MalformedIBLTError:
                continue
            ratios.append(used / d)
        return ratios

    @pytest.mark.parametrize("d,trials", [(10, 400), (100, 120),
                                          (1000, 20)])
    def test_overhead_curve_is_pinned(self, d, trials):
        ratios = self._symbols_per_item(d, trials)
        assert len(ratios) >= 0.9 * trials
        assert min(ratios) >= 1.0   # a symbol yields at most one key
        mean = sum(ratios) / len(ratios)
        want, sd = self.MEASURED[d]
        assert abs(mean - want) <= 4.5 * sd / len(ratios) ** 0.5, mean
        if d == 1000:
            # The figure borrowed from Yang et al., within 0.07.
            assert OVERHEAD == 1.35
            assert abs(mean - OVERHEAD) < 0.07, mean
