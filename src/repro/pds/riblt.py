"""Rateless IBLT: an infinite coded-symbol stream for set reconciliation.

Implements the construction of Yang et al., "Practical Rateless Set
Reconciliation" (see PAPERS.md): instead of sizing an IBLT to a
difference estimate up front, the sender emits an endless stream of
*coded symbols* -- IBLT-style cells -- and the receiver consumes
symbols until its peeling decoder terminates.  Reconciling a symmetric
difference of ``d`` items costs about ``1.35 d`` symbols in expectation
for large ``d``, with no parameter table, no hedge factor and no
failure branch: a stream that has not decoded yet is simply a stream
that needs more symbols.

Construction
------------

Every key participates in symbol 0.  After index ``i`` a key's next
index is drawn so that the *mapping density* -- the probability a key
participates in symbol ``t`` -- decays as ``1.5 / (t + 1.5)``.  Each
key carries its own deterministic PRNG (a 64-bit multiplicative
congruential generator seeded from one keyed 64-bit mix of the key --
:class:`~repro.utils.hashing.DerivedHasher`, the cost model of Yang et
al.: one cheap hash per item, never a SHA-256), so both sides of an
exchange derive identical index sequences from the key alone::

    s    <- s * 0xda942042e4dd58b5  (mod 2^64)
    u    <- (s >> 32): 1 - u/2^32 uniform in (0, 1]
    gap  <- max(1, ceil((i + 1.5) * (2^16 / sqrt(u + 1) - 1)))
    next <- i + gap

A coded symbol is exactly an IBLT cell: a signed ``count``, the xor of
participating keys (``keySum``) and the xor of their 16-bit checksums
(``checkSum``).  Subtracting a sender's symbol stream from the same
prefix generated over the receiver's key set leaves a stream whose
pure cells (count +-1, checksum consistent) peel out the symmetric
difference, exactly like a subtracted IBLT -- except the prefix can
*grow*: recovered keys remember their stream position, so peeling
continues seamlessly into newly arrived symbols.

Storage is columnar like :mod:`repro.pds.iblt`: three flat parallel
arrays per stream.  The PRNG has no increment, so a key's ``j``-th
state is ``s * M^j mod 2^64`` in closed form, and the batch kernel
(:meth:`RIBLTEncoder._extend_batch`) generates the stream a chunk of
steps at a time instead of stepping it; the scalar walk beside it
(:meth:`RIBLTEncoder._extend_py`, over :func:`_next_index`) is the
specification, and takes over wherever fewer than ``_BATCH_MIN`` keys
are still in range and numpy's fixed call overhead would lose -- both
produce bit-identical columns, states and next indices.

The decoder keeps the section 6.1 malformed-table defence: a key
peeled twice raises :class:`~repro.errors.MalformedIBLTError` instead
of looping forever.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, Optional, Sequence

import numpy as _np

from repro.errors import MalformedIBLTError, ParameterError
from repro.pds.iblt import scatter
from repro.utils.hashing import DerivedHasher

_U64 = 0xFFFFFFFFFFFFFFFF

#: Multiplier of the per-key index-stream PRNG (a full-period 64-bit
#: MCG constant; both sides derive identical streams from it).
_PRNG_MULT = 0xDA942042E4DD58B5

#: With fewer keys than this still in range the scalar walk beats a pass
#: of the batch kernel: a pass plus the scatter is ~110 us of fixed numpy
#: overhead, the walk ~5 us a key fresh from symbol 0 (crossover at 24
#: keys) and ~2 us a key on a continuation window (crossover near 50).
_BATCH_MIN = 32

#: Most steps one chunk of the batch kernel takes per key, and the
#: multiplier's powers ``M^1 .. M^_CHUNK_MAX`` (mod 2^64) it takes them with.
_CHUNK_MAX = 8
_PRNG_POWERS = _np.array([pow(_PRNG_MULT, j, 1 << 64)
                          for j in range(1, _CHUNK_MAX + 1)],
                         dtype=_np.uint64)

#: Serialized width of one coded symbol:
#: ``count i32 | keySum u64 | checkSum u16``.  Unlike an IBLT cell's
#: i16 count, symbol 0 sums *every* key in the set, so the count field
#: must hold a whole mempool.
SYMBOL_BYTES = 14

#: Wire header preceding every symbol batch: ``start u32 | count u16``
#: (see :func:`repro.codec.encode_symbol_batch` and PROTOCOL.md 1.4).
SYMBOL_BATCH_HEADER_BYTES = 6


def symbol_stream_bytes(count: int) -> int:
    """Wire size of one batch of ``count`` coded symbols."""
    return SYMBOL_BATCH_HEADER_BYTES + SYMBOL_BYTES * count


def _initial_state(hasher: DerivedHasher, key: int) -> tuple[int, int]:
    """Per-key PRNG seed and 16-bit checksum, both from the hash family.

    The first hash word seeds the index-stream PRNG (forced nonzero:
    a zero MCG state is absorbing).  The checksum is the masked entry
    checksum, as in IBLT cells.
    """
    words, csum = hasher.entry(key)
    return words[0] or 1, csum & 0xFFFF


def _next_index(state: int, idx: int) -> tuple[int, int]:
    """Advance one key's stream: returns ``(new_state, next_index)``."""
    state = (state * _PRNG_MULT) & _U64
    u = state >> 32
    gap = math.ceil((idx + 1.5) * (65536.0 / math.sqrt(u + 1.0) - 1.0))
    return state, idx + (gap if gap > 1 else 1)


class RIBLTEncoder:
    """Generates the coded-symbol prefix for a fixed key set.

    The stream is a pure function of ``(keys, seed)``: extending the
    prefix is deterministic and any window of it can be re-served
    byte-identically (retransmissions, multiple peers).  Symbols are
    generated lazily -- :meth:`extend` grows the columnar prefix to a
    requested length; :meth:`window` snapshots a slice.
    """

    __slots__ = ("seed", "hasher", "size", "_counts", "_key_sums",
                 "_check_sums", "_keys", "_csums", "_states", "_next")

    def __init__(self, keys, seed: int = 0):
        self.seed = seed
        self.hasher = DerivedHasher(1, seed)
        self.size = 0
        self._counts = array("q")
        self._key_sums = array("Q")
        self._check_sums = array("Q")
        # ``keys`` is a uint64 array (a short-ID column) or any iterable
        # of ints, masked to 64 bits and packed into one; either way the
        # key set is its sorted distinct values.
        if not isinstance(keys, _np.ndarray):
            keys = [key & _U64 for key in keys]
        column = _np.sort(_np.asarray(keys, dtype=_np.uint64))
        fresh = _np.ones(column.size, dtype=bool)
        _np.not_equal(column[1:], column[:-1], out=fresh[1:])
        uniq = column[fresh]
        self._keys = array("Q", uniq.tobytes())
        # One vectorized mix fills both per-key columns; element for
        # element it is ``_initial_state`` (the decoder's scalar form).
        words, csums = self.hasher.batch_entries(uniq)
        states = words[:, 0]
        states[states == 0] = 1
        self._states = array("Q", states.tobytes())
        self._csums = array("Q", (csums & _np.uint64(0xFFFF)).tobytes())
        #: Next stream index each key participates in (all start at 0).
        self._next = array("q", bytes(8 * len(uniq)))

    def __len__(self) -> int:
        return self.size

    @property
    def key_count(self) -> int:
        return len(self._keys)

    def extend(self, size: int) -> None:
        """Grow the generated prefix to at least ``size`` symbols."""
        if size <= self.size:
            return
        grow = size - self.size
        self._counts.extend([0] * grow)
        self._key_sums.frombytes(bytes(8 * grow))
        self._check_sums.frombytes(bytes(8 * grow))
        self._extend_batch(size)
        self.size = size

    def _extend_py(self, size: int, rows) -> None:
        """The scalar specification: walk the stream of each key in
        ``rows`` (indices into the key columns) on its own."""
        counts = self._counts
        key_sums = self._key_sums
        check_sums = self._check_sums
        for i in rows:
            idx = self._next[i]
            if idx >= size:
                continue
            key = self._keys[i]
            csum = self._csums[i]
            state = self._states[i]
            while idx < size:
                counts[idx] += 1
                key_sums[idx] ^= key
                check_sums[idx] ^= csum
                state, idx = _next_index(state, idx)
            self._states[i] = state
            self._next[i] = idx

    def _extend_batch(self, size: int) -> None:
        """The batch kernel: every in-range key's stream, a chunk of
        steps per pass.

        The index PRNG has no increment, so a key's ``j``-th state is
        ``s * M^j mod 2^64`` in closed form: a chunk of ``J`` steps is
        the outer product ``M^(1..J) (x) states[rows]``, and the gap
        ratios ``65536 / sqrt(u + 1) - 1`` of the whole chunk are one
        array expression.  Only the index recurrence ``i <- i + max(1,
        ceil((i + 1.5) * ratio))`` is walked step by step, on ``y = i +
        1.5`` in float64 (exact far beyond any stream: an index this
        kernel casts back to an integer is below ``2^17 * size``).
        Indices rise along a chunk, so a key's hits are a prefix of it
        and its hit count picks its new state and next index out of the
        chunk.  A stream that has run past ``size`` keeps stepping in
        float64 and is never cast back -- only each key's *first* index
        ``>= size`` is -- so nothing can overflow.

        ``J`` is two more than the hits the key furthest behind expects
        before ``size`` -- ``1.5 ln(size / index)`` under the ``1.5 /
        (t + 1.5)`` density -- so most keys finish in one pass, the rest
        go round again, and the last few (under ``_BATCH_MIN``, where
        numpy's fixed cost per pass loses) finish in the scalar walk.
        The three columns take one scatter per call.  The arithmetic is
        :func:`_next_index`'s, operation for operation: columns, states
        and next indices equal the scalar walk's bit for bit.
        """
        prev = self.size
        states = _np.frombuffer(self._states, dtype=_np.uint64)
        nxt = _np.frombuffer(self._next, dtype=_np.int64)
        rows = _np.flatnonzero(nxt < size)
        hit_rows, hit_y = [], []
        while rows.size >= _BATCH_MIN:
            width = rows.size
            first = nxt[rows]
            steps = min(_CHUNK_MAX, 2 + int(
                1.5 * math.log(size / max(int(first.min()), 1.5))))
            state = states[rows]
            chunk = _PRNG_POWERS[:steps, None] * state   # wraps mod 2^64
            chunk >>= _np.uint64(32)
            ratio = chunk + 1.0
            _np.sqrt(ratio, out=ratio)
            _np.divide(65536.0, ratio, out=ratio)
            ratio -= 1.0
            # ``max(1, ceil(x))`` is ``ceil(max(x, tiny))`` for x >= 0,
            # and x is zero only where the ratio is (u = 2^32 - 1).
            _np.maximum(ratio, 1e-300, out=ratio)
            y = _np.empty((steps + 1, width))
            _np.add(first, 1.5, out=y[0])
            for j in range(steps):
                gap = _np.multiply(y[j], ratio[j], out=y[j + 1])
                _np.ceil(gap, out=gap)
                gap += y[j]
            inside = y[:steps] < size + 1.5
            flat = _np.flatnonzero(inside)
            hit_rows.append(_np.tile(rows, steps)[flat])
            hit_y.append(y.ravel()[flat])
            taken = inside.sum(axis=0)
            states[rows] = state * _PRNG_POWERS[taken - 1]
            after = (y[taken, _np.arange(width)] - 1.5).astype(_np.int64)
            nxt[rows] = after
            rows = rows[after < size]
        self._extend_py(size, rows.tolist())
        if not hit_rows:
            return
        # One scatter for the three columns, by symbol relative to the
        # window (uint16 takes numpy's radix sort).  2 000 keys, 0 -> 50:
        # 552 us, against 663 with a ``bitwise_xor.at`` per column;
        # 50 -> 210: 346 against 373.
        rel = (_np.concatenate(hit_y) - (prev + 1.5)).astype(
            _np.uint16 if size - prev <= 0x10000 else _np.intp)
        scatter((self._counts, self._key_sums, self._check_sums), rel,
                _np.concatenate(hit_rows),
                _np.frombuffer(self._keys, dtype=_np.uint64),
                _np.frombuffer(self._csums, dtype=_np.uint64), offset=prev)

    def window(self, start: int, count: int):
        """Columns of symbols ``[start, start + count)`` as array copies.

        Extends the prefix as needed; the returned triple is
        ``(counts, key_sums, check_sums)``.
        """
        if start < 0 or count < 0:
            raise ParameterError(
                f"symbol window must be non-negative: {start}, {count}")
        self.extend(start + count)
        stop = start + count
        return (self._counts[start:stop], self._key_sums[start:stop],
                self._check_sums[start:stop])


class RIBLTDecoder:
    """Peels a sender's symbol stream against a local candidate set.

    Feed sender symbols in arrival order with :meth:`add_symbols`; the
    decoder subtracts its own locally generated stream (over
    ``local_keys``) and peels the difference incrementally.  Decoding
    is ``complete`` once the subtracted prefix is all zeros -- at that
    point :attr:`local` holds keys only the *sender* has (sign +1,
    e.g. block transactions the receiver is missing) and
    :attr:`remote` holds keys only the *receiver* has (sign -1, e.g.
    Bloom false positives), matching the naming of
    :meth:`repro.pds.iblt.IBLT.decode` for a ``sender - receiver``
    subtraction.

    Recovered keys remember their stream position, so symbols arriving
    after a key was peeled are corrected on ingest and the peel
    continues across batch boundaries.
    """

    __slots__ = ("seed", "hasher", "size", "_encoder", "_counts",
                 "_key_sums", "_check_sums", "local", "remote",
                 "_peeled")

    def __init__(self, local_keys: Iterable[int], seed: int = 0):
        self.seed = seed
        self.size = 0
        self._encoder = RIBLTEncoder(local_keys, seed=seed)
        self.hasher = self._encoder.hasher
        # Subtracted columns: sender stream minus the local stream.
        self._counts = array("q")
        self._key_sums = array("Q")
        self._check_sums = array("Q")
        self.local: set = set()
        self.remote: set = set()
        #: Recovered keys' forward stream positions:
        #: ``key -> [sign, csum, state, next_idx]``.
        self._peeled: dict = {}

    def __len__(self) -> int:
        return self.size

    @property
    def complete(self) -> bool:
        """True when the subtracted prefix has fully peeled to zeros.

        Vacuously false before any symbol arrives: completeness is a
        statement about observed symbols.
        """
        if self.size == 0:
            return False
        zeros = bytes(8 * self.size)
        return (self._counts.tobytes() == zeros
                and self._key_sums.tobytes() == zeros
                and self._check_sums.tobytes() == zeros)

    def add_symbols(self, counts: Sequence[int], key_sums: Sequence[int],
                    check_sums: Sequence[int]) -> bool:
        """Ingest the next batch of sender symbols; returns ``complete``.

        Batches must arrive in stream order (the caller checks the wire
        batch's ``start`` against :attr:`size`).  Raises
        :class:`MalformedIBLTError` if peeling recovers a key twice.
        """
        if not (len(counts) == len(key_sums) == len(check_sums)):
            raise ParameterError("symbol batch columns disagree in length")
        start = self.size
        stop = start + len(counts)
        encoder = self._encoder
        encoder.extend(stop)
        sub_c = self._counts
        sub_k = self._key_sums
        sub_s = self._check_sums
        # Sender window minus the local stream's, a column at a time.
        sub_c.frombytes(
            (_np.asarray(counts, dtype=_np.int64) - _np.frombuffer(
                encoder._counts, dtype=_np.int64)[start:stop]).tobytes())
        for sub, theirs, ours in ((sub_k, key_sums, encoder._key_sums),
                                  (sub_s, check_sums, encoder._check_sums)):
            sub.frombytes(
                (_np.asarray(theirs, dtype=_np.uint64) ^ _np.frombuffer(
                    ours, dtype=_np.uint64)[start:stop]).tobytes())
        self.size = stop
        # Keys peeled from the earlier prefix keep participating in the
        # stream: subtract them out of the new region before peeling.
        stack = []
        for key, pos in self._peeled.items():
            sign, csum, state, idx = pos
            while idx < stop:
                sub_c[idx] -= sign
                sub_k[idx] ^= key
                sub_s[idx] ^= csum
                if sub_c[idx] in (1, -1):
                    stack.append(idx)
                state, idx = _next_index(state, idx)
            pos[2] = state
            pos[3] = idx
        stack.extend(i for i in range(start, stop) if sub_c[i] in (1, -1))
        self._peel(stack)
        return self.complete

    def add_known(self, keys: Iterable[int]) -> bool:
        """Take ``keys`` as sender-only, learnt outside the stream (the
        short IDs of pushed transactions); returns ``complete``.

        Coded symbols are additive: the keys' own stream over the held
        prefix is subtracted out of it, each key is left as a recovered
        ``+1`` key is (later windows are corrected on ingest) and what
        became pure is peeled.  A key already peeled is skipped; one the
        sender lacks peels again as ``-1``: :class:`MalformedIBLTError`.
        """
        known = RIBLTEncoder([key for key in keys if key not in self._peeled],
                             seed=self.seed)
        known.extend(self.size)
        counts = _np.frombuffer(self._counts, dtype=_np.int64)
        counts -= _np.frombuffer(known._counts, dtype=_np.int64)
        for sub, theirs in ((self._key_sums, known._key_sums),
                            (self._check_sums, known._check_sums)):
            _np.frombuffer(sub, dtype=_np.uint64)[:] ^= \
                _np.frombuffer(theirs, dtype=_np.uint64)
        self.local.update(known._keys)
        for key, *position in zip(known._keys, known._csums, known._states,
                                  known._next):
            self._peeled[key] = [1, *position]
        self._peel(_np.flatnonzero(_np.abs(counts) == 1).tolist())
        return self.complete

    def _peel(self, stack: list) -> None:
        sub_c = self._counts
        sub_k = self._key_sums
        sub_s = self._check_sums
        size = self.size
        while stack:
            idx = stack.pop()
            sign = sub_c[idx]
            if sign not in (1, -1):
                continue
            key = sub_k[idx]
            state, csum = _initial_state(self.hasher, key)
            if csum != sub_s[idx]:
                continue  # not a pure cell, just a coincidence of counts
            if key in self._peeled:
                raise MalformedIBLTError(
                    f"key {key:#x} decoded twice; symbol stream is "
                    "malformed")
            (self.local if sign == 1 else self.remote).add(key)
            # Peel the key out of its entire index stream within the
            # current prefix, remembering where it left off.
            i = 0
            while i < size:
                sub_c[i] -= sign
                sub_k[i] ^= key
                sub_s[i] ^= csum
                if sub_c[i] in (1, -1):
                    stack.append(i)
                state, i = _next_index(state, i)
            self._peeled[key] = [sign, csum, state, i]


def reconcile(sender_keys: Iterable[int], receiver_keys: Iterable[int],
              seed: int = 0, batch: int = 8,
              max_symbols: Optional[int] = None):
    """Run a whole exchange in memory; returns ``(decoder, symbols_used)``.

    Streams ``batch``-symbol chunks from an encoder over
    ``sender_keys`` into a decoder over ``receiver_keys`` until the
    difference decodes.  ``max_symbols`` bounds the stream (default
    generous) so a test that should converge fails loudly instead of
    spinning.
    """
    if batch < 1:
        raise ParameterError(f"batch must be >= 1, got {batch}")
    encoder = RIBLTEncoder(sender_keys, seed=seed)
    decoder = RIBLTDecoder(receiver_keys, seed=seed)
    if max_symbols is None:
        max_symbols = 64 + 8 * (encoder.key_count
                                + decoder._encoder.key_count)
    while decoder.size < max_symbols:
        counts, key_sums, check_sums = encoder.window(decoder.size, batch)
        if decoder.add_symbols(counts, key_sums, check_sums):
            return decoder, decoder.size
    raise MalformedIBLTError(
        f"stream did not decode within {max_symbols} symbols")
