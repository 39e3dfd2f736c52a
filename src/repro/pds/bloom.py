"""A from-scratch Bloom filter.

The Graphene protocols size their filters straight from the target false
positive rate, so this implementation exposes the same knobs the paper's
equations use:

* ``BloomFilter.from_fpr(n, f)`` builds a filter for ``n`` insertions with
  false positive rate ``f``, occupying ``-n log2(f) / (8 ln 2)`` bytes --
  the ``T_BF`` term of Eq. 2.
* ``f >= 1`` degenerates to a match-everything filter of zero bytes; the
  paper leans on this when ``m - n`` approaches zero ("the special case
  where Graphene has an FPR of 1 is equivalent to not sending a Bloom
  filter at all").

An unseeded filter inserts an item by slicing its digest into ``k``
index words (hash-splitting, section 6.3).  A seeded filter -- every
filter the protocols build, so that S, R and F make independent
mistakes -- never re-hashes either: it absorbs the four 64-bit words of
the digest through the keyed mixer (:func:`repro.utils.hashing.mix64`,
starting from the seed's salt) and derives the ``k`` indices from the
two 32-bit halves of the result by Kirsch-Mitzenmacher double hashing.

Two properties of that derivation are load-bearing:

* **The whole ID is absorbed, not only the short ID.**  Graphene's
  answer to a manufactured 8-byte short-ID collision (section 6.1) is
  that S and R hold *full* IDs, so the colliding pair still has to get
  past both filters by luck, ``f_S * f_R``.  Mixing only the first 8
  bytes would send both transactions to the same bits and lose that.
* **The salt goes through the mixer.**  XORed onto finished words it
  would, for a power-of-two ``nbits``, merely permute bit positions,
  and two seeds would make identical mistakes.

Batches have one kernel, and it reads packed input:
:meth:`BloomFilter.update_packed` and :meth:`BloomFilter.contains_packed`
take 32-byte rows laid end to end -- a mempool's or a block's own ID
buffer (:class:`repro.chain.columns.TxColumns`) -- and
:meth:`~BloomFilter.update` / :meth:`~BloomFilter.contains_many` pack
their list (digesting any item that is not 32 bytes, as the scalar path
does) and call it.  The mempool sweep of section 6.3 is therefore one
vectorized pass over a buffer the mempool already holds.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable

import numpy as _np

from repro.errors import ParameterError
from repro.utils.hashing import (
    family_salts, mix64, mix64_array, sha256, split_digest)

_LN2 = math.log(2.0)
_LN2_SQ = _LN2 * _LN2

_UNPACK_8I = struct.Struct("<8I").unpack
_UNPACK_4Q = struct.Struct("<4Q").unpack

_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF

#: Domain tag of the seeded filter's salt (see ``family_salts``).
_SALT_TAG = b"graphene/bloom"

#: Below this many items the scalar loop beats numpy's fixed call overhead
#: (measured, seeded probe of never-seen items: 34 vs 36 us at 10 items,
#: 41 vs 40 at 12, 103 vs 38 at 31; a memo hit costs 3-6 us at any size).
_BATCH_MIN = 12

#: Finished ``(k, n)`` cell matrices of seeded packed sweeps, keyed
#: ``(seed, nbits, k, ids)`` with ``ids`` the packed 32-byte rows.  A
#: relay sweeps the *same* mempool snapshot through a filter of the same
#: geometry for every peer that announces the block, so the matrix
#: repeats sweep for sweep.  The matrix is a pure function of exactly
#: those bytes (rows are fixed-width, so no two row lists share a key);
#: a ``bytes`` key caches its own hash, so a reused snapshot looks up in
#: O(1), and equal content held by another object still hits.  Bounded;
#: oldest half evicted at the cap.
_INDEX_MEMO: dict = {}
_INDEX_MEMO_CAP = 64


def bloom_size_bits(n: int, f: float) -> int:
    """Return the optimal bit count for ``n`` items at false positive rate ``f``."""
    if n < 0:
        raise ParameterError(f"n must be non-negative, got {n}")
    if not 0.0 < f:
        raise ParameterError(f"FPR must be positive, got {f}")
    if n == 0 or f >= 1.0:
        return 0
    return max(1, math.ceil(-n * math.log(f) / _LN2_SQ))


def bloom_size_bytes(n: int, f: float) -> int:
    """Return the serialized size in bytes of an optimal filter (Eq. 2's T_BF)."""
    return (bloom_size_bits(n, f) + 7) // 8


def optimal_hash_count(bits: int, n: int) -> int:
    """Return the FPR-minimizing number of hash functions, ``(bits/n) ln 2``."""
    if n <= 0 or bits <= 0:
        return 1
    return max(1, round(bits / n * _LN2))


class BloomFilter:
    """Bloom filter over byte-string items (transaction IDs).

    Parameters
    ----------
    nbits:
        Size of the bit array.  ``0`` creates a degenerate filter that
        reports every item as present and serializes to zero bytes.
    k:
        Number of hash functions.
    seed:
        Mixed into the item digest so that independent filters (S, R, F in
        the protocols) make independent mistakes.
    """

    __slots__ = ("nbits", "k", "seed", "count", "_bits", "_target_fpr",
                 "_salt")

    def __init__(self, nbits: int, k: int, seed: int = 0):
        if nbits < 0:
            raise ParameterError(f"nbits must be non-negative, got {nbits}")
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        self.nbits = nbits
        self.k = k
        self.seed = seed
        self.count = 0
        self._bits = bytearray((nbits + 7) // 8)
        self._target_fpr = 1.0
        #: Salt of the seeded family; unseeded filters split the digest.
        self._salt = family_salts(_SALT_TAG, seed, 1)[0] if seed else None

    @classmethod
    def from_fpr(cls, n: int, fpr: float, seed: int = 0) -> "BloomFilter":
        """Build a filter sized optimally for ``n`` items at rate ``fpr``.

        ``fpr`` is clamped to 1.0; at or above 1.0 the filter is
        degenerate (zero bits, matches everything), which is exactly the
        behaviour Protocol 1 wants as ``m - n`` approaches zero.
        """
        if n < 0:
            raise ParameterError(f"n must be non-negative, got {n}")
        if fpr <= 0.0:
            raise ParameterError(f"fpr must be positive, got {fpr}")
        if fpr >= 1.0 or n == 0:
            filt = cls(0, 1, seed=seed)
            filt._target_fpr = 1.0
            return filt
        nbits = bloom_size_bits(n, fpr)
        k = optimal_hash_count(nbits, n)
        filt = cls(nbits, k, seed=seed)
        filt._target_fpr = fpr
        return filt

    @property
    def is_degenerate(self) -> bool:
        """True when the filter matches everything (zero-bit filter)."""
        return self.nbits == 0

    @property
    def target_fpr(self) -> float:
        """The FPR this filter was sized for (1.0 when degenerate)."""
        return self._target_fpr

    def _indices(self, item: bytes) -> list:
        """Return the ``k`` bit indices for ``item``."""
        k, nbits = self.k, self.nbits
        if self.seed:
            if len(item) != 32:
                item = sha256(item)
            mixed = self._salt
            for word in _UNPACK_4Q(item):
                mixed = mix64(mixed ^ word)
            lo, hi = mixed & _U32, mixed >> 32 | 1
            return [((lo + j * hi) & _U32) % nbits for j in range(k)]
        # Transaction IDs are already cryptographic hashes; reuse them
        # directly (hash-splitting, paper 6.3) when no reseeding is needed.
        digest = item if len(item) >= 32 else sha256(item)
        if k <= 8 and len(digest) == 32:
            # Inline hash splitting: identical to split_digest for a
            # 32-byte digest and k direct words, minus the generator.
            return [w % nbits for w in _UNPACK_8I(digest)[:k]]
        return list(split_digest(digest, k, nbits))

    def _pack(self, items: list):
        """``items`` as packed 32-byte rows, or ``None`` for the scalar loop.

        Short batches stay scalar (see ``_BATCH_MIN``).  A seeded filter
        digests any item that is not 32 bytes first, as :meth:`_indices`
        does; an unseeded one splits the item itself, and a longer item
        has words a 32-byte row cannot carry, so such lists have no
        packed form.
        """
        if len(items) < _BATCH_MIN:
            return None
        joined = b"".join(items)
        # Sum and maximum together establish that *every* item is
        # 32 bytes; only then is the join a row buffer.
        if len(joined) == 32 * len(items) and max(map(len, items)) == 32:
            return joined
        if not self.seed:
            return None
        return b"".join([item if len(item) == 32 else sha256(item)
                         for item in items])

    def _packed_cells(self, ids: bytes):
        """Return ``(byte_index, bit_mask)`` matrices, ``(k, len(ids)/32)``.

        The one batch kernel: ``ids`` is 32-byte rows laid end to end
        (:attr:`repro.chain.columns.TxColumns.ids`).  Bit positions
        match :meth:`_indices` exactly: the same arithmetic, only
        computed column-wise.  One matrix row per hash function, so a
        probe reduces along the long, contiguous axis; reducing over
        each item's ``k`` adjacent cells is a loop too short to
        vectorize and measures three times as slow.
        """
        if len(ids) % 32:
            raise ParameterError(
                f"packed ids must be 32-byte rows, got {len(ids)} bytes")
        if not self.seed:
            words = _np.frombuffer(ids, dtype="<u4")
            return _cells(self._split_words(words.reshape(-1, 8)))
        memo_key = (self.seed, self.nbits, self.k, ids)
        cells = _INDEX_MEMO.get(memo_key)
        if cells is None:
            words = _np.frombuffer(ids, dtype="<u8").reshape(-1, 4)
            mixed = mix64_array(words[:, 0] ^ _np.uint64(self._salt))
            for j in (1, 2, 3):
                mixed = mix64_array(mixed ^ words[:, j])
            lo = mixed.astype(_np.uint32)
            hi = (mixed >> _np.uint64(32)).astype(_np.uint32) | _np.uint32(1)
            # u32 arithmetic wraps mod 2^32, the scalar path's ``& _U32``.
            steps = _np.multiply.outer(
                _np.arange(self.k, dtype=_np.uint32), hi)
            steps += lo
            steps %= _np.uint32(self.nbits)
            cells = _cells(steps.astype(_np.intp))
            if len(_INDEX_MEMO) >= _INDEX_MEMO_CAP:
                for stale in list(_INDEX_MEMO)[:_INDEX_MEMO_CAP // 2]:
                    del _INDEX_MEMO[stale]
            _INDEX_MEMO[memo_key] = cells
        return cells

    def _split_words(self, words):
        """Map a ``(batch, 8)`` u32 digest-word matrix to ``(k, batch)``
        bit indices."""
        k, nbits = self.k, self.nbits
        if k <= 8:
            # order="C": ``words.T`` is Fortran-ordered and would
            # otherwise hand its layout on.
            return (words.T[:k] % _np.uint32(nbits)).astype(_np.intp,
                                                          order="C")
        h1 = words[:, 0].astype(_np.uint64)
        h2 = words[:, 1].astype(_np.uint64) | _np.uint64(1)
        derived = [((h1 + _np.uint64(i) * h2) & _np.uint64(_U64))
                   % _np.uint64(nbits) for i in range(8, k)]
        direct = words.T % _np.uint32(nbits)
        return _np.vstack([direct] + derived).astype(_np.intp)

    def insert(self, item: bytes) -> None:
        """Insert ``item`` (a byte string, typically a 32-byte txid)."""
        if self.nbits == 0:
            # Degenerate match-everything filter: nothing is folded into
            # the (empty) bit array, so nothing is counted either --
            # ``count`` tracks the load of the bit array, keeping
            # ``actual_fpr`` and wire round-trips consistent.
            return
        self.count += 1
        bits = self._bits
        for idx in self._indices(item):
            bits[idx >> 3] |= 1 << (idx & 7)

    def update(self, items: Iterable[bytes]) -> None:
        """Insert every item of ``items``: pack, then :meth:`update_packed`."""
        if self.nbits == 0:
            return
        items = list(items)
        ids = self._pack(items)
        if ids is not None:
            self.update_packed(ids)
            return
        bits = self._bits
        indices = self._indices
        for item in items:
            for idx in indices(item):
                bits[idx >> 3] |= 1 << (idx & 7)
        self.count += len(items)

    def update_packed(self, ids: bytes) -> None:
        """Insert every 32-byte row of ``ids`` (``bytes``, rows end to end)."""
        if self.nbits == 0 or not ids:
            return
        _np.bitwise_or.at(_np.frombuffer(self._bits, dtype=_np.uint8),
                          *self._packed_cells(ids))
        self.count += len(ids) // 32

    def __contains__(self, item: bytes) -> bool:
        if self.nbits == 0:
            return True
        bits = self._bits
        for idx in self._indices(item):
            if not bits[idx >> 3] & (1 << (idx & 7)):
                return False
        return True

    def contains_many(self, items: Iterable[bytes]) -> list:
        """Return ``[item in self for item in items]`` in one sweep."""
        if self.nbits == 0:
            return [True for _ in items]
        items = list(items)
        ids = self._pack(items)
        if ids is not None:
            return self.contains_packed(ids).tolist()
        bits = self._bits
        indices = self._indices
        out = []
        append = out.append
        for item in items:
            for idx in indices(item):
                if not bits[idx >> 3] & (1 << (idx & 7)):
                    append(False)
                    break
            else:
                append(True)
        return out

    def contains_packed(self, ids: bytes):
        """Membership of every 32-byte row of ``ids``, as a bool array.

        The sweep of Graphene 6.3 -- a whole mempool through S -- reads
        the mempool's own ID buffer (``mempool.columns().ids``) and
        returns a fresh, writable mask with one entry per row.
        """
        if self.nbits == 0:
            return _np.ones(len(ids) // 32, dtype=bool)
        if not ids:
            return _np.zeros(0, dtype=bool)
        byte_idx, masks = self._packed_cells(ids)
        bits = _np.frombuffer(self._bits, dtype=_np.uint8)
        return (bits[byte_idx] & masks).all(axis=0)

    def actual_fpr(self) -> float:
        """Expected FPR given the current load: ``(1 - e^{-kn/m})^k``."""
        if self.nbits == 0:
            return 1.0
        if self.count == 0:
            return 0.0
        fill = 1.0 - math.exp(-self.k * self.count / self.nbits)
        return fill ** self.k

    def serialized_size(self) -> int:
        """Wire size in bytes: the bit array plus a small fixed header.

        Header: 4 bytes bit-count + 1 byte hash-count + 4 bytes seed,
        mirroring the filterload layout of BIP-37.
        """
        return len(self._bits) + 9

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (f"BloomFilter(nbits={self.nbits}, k={self.k}, "
                f"count={self.count}, fpr~{self.actual_fpr():.2e})")


def _cells(idx):
    """Split a bit-index matrix into ``(byte index, bit mask)`` matrices."""
    return idx >> 3, _np.uint8(1) << (idx & 7).astype(_np.uint8)
