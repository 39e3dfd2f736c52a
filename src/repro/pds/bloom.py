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

#: Finished ``(len(items), k)`` bit-index matrices of seeded whole-batch
#: sweeps, keyed ``(seed, nbits, k, tuple(items))``.  A relay sweeps the
#: *same* mempool txid list through a filter of the same geometry for
#: every peer that announces the block, so the matrix repeats batch for
#: batch.  The key is the exact item tuple (no digest, no joined bytes),
#: so two lists can never answer for each other.  Bounded; oldest half
#: evicted at the cap.
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

    def _batch_cells(self, items: list):
        """Return ``(byte_index, bit_mask)`` matrices, ``(len(items), k)``.

        Returns ``None`` for unseeded items that are not all 32-byte
        digests (they have no fixed-width word matrix); callers then
        take the scalar loop.  Bit positions match :meth:`_indices`
        exactly: the same arithmetic, only computed column-wise.
        """
        if not self.seed:
            if any(len(item) != 32 for item in items):
                return None
            words = _np.frombuffer(b"".join(items), dtype="<u4")
            return _cells(self._split_words(words.reshape(len(items), 8)))
        memo_key = (self.seed, self.nbits, self.k, tuple(items))
        cells = _INDEX_MEMO.get(memo_key)
        if cells is None:
            joined = b"".join(items)
            # Sum and maximum together establish that *every* item is
            # 32 bytes; only then is the join a word matrix.
            if (len(joined) != 32 * len(items)
                    or max(map(len, items)) != 32):
                joined = b"".join([item if len(item) == 32 else sha256(item)
                                   for item in items])
            words = _np.frombuffer(joined, dtype="<u8").reshape(-1, 4)
            mixed = mix64_array(words[:, 0] ^ _np.uint64(self._salt))
            for j in (1, 2, 3):
                mixed = mix64_array(mixed ^ words[:, j])
            lo = mixed.astype(_np.uint32)
            hi = (mixed >> _np.uint64(32)).astype(_np.uint32) | _np.uint32(1)
            # u32 arithmetic wraps mod 2^32, the scalar path's ``& _U32``.
            steps = _np.multiply.outer(
                hi, _np.arange(self.k, dtype=_np.uint32))
            steps += lo[:, None]
            steps %= _np.uint32(self.nbits)
            cells = _cells(steps.astype(_np.intp))
            if len(_INDEX_MEMO) >= _INDEX_MEMO_CAP:
                for stale in list(_INDEX_MEMO)[:_INDEX_MEMO_CAP // 2]:
                    del _INDEX_MEMO[stale]
            _INDEX_MEMO[memo_key] = cells
        return cells

    def _split_words(self, words):
        """Map a ``(batch, 8)`` u32 digest-word matrix to bit indices."""
        k, nbits = self.k, self.nbits
        if k <= 8:
            return (words[:, :k] % _np.uint32(nbits)).astype(_np.intp)
        h1 = words[:, 0].astype(_np.uint64)
        h2 = words[:, 1].astype(_np.uint64) | _np.uint64(1)
        derived = [((h1 + _np.uint64(i) * h2) & _np.uint64(_U64))
                   % _np.uint64(nbits) for i in range(8, k)]
        direct = words % _np.uint32(nbits)
        return _np.column_stack([direct] + derived).astype(_np.intp)

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
        """Insert every item of ``items`` (batch path)."""
        if self.nbits == 0:
            return
        items = list(items)
        if not items:
            return
        if len(items) >= _BATCH_MIN:
            cells = self._batch_cells(items)
            if cells is not None:
                _np.bitwise_or.at(
                    _np.frombuffer(self._bits, dtype=_np.uint8), *cells)
                self.count += len(items)
                return
        bits = self._bits
        indices = self._indices
        for item in items:
            for idx in indices(item):
                bits[idx >> 3] |= 1 << (idx & 7)
        self.count += len(items)

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
        if len(items) >= _BATCH_MIN:
            cells = self._batch_cells(items)
            if cells is not None:
                byte_idx, masks = cells
                bits = _np.frombuffer(self._bits, dtype=_np.uint8)
                return (bits[byte_idx] & masks).astype(bool) \
                    .all(axis=1).tolist()
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
