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

Items are inserted by slicing their digest into ``k`` index words
(hash-splitting, section 6.3) rather than rehashing ``k`` times.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable

import numpy as _np

from repro.errors import ParameterError
from repro.utils.hashing import sha256, split_digest

_LN2 = math.log(2.0)
_LN2_SQ = _LN2 * _LN2

_UNPACK_8I = struct.Struct("<8I").unpack

_U64 = 0xFFFFFFFFFFFFFFFF

#: Below this many items the scalar loop beats numpy's fixed call overhead.
_BATCH_MIN = 32

#: Seeded-digest cache shared across *all* filter instances, keyed
#: ``(seed, item)``.  The protocols rebuild filters with the same
#: derived seed for every relay of the same block (S, R, F use fixed
#: seed offsets), so the SHA-256 over each txid repeats across filters;
#: a digest depends only on ``(seed, item)``, making cross-instance
#: sharing deterministic.  Bounded: oldest half evicted at the cap.
_DIGEST_CACHE: dict = {}
_DIGEST_CACHE_CAP = 1 << 17


def _remember_digest(key: tuple, digest: bytes) -> bytes:
    if len(_DIGEST_CACHE) >= _DIGEST_CACHE_CAP:
        for stale in list(_DIGEST_CACHE)[:_DIGEST_CACHE_CAP // 2]:
            del _DIGEST_CACHE[stale]
    _DIGEST_CACHE[key] = digest
    return digest


#: Whole-batch digest-blob cache for :meth:`BloomFilter._batch_indices`,
#: keyed ``(seed, item_count, sha256(joined items))``.  A relay sweeps
#: the *same* mempool txid list through a filter of the same seed on
#: every block, so the concatenated per-item digest blob repeats batch
#: for batch; one join plus one SHA-256 replaces the per-item cache
#: loop.  Only fixed-width (32-byte) items use it -- with the count in
#: the key the concatenation is then unambiguous.
_BLOB_CACHE: dict = {}
_BLOB_CACHE_CAP = 256


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
                 "_seed_prefix", "_seed_mid", "_index_cache")

    #: Bound on the per-filter item -> bit-index cache (see ``_indices``).
    CACHE_CAP = 1 << 16

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
        self._seed_prefix = seed.to_bytes(8, "little") if seed else b""
        # Midstate with the seed prefix absorbed: each digest copies it
        # and feeds only the item bytes.
        self._seed_mid = hashlib.sha256(self._seed_prefix) if seed else None
        self._index_cache: dict = {}

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

    def _digest(self, item: bytes) -> bytes:
        if self.seed:
            key = (self.seed, item)
            digest = _DIGEST_CACHE.get(key)
            if digest is None:
                h = self._seed_mid.copy()
                h.update(item)
                digest = _remember_digest(key, h.digest())
            return digest
        # Transaction IDs are already cryptographic hashes; reuse them
        # directly (hash-splitting, paper 6.3) when no reseeding is needed.
        return item if len(item) >= 32 else sha256(item)

    def _indices(self, item: bytes) -> tuple:
        """Return the ``k`` bit indices for ``item``, cached per filter.

        The protocols probe and insert the same txid against one filter
        within a session (e.g. partitioning a block through R, then
        building F over the hits); the cache makes the second touch free.
        """
        cache = self._index_cache
        idx = cache.get(item)
        if idx is None:
            digest = self._digest(item)
            k, nbits = self.k, self.nbits
            if k <= 8 and len(digest) == 32:
                # Inline hash splitting: identical to split_digest for a
                # 32-byte digest and k direct words, minus the generator.
                idx = tuple(w % nbits for w in _UNPACK_8I(digest)[:k])
            else:
                idx = tuple(split_digest(digest, k, nbits))
            if len(cache) >= self.CACHE_CAP:
                for stale in list(cache)[:self.CACHE_CAP // 2]:
                    del cache[stale]
            cache[item] = idx
        return idx

    def _batch_indices(self, items: list):
        """Return the ``(len(items), k)`` bit-index matrix, vectorized.

        Returns ``None`` for unseeded items that are not all 32-byte
        digests (they have no fixed-width word matrix); callers then
        take the scalar loop.  Index values match :meth:`_indices`
        exactly: the digests and the hash-splitting arithmetic are the
        same, only computed column-wise.
        """
        if self.seed:
            seed = self.seed
            joined = b"".join(items)
            blob_key = None
            if len(joined) == 32 * len(items):
                blob_key = (seed, len(items),
                            hashlib.sha256(joined).digest())
                blob = _BLOB_CACHE.get(blob_key)
                if blob is not None:
                    words = _np.frombuffer(blob, dtype="<u4")
                    return self._split_words(words.reshape(len(items), 8))
            mid = self._seed_mid
            cache = _DIGEST_CACHE
            digests = []
            append = digests.append
            for item in items:
                key = (seed, item)
                digest = cache.get(key)
                if digest is None:
                    h = mid.copy()
                    h.update(item)
                    digest = _remember_digest(key, h.digest())
                append(digest)
            blob = b"".join(digests)
            if blob_key is not None:
                if len(_BLOB_CACHE) >= _BLOB_CACHE_CAP:
                    for stale in list(_BLOB_CACHE)[:_BLOB_CACHE_CAP // 2]:
                        del _BLOB_CACHE[stale]
                _BLOB_CACHE[blob_key] = blob
        else:
            if any(len(item) != 32 for item in items):
                return None
            blob = b"".join(items)
        words = _np.frombuffer(blob, dtype="<u4").reshape(len(items), 8)
        return self._split_words(words)

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
            idx = self._batch_indices(items)
            if idx is not None:
                masks = _np.uint8(1) << (idx & 7).astype(_np.uint8)
                _np.bitwise_or.at(
                    _np.frombuffer(self._bits, dtype=_np.uint8),
                    idx >> 3, masks)
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
            idx = self._batch_indices(items)
            if idx is not None:
                bits = _np.frombuffer(self._bits, dtype=_np.uint8)
                masks = _np.uint8(1) << (idx & 7).astype(_np.uint8)
                return (bits[idx >> 3] & masks).astype(bool) \
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
