"""Hashing helpers used by every probabilistic data structure in the package.

Two idioms from the paper live here:

* **Hash splitting** (paper 6.3): transaction IDs are already the output of
  a cryptographic hash, so instead of rehashing an item ``k`` times for a
  Bloom filter, we slice the 32-byte digest into ``k`` independent pieces.
  :func:`split_digest` implements the slicing and falls back to cheap
  derived hashing when ``k`` pieces do not fit.

* **Derived hashing** (Kirsch & Mitzenmacher): ``h_i(x) = h1(x) + i*h2(x)``
  gives an arbitrary number of independent-enough hash functions from two
  base values.  :class:`DerivedHasher` packages this with a seed so that
  sibling IBLTs can use independent hash families (required by ping-pong
  decoding, paper 4.2).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterator

import numpy as _np

_U64 = 0xFFFFFFFFFFFFFFFF

_PACK_Q = struct.Struct("<Q").pack


def sha256(data: bytes) -> bytes:
    """Return the SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def short_id(txid: bytes, nbytes: int = 8) -> int:
    """Truncate a full transaction ID to an ``nbytes``-byte integer.

    The paper's IBLT stores only the first 8 bytes of each transaction ID
    (Protocol 1, step 3 note); Compact Blocks uses 6, XThin uses 8.
    """
    if not 1 <= nbytes <= len(txid):
        raise ValueError(f"nbytes must be in [1, {len(txid)}], got {nbytes}")
    return int.from_bytes(txid[:nbytes], "little")


def split_digest(digest: bytes, k: int, modulus: int) -> Iterator[int]:
    """Yield ``k`` hash values in ``[0, modulus)`` by slicing ``digest``.

    Implements the hash-splitting optimization of paper section 6.3: the
    32-byte digest is broken into 4-byte words, each word serving as one
    hash value.  When more than ``len(digest) // 4`` values are requested,
    the remainder are produced with derived hashing seeded from the first
    two words, preserving the "no extra cryptographic hashing" property.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    nwords = len(digest) // 4
    words = struct.unpack(f"<{nwords}I", digest[: 4 * nwords])
    direct = min(k, nwords)
    for i in range(direct):
        yield words[i] % modulus
    if k > nwords:
        h1, h2 = words[0], words[1] | 1
        for i in range(nwords, k):
            yield ((h1 + i * h2) & _U64) % modulus


class DerivedHasher:
    """A family of ``k`` hash functions over 64-bit keys.

    Uses the Kirsch-Mitzenmacher construction ``h_i(x) = h1 + i*h2`` where
    ``h1`` and ``h2`` are halves of a seeded SHA-256 of the key.  Each
    instance is deterministic given ``(seed, k)``; different seeds give
    (statistically) independent families, which is what ping-pong decoding
    requires of the two IBLTs.

    Each instance keeps a bounded hash-word cache (key -> the ``k`` 64-bit
    words plus the checksum base), so a key digested once is free on every
    later insert/peel/probe against any structure sharing the hasher.  The
    protocols sweep the same mempool against S, I, I', J and J' in one
    session; :meth:`shared` hands all structures of one ``(k, seed)``
    family the same instance so they also share the cache.
    """

    __slots__ = ("seed", "k", "_prefix", "_cache", "_cache_cap",
                 "_mid_base", "_mid_words", "_blob_words", "_unpack_blob",
                 "_batch_cache")

    #: Bound on whole-batch blob memos (see :meth:`batch_entries`).
    BATCH_CACHE_CAP = 32

    #: Bound on cached keys per family; at ~100 B/entry this caps the
    #: cache near 13 MB.  Eviction drops the oldest half (insertion
    #: order), an O(1)-amortized approximation of LRU.
    CACHE_CAP = 1 << 17

    #: Registry of shared per-family instances (see :meth:`shared`).
    _shared: dict = {}

    def __init__(self, k: int, seed: int = 0):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.seed = seed
        self._prefix = struct.pack("<Q", seed & _U64)
        self._cache: dict[int, bytes] = {}
        self._cache_cap = self.CACHE_CAP
        self._batch_cache: dict[tuple, bytes] = {}
        # SHA-256 midstates with the seed prefix (and, for the index
        # words, the counter) already absorbed; a cache miss copies these
        # and feeds only the 8-byte key instead of rebuilding the message.
        self._mid_base = hashlib.sha256(self._prefix)
        self._mid_words = hashlib.sha256(self._prefix + b"\x00\x00\x00\x00")
        # Cached blob layout: ceil(k/4) word digests then 16 bytes of the
        # base digest -- a flat byte view both entry() and the numpy
        # batch path can slice without re-hashing.
        self._blob_words = 4 * ((k + 3) // 4)
        self._unpack_blob = struct.Struct(f"<{self._blob_words + 2}Q").unpack

    @classmethod
    def shared(cls, k: int, seed: int = 0) -> "DerivedHasher":
        """Return the process-wide hasher for the ``(k, seed)`` family.

        Sibling structures (an IBLT ``I`` and its receiver-built ``I'``,
        or a subtracted difference) share one hash family by protocol
        design; sharing the instance means each txid is digested once per
        family per process instead of once per structure.
        """
        hasher = cls._shared.get((k, seed))
        if hasher is None:
            # Bound the registry: decode-rate experiments spin up
            # thousands of one-shot families.  Evicting only forgets the
            # shared cache for that family; live structures keep their
            # hasher reference and stay correct.
            if len(cls._shared) >= 256:
                for stale in list(cls._shared)[:128]:
                    del cls._shared[stale]
            hasher = cls._shared[(k, seed)] = cls(k, seed)
        return hasher

    def entry(self, key: int) -> tuple:
        """Return ``(words, checksum_base)`` for ``key``, cached.

        ``words`` is the tuple of ``k`` 64-bit hash words driving index
        selection; ``checksum_base`` is the unmasked IBLT checksum value
        (mask to taste with ``& ((1 << bits) - 1)``).  Two SHA-256
        invocations on a miss, zero on a hit.
        """
        key &= _U64
        blob = self._cache.get(key)
        if blob is None:
            blob = self._make_blob(key)
        vals = self._unpack_blob(blob)
        # The reference derivation (ReferenceHasher.checksum) forces h2
        # odd first, but bit 0 is shifted out by >> 7, so the raw word
        # gives the identical checksum base.
        return vals[:self.k], vals[-2] ^ (vals[-1] >> 7)

    def _make_blob(self, key: int) -> bytes:
        """Digest ``key`` into the cached blob (word digests + base pair).

        Index words are independent SHA-256 slices (four per digest, a
        counter extending the stream for large ``k``) because deriving
        position ``i`` as ``h1 + i*h2`` (fine for Bloom filters) would
        make every IBLT edge an arithmetic progression, shrinking the
        effective edge space quadratically and creating spurious
        2-cores via birthday collisions.
        """
        packed = _PACK_Q(key)
        if self.k <= 4:
            # One digest covers up to four index words (counter 0,
            # first k of the four).
            h = self._mid_words.copy()
            h.update(packed)
            words_blob = h.digest()
        else:
            parts = []
            for counter in range((self.k + 3) // 4):
                parts.append(hashlib.sha256(
                    self._prefix + struct.pack("<I", counter)
                    + packed).digest())
            words_blob = b"".join(parts)
        h = self._mid_base.copy()
        h.update(packed)
        blob = words_blob + h.digest()[:16]
        cache = self._cache
        if len(cache) >= self._cache_cap:
            for stale in list(cache)[:self._cache_cap // 2]:
                del cache[stale]
        cache[key] = blob
        return blob

    def batch_entries(self, keys):
        """Vectorized :meth:`entry` over a key list.

        Returns ``(words, csums)`` -- a ``(len(keys), k)`` uint64 array of
        index words and a ``(len(keys),)`` uint64 array of unmasked
        checksum bases.  Keys must already be masked to 64 bits.  Misses
        are digested and cached exactly like :meth:`entry` misses.
        """
        # Whole-batch memo: a relay rebuilds I' from the identical key
        # list on every hop, so the concatenated blob repeats verbatim;
        # the tuple key is exact (no hashing shortcuts).
        tkey = tuple(keys)
        batch_cache = self._batch_cache
        blob = batch_cache.get(tkey)
        if blob is None:
            get = self._cache.get
            make = self._make_blob
            blob = b"".join([get(key) or make(key) for key in keys])
            if len(batch_cache) >= self.BATCH_CACHE_CAP:
                for stale in list(batch_cache)[:self.BATCH_CACHE_CAP // 2]:
                    del batch_cache[stale]
            batch_cache[tkey] = blob
        arr = _np.frombuffer(blob, dtype="<u8")
        arr = arr.reshape(len(keys), self._blob_words + 2)
        csums = arr[:, -2] ^ (arr[:, -1] >> _np.uint64(7))
        return arr[:, :self.k], csums

    def indices(self, key: int, modulus: int) -> list[int]:
        """Return ``k`` independent indices in ``[0, modulus)`` for ``key``."""
        return [w % modulus for w in self.entry(key)[0]]

    def partitioned_indices(self, key: int, cells: int) -> list[int]:
        """Return one index per partition for an IBLT with ``cells`` cells.

        The IBLT's cell array is split into ``k`` contiguous partitions of
        ``cells // k`` cells each and hash function ``i`` covers only
        partition ``i`` (paper 2.1), mirroring the k-partite hypergraph of
        section 4.1.
        """
        if cells % self.k != 0:
            raise ValueError(
                f"cell count {cells} not divisible by k={self.k}")
        width = cells // self.k
        return [
            i * width + (w % width)
            for i, w in enumerate(self.entry(key)[0])
        ]

    def checksum(self, key: int, bits: int = 16) -> int:
        """Return a ``bits``-bit checksum of ``key`` for IBLT cells."""
        return self.entry(key)[1] & ((1 << bits) - 1)

    def __repr__(self) -> str:
        return f"DerivedHasher(k={self.k}, seed={self.seed})"
