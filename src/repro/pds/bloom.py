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

A filter never re-hashes a transaction ID (section 6.3).  Whatever its
seed -- 0 is an ordinary seed -- it absorbs the four 64-bit words of the
ID through the keyed mixer (:func:`repro.utils.hashing.mix64`, starting
from the seed's salt) and derives the ``k`` indices from the two 32-bit
halves of the result by Kirsch-Mitzenmacher double hashing.  Different
seeds give S, R and F independent mistakes.

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
their list (digesting any item that is not 32 bytes, as the per-item
path does) and call it, at every length.  The mempool sweep of section
6.3 is therefore one vectorized pass over a buffer the mempool already
holds.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable

import numpy as _np

from repro.errors import ParameterError
from repro.utils.hashing import (
    family_salts, mix64, mix64_array, reduce_mod, sha256)
from repro.utils.memo import BoundedMemo

_LN2 = math.log(2.0)
_LN2_SQ = _LN2 * _LN2

_UNPACK_4Q = struct.Struct("<4Q").unpack

_U32 = 0xFFFFFFFF

#: Domain tag of the filter's salt (see ``family_salts``).
_SALT_TAG = b"graphene/bloom"

#: Finished ``(k, n)`` ``uint32`` bit-index matrices of packed sweeps,
#: keyed ``(seed, nbits, k, ids)`` with ``ids`` the packed 32-byte
#: rows.  A relay sweeps the *same* mempool snapshot through a
#: filter of the same geometry for every peer that announces the block,
#: so the matrix repeats sweep for sweep.  The matrix is a pure function
#: of exactly those bytes (rows are fixed-width, so no two row lists
#: share a key); a ``bytes`` key caches its own hash, so a reused
#: snapshot looks up in O(1), and equal content held by another object
#: still hits.  Bounded by the bytes its keys and matrices pin: the
#: budget holds a fan-out's eight 4 000-row mempools and eight S builds
#: (≈ 3 MiB).
_INDEX_MEMO = BoundedMemo(
    3 << 20, lambda key, steps: len(key[3]) + steps.nbytes)


def _pack(items: list) -> bytes:
    """``items`` as packed 32-byte rows, each item that is not 32 bytes
    replaced by its digest first, as :meth:`BloomFilter._indices` does."""
    joined = b"".join(items)
    # Sum and maximum together establish that *every* item is 32 bytes;
    # only then is the join a row buffer.
    if (len(joined) == 32 * len(items)
            and max(map(len, items), default=32) == 32):
        return joined
    return b"".join([item if len(item) == 32 else sha256(item)
                     for item in items])


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
        Selects the salt of the keyed hash family (any value, 0
        included), so that independent filters (S, R, F in the
        protocols) make independent mistakes.
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
        self._salt = family_salts(_SALT_TAG, seed, 1)[0]

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

    @classmethod
    def from_wire(cls, nbits: int, k: int, seed: int,
                  bits) -> "BloomFilter":
        """Rebuild a filter from its wire fields (docs/PROTOCOL.md 1.1).

        ``bits`` is the bit array, ``ceil(nbits / 8)`` bytes.  Neither
        the load nor the target FPR travels: ``count`` starts at 0 (a
        protocol message that carries the load restores it) and
        :attr:`target_fpr` is inferred from the geometry and the load.
        """
        filt = cls(nbits, k, seed=seed)
        if len(bits) != len(filt._bits):
            raise ParameterError(
                f"{nbits} bits take {len(filt._bits)} bytes, "
                f"got {len(bits)}")
        filt._bits[:] = bits
        filt._target_fpr = None
        return filt

    @property
    def target_fpr(self) -> float:
        """The FPR this filter was sized for (1.0 when degenerate).

        A filter off the wire (:meth:`from_wire`) infers it.  An
        optimally sized filter satisfies ``f = 2^-k``, which is all the
        geometry tells; once the load ``n`` is known, the sizing
        ``nbits = ceil(-n ln f / ln^2 2)`` inverts to
        ``f = exp(-nbits ln^2 2 / n)``, which refines that estimate.
        """
        if self._target_fpr is not None:
            return self._target_fpr
        if self.nbits == 0:
            return 1.0
        if self.count <= 0:
            return 0.5 ** self.k
        return math.exp(-self.nbits * _LN2_SQ / self.count)

    def _indices(self, item: bytes) -> list:
        """Return the ``k`` bit indices for ``item``."""
        if len(item) != 32:
            item = sha256(item)
        mixed = self._salt
        for word in _UNPACK_4Q(item):
            mixed = mix64(mixed ^ word)
        lo, hi = mixed & _U32, mixed >> 32 | 1
        k, nbits = self.k, self.nbits
        return [((lo + j * hi) & _U32) % nbits for j in range(k)]

    def _packed_indices(self, ids: bytes):
        """Return the ``(k, len(ids)/32)`` ``uint32`` bit-index matrix.

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
        memo_key = (self.seed, self.nbits, self.k, ids)
        steps = _INDEX_MEMO.lookup(memo_key)
        if steps is None:
            # The four ID words as one contiguous (4, n) copy, each row
            # absorbed into the one before it in place.
            words = _np.frombuffer(ids, dtype="<u8").reshape(-1, 4).T.copy()
            scratch = _np.empty_like(words[0])
            words[0] ^= _np.uint64(self._salt)
            mix64_array(words[0], out=words[0], scratch=scratch)
            for j in (1, 2, 3):
                words[j] ^= words[j - 1]
                mix64_array(words[j], out=words[j], scratch=scratch)
            halves = words[3].view("<u4")        # lo, hi, lo, hi, ...
            hi = halves[1::2] | _np.uint32(1)
            # u32 arithmetic wraps mod 2^32, the scalar path's ``& _U32``.
            steps = _np.multiply.outer(
                _np.arange(self.k, dtype=_np.uint32), hi)
            steps += halves[0::2]
            reduce_mod(steps, self.nbits)
            steps.flags.writeable = False   # shared by every later hit
            _INDEX_MEMO.remember(memo_key, steps)
        return steps

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
        if self.nbits:
            self.update_packed(_pack(list(items)))

    def update_packed(self, ids: bytes) -> None:
        """Insert every 32-byte row of ``ids`` (``bytes``, rows end to end).

        Bits are set one per byte in an unpacked copy of the filter,
        which is packed back: a plain scatter, where an in-place OR into
        shared bytes would need ``bitwise_or.at``.
        """
        if self.nbits == 0 or not ids:
            return
        idx = self._packed_indices(ids)
        bits = _np.frombuffer(self._bits, dtype=_np.uint8)
        unpacked = _np.unpackbits(bits, bitorder="little")
        unpacked[idx] = 1
        bits[:] = _np.packbits(unpacked, bitorder="little")
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
        return self.contains_packed(_pack(list(items))).tolist()

    def contains_packed(self, ids: bytes):
        """Membership of every 32-byte row of ``ids``, as a bool array.

        The sweep of Graphene 6.3 -- a whole mempool through S -- reads
        the mempool's own ID buffer (``mempool.columns().ids``) and
        returns a fresh, writable mask with one entry per row.

        O(k n) in time and memory whatever the filter's size.  A filter
        with no more bits than 8 per index -- every sweep a relay makes
        -- is unpacked to a byte per bit and each index reads its byte
        (2 000 rows through S on a memo hit: 34 us, against 52 for the
        general form).  A larger one, such as an oversized S off the
        wire, is never unpacked: each index gathers its byte
        (``idx >> 3``) and shifts its bit (``idx & 7``) down to bit 0.
        """
        if self.nbits == 0:
            return _np.ones(len(ids) // 32, dtype=bool)
        if not ids:
            return _np.zeros(0, dtype=bool)
        idx = self._packed_indices(ids)
        bits = _np.frombuffer(self._bits, dtype=_np.uint8)
        if self.nbits <= 8 * idx.size:
            return _np.unpackbits(bits, bitorder="little").take(idx).all(
                axis=0)
        held = bits.take(idx >> 3)
        held >>= _np.bitwise_and(idx, _np.uint32(7), dtype=_np.uint8,
                                 casting="unsafe")
        held = _np.bitwise_and.reduce(held, axis=0)
        held &= _np.uint8(1)
        return held.view(bool)

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
