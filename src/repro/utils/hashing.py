"""Hashing helpers used by every probabilistic data structure in the package.

Transaction IDs are already the output of a cryptographic hash (paper
6.3), so no structure hashes them again item by item.  One idiom,
**keyed mixing**, serves every structure (each filter and table, of
any seed, 0 included): it passes the ID, 64 bits at a time, through one
bijective multiply-xorshift finalizer, :func:`mix64`, keyed by XORing
a per-family *salt* into the input.  Salts come from SHA-256 over
``(domain tag, seed, index)`` -- once per family, never per item
(:func:`family_salts`).  :func:`mix64` (Python ints) and
:func:`mix64_array` (numpy ``uint64``) are bit-identical.
:class:`DerivedHasher` packages ``k`` independently salted index words
plus a checksum word for the IBLT and the rateless IBLT; different
seeds give different salts and therefore (statistically) independent
families, which ping-pong decoding requires of its two IBLTs (paper
4.2).

Nothing here is secret: seeds are public configuration, so the salts
buy independence between structures, not unpredictability.  Collision
resistance against an adversary is the short-ID layer's job (the
SipHash option), not this module's.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as _np

_U64 = 0xFFFFFFFFFFFFFFFF

_PACK_Q = struct.Struct("<Q").pack
_PACK_I = struct.Struct("<I").pack

#: Multipliers and shifts of the splitmix64 finalizer (Steele, Lea &
#: Flood's SplittableRandom output function); pinned by PROTOCOL.md 1.2.
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB
_NP_C1, _NP_C2 = _np.uint64(_MIX_C1), _np.uint64(_MIX_C2)
_NP_30, _NP_27, _NP_31 = _np.uint64(30), _np.uint64(27), _np.uint64(31)


def mix64(z: int) -> int:
    """Mix one 64-bit word: a bijection with full avalanche.

    ``mix64(x ^ salt)`` is the keyed hash every structure uses.
    """
    z = ((z ^ (z >> 30)) * _MIX_C1) & _U64
    z = ((z ^ (z >> 27)) * _MIX_C2) & _U64
    return z ^ (z >> 31)


def mix64_array(z, out=None, scratch=None):
    """:func:`mix64` over a numpy ``uint64`` array, element for element.

    Writes into ``out`` -- a fresh array by default; pass ``z`` itself to
    mix in place -- and takes all three shifts through one ``scratch``
    buffer of ``z``'s shape (allocated when not given), so a caller
    mixing several rows in turn allocates nothing per row.  Array
    multiplication wraps mod 2^64, which is exactly the ``& _U64`` of the
    scalar body.
    """
    if scratch is None:
        scratch = _np.empty_like(z)
    _np.right_shift(z, _NP_30, out=scratch)
    out = _np.bitwise_xor(z, scratch, out=out)
    out *= _NP_C1
    _np.right_shift(out, _NP_27, out=scratch)
    out ^= scratch
    out *= _NP_C2
    _np.right_shift(out, _NP_31, out=scratch)
    out ^= scratch
    return out


def reduce_mod(words, modulus: int) -> None:
    """``words %= modulus`` in place, for an unsigned integer array.

    Through ``floor_divide``: numpy divides an integer array by a scalar
    with libdivide (a multiply and a shift), where ``%`` takes a
    hardware divide per element -- a third of the time over 28 000
    ``uint32`` words, half over 10 000 ``uint64`` ones.
    """
    modulus = words.dtype.type(modulus)
    quotient = _np.floor_divide(words, modulus)
    quotient *= modulus
    words -= quotient


def family_salts(tag: bytes, seed: int, count: int) -> tuple:
    """Return the first ``count`` 64-bit salts of family ``(tag, seed)``.

    Salts are hash-split, four to a digest: salt ``i`` is little-endian
    u64 word ``i mod 4`` of ``SHA256(tag | seed_u64 | (i div 4)_u32)``.
    This is the only place a structure touches SHA-256: per
    family, not per item.
    """
    prefix = tag + _PACK_Q(seed & _U64)
    blob = b"".join([hashlib.sha256(prefix + _PACK_I(block)).digest()
                     for block in range((count + 3) // 4)])
    return struct.unpack_from(f"<{count}Q", blob)


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


class DerivedHasher:
    """A family of ``k`` hash functions plus a checksum over 64-bit keys.

    Index word ``i`` of key ``x`` is ``mix64(x ^ salt_i)`` and the
    checksum word is ``mix64(x ^ salt_k)``, with ``salt_0..salt_k`` the
    :func:`family_salts` of ``(b"graphene/hasher", seed)``.  The words
    are independently salted, not an arithmetic progression: deriving
    position ``i`` as ``h1 + i*h2`` (fine for Bloom filters) would make
    every IBLT edge a progression, shrinking the effective edge space
    quadratically and creating spurious 2-cores via birthday
    collisions.

    Each instance is deterministic given ``(seed, k)`` and holds nothing
    but its salts, so constructing one per structure is free of shared
    state.
    """

    __slots__ = ("seed", "k", "_salts", "_salt_column")

    #: Domain tag separating this family from the Bloom filter's.
    TAG = b"graphene/hasher"

    def __init__(self, k: int, seed: int = 0):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.seed = seed
        self._salts = family_salts(self.TAG, seed, k + 1)
        #: The same salts as a ``(k + 1, 1)`` ``uint64`` column, which
        #: broadcasts against a key row in :meth:`batch_entries`.
        self._salt_column = _np.array(self._salts, dtype=_np.uint64)[:, None]

    def entry(self, key: int) -> tuple:
        """Return ``(words, checksum_base)`` for ``key``.

        ``words`` is the tuple of ``k`` 64-bit hash words driving index
        selection; ``checksum_base`` is the unmasked IBLT checksum value
        (mask to taste with ``& ((1 << bits) - 1)``).
        """
        key &= _U64
        mixed = [mix64(key ^ salt) for salt in self._salts]
        return tuple(mixed[:-1]), mixed[-1]

    def batch_entries(self, keys):
        """Vectorized :meth:`entry` over a key list or uint64 array.

        Returns ``(words, csums)`` -- a ``(len(keys), k)`` uint64 array of
        index words and a ``(len(keys),)`` uint64 array of unmasked
        checksum bases.  Keys must already be masked to 64 bits.  Both
        are views of one ``(k + 1, len(keys))`` matrix, mixed in place
        one salt to a row, so ``words.T`` is C-contiguous.
        """
        mixed = _np.asarray(keys, dtype=_np.uint64) ^ self._salt_column
        mix64_array(mixed, out=mixed)
        return mixed[:self.k].T, mixed[self.k]

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
