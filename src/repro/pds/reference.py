"""Scalar specification of the PDS hot path (reference only).

The live :mod:`repro.pds.iblt` / :mod:`repro.pds.bloom` structures are
columnar and batch-first; these classes are the same structures written
one object, one probe, one hash derivation at a time, straight from
docs/PROTOCOL.md sections 1.1 and 1.2.  Nothing is cached and nothing is
shared with :mod:`repro.utils.hashing` beyond SHA-256: the mixing kernel
and the salt derivation are written out again here, so a slip in either
copy shows up as a byte difference.
They exist for two reasons:

* **Equivalence testing** -- property tests, the golden vectors and the
  fuzz ``pds`` engine assert the live structures produce byte-identical
  wire encodings and identical decode results against these references.
* **Perf trajectory** -- ``benchmarks/bench_perf_pds.py`` times both
  implementations on the same machine in the same process, so the
  speedups recorded in ``BENCH_PDS.json`` are honest on any hardware
  rather than replayed from a one-off measurement.

Do not use these classes outside tests and benchmarks: they are
deliberately slow.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Iterable

from repro.errors import MalformedIBLTError, ParameterError
from repro.utils.hashing import sha256

_U64 = 0xFFFFFFFFFFFFFFFF
_U32 = 0xFFFFFFFF


def _mix(z: int) -> int:
    """The splitmix64 finalizer (PROTOCOL.md 1.2)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def _salt(tag: bytes, seed: int, index: int) -> int:
    """Salt ``index`` of family ``(tag, seed)``, derived afresh per call."""
    digest = hashlib.sha256(
        tag + struct.pack("<QI", seed & _U64, index // 4)).digest()
    return struct.unpack("<4Q", digest)[index % 4]


class ReferenceHasher:
    """Scalar ``DerivedHasher``: every word re-derived per call, no state."""

    __slots__ = ("seed", "k")

    def __init__(self, k: int, seed: int = 0):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.seed = seed

    def _word(self, key: int, index: int) -> int:
        return _mix((key & _U64) ^ _salt(b"graphene/hasher", self.seed, index))

    def partitioned_indices(self, key: int, cells: int) -> list[int]:
        if cells % self.k != 0:
            raise ValueError(f"cell count {cells} not divisible by k={self.k}")
        width = cells // self.k
        return [i * width + self._word(key, i) % width
                for i in range(self.k)]

    def checksum(self, key: int, bits: int = 16) -> int:
        return self._word(key, self.k) & ((1 << bits) - 1)


@dataclass
class ReferenceCell:
    """Reference IBLT cell: one dataclass object per cell."""

    count: int = 0
    key_sum: int = 0
    check_sum: int = 0

    def is_empty(self) -> bool:
        return self.count == 0 and self.key_sum == 0 and self.check_sum == 0


@dataclass(frozen=True)
class ReferenceDecodeResult:
    complete: bool
    local: frozenset
    remote: frozenset


class ReferenceIBLT:
    """Scalar IBLT: ``list[ReferenceCell]`` table, clone-then-peel decode."""

    def __init__(self, cells: int, k: int = 4, seed: int = 0,
                 cell_bytes: int = 12):
        if cells < 1:
            raise ParameterError(f"cells must be >= 1, got {cells}")
        if k < 2:
            raise ParameterError(f"k must be >= 2, got {k}")
        if cells % k:
            cells += k - cells % k
        self.cells = cells
        self.k = k
        self.seed = seed
        self.cell_bytes = cell_bytes
        self.hasher = ReferenceHasher(k, seed=seed)
        self._table = [ReferenceCell() for _ in range(cells)]
        self.count = 0

    def _apply(self, key: int, delta: int) -> None:
        key &= _U64
        csum = self.hasher.checksum(key)
        for idx in self.hasher.partitioned_indices(key, self.cells):
            cell = self._table[idx]
            cell.count += delta
            cell.key_sum ^= key
            cell.check_sum ^= csum

    def insert(self, key: int) -> None:
        self._apply(key, +1)
        self.count += 1

    def update(self, keys: Iterable[int]) -> None:
        for key in keys:
            self.insert(key)

    @classmethod
    def from_keys(cls, keys: Iterable[int], cells: int, k: int = 4,
                  seed: int = 0, cell_bytes: int = 12) -> "ReferenceIBLT":
        iblt = cls(cells, k=k, seed=seed, cell_bytes=cell_bytes)
        iblt.update(keys)
        return iblt

    def copy(self) -> "ReferenceIBLT":
        clone = ReferenceIBLT(self.cells, k=self.k, seed=self.seed,
                              cell_bytes=self.cell_bytes)
        for mine, theirs in zip(clone._table, self._table):
            mine.count = theirs.count
            mine.key_sum = theirs.key_sum
            mine.check_sum = theirs.check_sum
        clone.count = self.count
        return clone

    def subtract(self, other: "ReferenceIBLT") -> "ReferenceIBLT":
        if (self.cells, self.k, self.seed) != (other.cells, other.k,
                                               other.seed):
            raise ParameterError("incompatible reference IBLTs")
        diff = ReferenceIBLT(self.cells, k=self.k, seed=self.seed,
                             cell_bytes=self.cell_bytes)
        for out, a, b in zip(diff._table, self._table, other._table):
            out.count = a.count - b.count
            out.key_sum = a.key_sum ^ b.key_sum
            out.check_sum = a.check_sum ^ b.check_sum
        diff.count = self.count - other.count
        return diff

    def _is_pure(self, cell: ReferenceCell) -> bool:
        return (cell.count in (1, -1)
                and self.hasher.checksum(cell.key_sum) == cell.check_sum)

    def decode(self) -> ReferenceDecodeResult:
        scratch = self.copy()
        local: set = set()
        remote: set = set()
        stack = [i for i, cell in enumerate(scratch._table)
                 if scratch._is_pure(cell)]
        while stack:
            idx = stack.pop()
            cell = scratch._table[idx]
            if not scratch._is_pure(cell):
                continue
            key = cell.key_sum
            sign = cell.count
            if key in local or key in remote:
                raise MalformedIBLTError(
                    f"key {key:#x} decoded twice; IBLT is malformed")
            (local if sign == 1 else remote).add(key)
            scratch._apply(key, -sign)
            for nxt in scratch.hasher.partitioned_indices(key, scratch.cells):
                if scratch._is_pure(scratch._table[nxt]):
                    stack.append(nxt)
        complete = all(cell.is_empty() for cell in scratch._table)
        return ReferenceDecodeResult(complete, frozenset(local),
                                     frozenset(remote))


def encode_reference_iblt(iblt: ReferenceIBLT) -> bytes:
    """Per-cell wire encoding, layout of :func:`repro.codec.encode_iblt`."""
    check_width = iblt.cell_bytes - 10
    if check_width < 1 or check_width > 8:
        raise ParameterError(f"cell_bytes={iblt.cell_bytes} not encodable")
    check_mask = (1 << (8 * check_width)) - 1
    parts = [struct.pack("<IBIBH", iblt.cells, iblt.k, iblt.seed & _U32,
                         iblt.cell_bytes, 0)]
    for cell in iblt._table:
        parts.append(struct.pack("<hQ", cell.count, cell.key_sum))
        parts.append((cell.check_sum & check_mask)
                     .to_bytes(check_width, "little"))
    return b"".join(parts)


class ReferenceBloomFilter:
    """Reference Bloom filter: re-derives every index on every probe."""

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

    @classmethod
    def from_fpr(cls, n: int, fpr: float,
                 seed: int = 0) -> "ReferenceBloomFilter":
        if fpr >= 1.0 or n == 0:
            return cls(0, 1, seed=seed)
        ln2 = math.log(2.0)
        nbits = max(1, math.ceil(-n * math.log(fpr) / (ln2 * ln2)))
        k = max(1, round(nbits / n * ln2))
        return cls(nbits, k, seed=seed)

    def _indices(self, item: bytes) -> list[int]:
        if len(item) != 32:
            item = sha256(item)
        mixed = _salt(b"graphene/bloom", self.seed, 0)
        for word in struct.unpack("<4Q", item):
            mixed = _mix(mixed ^ word)
        lo, hi = mixed & _U32, (mixed >> 32) | 1
        return [((lo + j * hi) & _U32) % self.nbits for j in range(self.k)]

    def insert(self, item: bytes) -> None:
        self.count += 1
        if self.nbits == 0:
            return
        for idx in self._indices(item):
            self._bits[idx >> 3] |= 1 << (idx & 7)

    def __contains__(self, item: bytes) -> bool:
        if self.nbits == 0:
            return True
        return all(self._bits[idx >> 3] & (1 << (idx & 7))
                   for idx in self._indices(item))


def encode_reference_bloom(bloom: ReferenceBloomFilter) -> bytes:
    """Wire encoding, layout of :func:`repro.codec.encode_bloom`."""
    header = struct.pack("<IBI", bloom.nbits, bloom.k, bloom.seed & _U32)
    return header + bytes(bloom._bits)
