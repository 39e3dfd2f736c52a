"""A from-scratch Invertible Bloom Lookup Table (IBLT).

Follows the construction of Goodrich & Mitzenmacher as summarized in
section 2.1 of the paper:

* ``c`` cells partitioned into ``k`` contiguous ranges of ``c/k`` cells;
  each item is inserted once per partition at an index chosen by that
  partition's hash function (this is the k-partite hypergraph view of
  section 4.1).
* Each cell stores a signed ``count``, the xor of all inserted keys
  (``keySum``) and the xor of a per-key checksum (``checkSum``).  The
  checksum catches the "x values minus a non-subset of x-1 values"
  special case the paper describes.
* Two IBLTs with identical ``(c, k, seed)`` can be subtracted cell-wise;
  peeling the result recovers the symmetric difference of the inserted
  sets, or fails partially if the difference exceeds what ``c`` supports.

Keys are 64-bit integers -- the 8-byte short transaction IDs that
Graphene stores in its IBLTs.  :meth:`IBLT.update` takes them as a
``uint64`` array (the short-ID column of a
:class:`repro.chain.columns.TxColumns`, folded by the one batch kernel)
or as any iterable of ints, which it packs into such a column first.

Storage is columnar: three flat parallel arrays (``array('q')`` counts,
``array('Q')`` keySums, ``array('Q')`` checkSums) instead of a list of
cell objects.  ``subtract`` combines whole columns through numpy views
of the arrays, ``copy`` is three C-level memcpys, emptiness is a memcmp
against zeros, and ``decode`` peels on scratch columns with a worklist
of candidate pure cells rather than cloning a cell-object table -- once
per distinct table per process, since the result is memoized.  Cell
positions and checksums are the keyed mixes of
:class:`~repro.utils.hashing.DerivedHasher` -- a handful of integer
multiplies per key, no SHA-256 and no per-key cache; the scalar
specification of both is :mod:`repro.pds.reference`.

The decode loop includes the section 6.1 mitigation for adversarially
malformed IBLTs: if the same key is peeled twice, decoding halts with
:class:`~repro.errors.MalformedIBLTError` instead of looping forever.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as _np

from repro.errors import MalformedIBLTError, ParameterError
from repro.utils.hashing import DerivedHasher, reduce_mod
from repro.utils.memo import BoundedMemo

_U64 = 0xFFFFFFFFFFFFFFFF

#: From this many keys up, and while cell indices fit in ``uint16``, a
#: fold scatters by sorting (:func:`scatter`); below it ``bincount`` plus
#: ``bitwise_xor.at`` wins on fixed cost.  Measured with the caches
#: stirred between calls as a relay stirs them, k = 4-7, the sort costs
#: +15 us against ``.at`` at 200 keys, +4 at 400, -10 at 600, -52 at
#: 1 000 and -139 at 2 000.
_SCATTER_MIN = 500

#: Default serialized cell width in bytes: 2 (count) + 8 (keySum) + 2 (checkSum).
DEFAULT_CELL_BYTES = 12

#: Folded-column snapshots for whole-batch :meth:`IBLT.update` calls on
#: pristine tables, keyed ``(cells, k, seed, column.tobytes())`` -- the
#: fold is a pure function of exactly those bytes.  Bounded by the bytes
#: its keys and columns pin.
_FOLD_CACHE = BoundedMemo(
    1 << 18, lambda key, columns: len(key[3]) + 8 * sum(map(len, columns)))

#: What one recovered key pins in a held :class:`DecodeResult`: the
#: ``int`` and its ``frozenset`` slot.
_RECOVERED_KEY_BYTES = 64

#: Peeled tables, keyed ``(cells, k, seed, counts | key_sums |
#: check_sums bytes)`` -- the peel is a pure function of exactly those,
#: and its result is frozen.  Every receiver of one block whose
#: candidate set is equal peels an equal difference I - I'.  Bounded by
#: the key bytes plus ``_RECOVERED_KEY_BYTES`` per recovered key; a
#: table whose peel raises is never held.
_DECODE_CACHE = BoundedMemo(
    1 << 18, lambda key, result: len(key[3]) + _RECOVERED_KEY_BYTES * (
        len(result.local) + len(result.remote)))

#: Fixed per-IBLT wire header, 12 bytes:
#: ``cells u32 | k u8 | seed u32 | cell_bytes u8 | pad u16``
#: (see :func:`repro.codec.encode_iblt` and docs/PROTOCOL.md section 1.2).
IBLT_HEADER_BYTES = 12


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of peeling a (possibly subtracted) IBLT.

    Attributes
    ----------
    complete:
        True when every cell emptied -- the full symmetric difference was
        recovered.
    local:
        Keys present only in the left operand (cells with count +1).
    remote:
        Keys present only in the right operand (cells with count -1).
    """

    complete: bool
    local: frozenset = field(default_factory=frozenset)
    remote: frozenset = field(default_factory=frozenset)

    def __iter__(self) -> Iterator:
        # Allow ``complete, local, remote = iblt.decode()`` unpacking.
        return iter((self.complete, self.local, self.remote))


class IBLT:
    """Invertible Bloom Lookup Table over 64-bit keys.

    Parameters
    ----------
    cells:
        Total number of cells.  Rounded up to a multiple of ``k``.
    k:
        Number of hash functions / partitions.
    seed:
        Seed of the hash family.  Sibling IBLTs intended for ping-pong
        decoding must use *different* seeds (paper 4.2).
    cell_bytes:
        Serialized width of one cell, for wire-size accounting.
    """

    __slots__ = ("cells", "k", "seed", "cell_bytes", "_hasher",
                 "_counts", "_key_sums", "_check_sums", "count",
                 "_pristine")

    def __init__(self, cells: int, k: int = 4, seed: int = 0,
                 cell_bytes: int = DEFAULT_CELL_BYTES):
        if cells < 0:
            raise ParameterError(f"cells must be >= 0, got {cells}")
        if k < 2:
            raise ParameterError(f"k must be >= 2, got {k}")
        if cell_bytes < 1:
            raise ParameterError(f"cell_bytes must be >= 1, got {cell_bytes}")
        # Round up so the cell array divides evenly into k partitions.
        # A 0-cell table is allowed to exist (a degenerate sizing input
        # must fail a *decode*, not crash construction) but can never
        # hold keys and never reports a complete decode.
        if cells % k:
            cells += k - cells % k
        self.cells = cells
        self.k = k
        self.seed = seed
        self.cell_bytes = cell_bytes
        #: Built on first use: a table that is only subtracted, copied
        #: or put on the wire never derives its salts.
        self._hasher = None
        self._counts = array("q", bytes(8 * cells))
        self._key_sums = array("Q", bytes(8 * cells))
        self._check_sums = array("Q", bytes(8 * cells))
        self.count = 0
        #: True while the columns are untouched since construction; the
        #: guard for the whole-batch fold cache in :meth:`update`.  Every
        #: method that writes the columns clears it; nothing outside
        #: this class writes them.
        self._pristine = True

    @property
    def hasher(self) -> DerivedHasher:
        """The ``(k, seed)`` hash family placing keys in this table."""
        if self._hasher is None:
            self._hasher = DerivedHasher(self.k, self.seed)
        return self._hasher

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------

    def _apply(self, key: int, delta: int) -> None:
        if not self.cells:
            raise ParameterError("cannot store keys in a 0-cell IBLT")
        key &= _U64
        self._pristine = False
        words, csum = self.hasher.entry(key)
        csum &= 0xFFFF
        width = self.cells // self.k
        counts, key_sums, check_sums = \
            self._counts, self._key_sums, self._check_sums
        base = 0
        for w in words:
            idx = base + w % width
            counts[idx] += delta
            key_sums[idx] ^= key
            check_sums[idx] ^= csum
            base += width

    def insert(self, key: int) -> None:
        """Insert a 64-bit key."""
        self._apply(key, +1)
        self.count += 1

    def erase(self, key: int) -> None:
        """Remove a key previously inserted (or force a count of -1)."""
        self._apply(key, -1)
        self.count -= 1

    def update(self, keys) -> None:
        """Insert every key of ``keys``: an iterable or a ``uint64`` array.

        The array form is the packed entry point (a short-ID column,
        :meth:`repro.chain.columns.TxColumns.short_ids`); any other
        iterable is masked to 64 bits and packed into one.  Every batch,
        whatever its length, takes the one vectorized fold; cell updates
        are adds and xors, which commute, so the columns equal those of
        the same keys inserted one at a time.
        """
        if not isinstance(keys, _np.ndarray):
            keys = [key & _U64 for key in keys]
        if not len(keys):
            return
        if not self.cells:
            raise ParameterError("cannot store keys in a 0-cell IBLT")
        self._fold_column(_np.asarray(keys, dtype=_np.uint64))
        self.count += len(keys)
        self._pristine = False

    def _fold_column(self, column) -> None:
        """Fold a uint64 key column into the table through numpy views.

        The one batch kernel: one vectorized mix via
        :meth:`DerivedHasher.batch_entries`, each word reduced to its
        partition in place, then the three columns are updated wholesale
        -- by :func:`scatter` where the batch is large enough, else by
        ``bincount`` for counts and ``bitwise_xor.at`` for the sums
        (``_SCATTER_MIN``).  Both give the same columns: every update
        is an add or an xor, which commute.

        Whole-batch fold memo: a receiver rebuilds I' from the identical
        short-ID column on every relay of a block, so the folded columns
        repeat verbatim.  Keyed by geometry + the column's exact bytes;
        only pristine (all-zero) tables can take or leave the snapshot,
        since the fold starts from zero.
        """
        fkey = None
        if self._pristine:
            fkey = (self.cells, self.k, self.seed, column.tobytes())
            snap = _FOLD_CACHE.lookup(fkey)
            if snap is not None:
                self._counts[:] = snap[0]
                self._key_sums[:] = snap[1]
                self._check_sums[:] = snap[2]
                return
        k, cells = self.k, self.cells
        width = cells // k
        words, csums = self.hasher.batch_entries(column)
        csums &= _np.uint64(0xFFFF)
        idx = words.T                      # (k, n), C-contiguous
        reduce_mod(idx, width)
        columns = (self._counts, self._key_sums, self._check_sums)
        if column.size >= _SCATTER_MIN and cells <= 0x10000:
            rel = idx.astype(_np.uint16)
            rel += _np.arange(0, cells, width, dtype=_np.uint16)[:, None]
            scatter(columns, rel.ravel(), _tile(_np.arange(column.size), k),
                    column, csums)
        else:
            idx += _np.arange(0, cells, width, dtype=_np.uint64)[:, None]
            idx = idx.ravel().astype(_np.intp)
            counts = _np.frombuffer(self._counts, dtype=_np.int64)
            counts += _np.bincount(idx, minlength=cells)
            _np.bitwise_xor.at(
                _np.frombuffer(self._key_sums, dtype=_np.uint64), idx,
                _tile(column, k))
            _np.bitwise_xor.at(
                _np.frombuffer(self._check_sums, dtype=_np.uint64), idx,
                _tile(csums, k))
        if fkey is not None:
            _FOLD_CACHE.remember(fkey, tuple(array(col.typecode, col)
                                             for col in columns))

    @classmethod
    def from_wire(cls, cells: int, k: int, seed: int, cell_bytes: int,
                  counts, key_sums, check_sums) -> "IBLT":
        """Rebuild a table from its wire fields (docs/PROTOCOL.md 1.2).

        ``counts``, ``key_sums`` and ``check_sums`` are the three cell
        columns, ``cells`` values each, in any form numpy reads (the
        codec passes the arrays it parsed); they are copied in.
        """
        iblt = cls(cells, k=k, seed=seed, cell_bytes=cell_bytes)
        _np.frombuffer(iblt._counts, dtype=_np.int64)[:] = counts
        _np.frombuffer(iblt._key_sums, dtype=_np.uint64)[:] = key_sums
        _np.frombuffer(iblt._check_sums, dtype=_np.uint64)[:] = check_sums
        iblt._pristine = False
        return iblt

    @classmethod
    def from_keys(cls, keys: Iterable[int], cells: int, k: int = 4,
                  seed: int = 0, cell_bytes: int = DEFAULT_CELL_BYTES) -> "IBLT":
        """Build an IBLT containing ``keys``."""
        iblt = cls(cells, k=k, seed=seed, cell_bytes=cell_bytes)
        iblt.update(keys)
        return iblt

    def copy(self) -> "IBLT":
        """Return a deep copy (three column memcpys)."""
        clone = IBLT(self.cells, k=self.k, seed=self.seed,
                     cell_bytes=self.cell_bytes)
        clone._counts[:] = self._counts
        clone._key_sums[:] = self._key_sums
        clone._check_sums[:] = self._check_sums
        clone.count = self.count
        clone._pristine = False
        clone._hasher = self._hasher
        return clone

    # ------------------------------------------------------------------
    # Set reconciliation
    # ------------------------------------------------------------------

    def compatible_with(self, other: "IBLT") -> bool:
        """True when ``other`` can be subtracted from this IBLT."""
        return (self.cells == other.cells and self.k == other.k
                and self.seed == other.seed)

    def subtract(self, other: "IBLT") -> "IBLT":
        """Return the cell-wise difference ``self (-) other``.

        Peeling the result recovers keys unique to ``self`` with count +1
        and keys unique to ``other`` with count -1.
        """
        if not self.compatible_with(other):
            raise ParameterError(
                "IBLTs must share (cells, k, seed) to be subtracted: "
                f"({self.cells},{self.k},{self.seed}) vs "
                f"({other.cells},{other.k},{other.seed})")
        diff = IBLT(self.cells, k=self.k, seed=self.seed,
                    cell_bytes=self.cell_bytes)
        _np.subtract(_np.frombuffer(self._counts, dtype=_np.int64),
                     _np.frombuffer(other._counts, dtype=_np.int64),
                     out=_np.frombuffer(diff._counts, dtype=_np.int64))
        diff._key_sums = _xor_column(self._key_sums, other._key_sums)
        diff._check_sums = _xor_column(self._check_sums, other._check_sums)
        diff.count = self.count - other.count
        diff._pristine = False
        diff._hasher = self._hasher or other._hasher  # one family
        return diff

    def __sub__(self, other: "IBLT") -> "IBLT":
        return self.subtract(other)

    def peel(self, key: int, sign: int) -> None:
        """Remove a key known (from elsewhere) to be in this difference.

        Used by ping-pong decoding (paper 4.2): items recovered from a
        sibling IBLT are peeled out of this one before retrying.  ``sign``
        is +1 for a local-only key, -1 for a remote-only key.
        """
        if sign not in (1, -1):
            raise ParameterError(f"sign must be +1 or -1, got {sign}")
        self._apply(key, -sign)

    def decode(self) -> DecodeResult:
        """Peel this IBLT, returning the recovered symmetric difference.

        Non-destructive: peeling operates on scratch copies of the three
        columns.  Raises :class:`MalformedIBLTError` when the same key is
        recovered twice, the section 6.1 defence against adversarial
        endless-loop IBLTs.

        A 0-cell table reports a clean decode *failure*: with no cells
        there is no evidence the difference is empty, and the all-zero
        "complete" answer would be a silently wrong set.

        Each table is peeled once per process: the result is held in
        ``_DECODE_CACHE`` under the table's shape, seed and cell bytes,
        and :meth:`_peel_uncached` runs only on a miss.
        """
        if not self.cells:
            return DecodeResult(False)
        dkey = (self.cells, self.k, self.seed, b"".join(
            (self._counts, self._key_sums, self._check_sums)))
        result = _DECODE_CACHE.lookup(dkey)
        if result is None:
            result = self._peel_uncached()
            _DECODE_CACHE.remember(dkey, result)
        return result

    def _peel_uncached(self) -> DecodeResult:
        """The peel behind :meth:`decode`, past its memo (cells > 0)."""
        counts = array("q", self._counts)
        key_sums = array("Q", self._key_sums)
        check_sums = array("Q", self._check_sums)
        entry = self.hasher.entry
        width = self.cells // self.k
        local: set = set()
        remote: set = set()
        stack = [i for i in range(self.cells) if counts[i] in (1, -1)]
        while stack:
            idx = stack.pop()
            sign = counts[idx]
            if sign not in (1, -1):
                continue
            key = key_sums[idx]
            words, csum = entry(key)
            if csum & 0xFFFF != check_sums[idx]:
                continue
            if key in local or key in remote:
                raise MalformedIBLTError(
                    f"key {key:#x} decoded twice; IBLT is malformed")
            (local if sign == 1 else remote).add(key)
            csum &= 0xFFFF
            base = 0
            for w in words:
                nxt = base + w % width
                counts[nxt] -= sign
                key_sums[nxt] ^= key
                check_sums[nxt] ^= csum
                base += width
                if counts[nxt] in (1, -1):
                    stack.append(nxt)
        zeros = bytes(8 * self.cells)
        complete = (counts.tobytes() == zeros
                    and key_sums.tobytes() == zeros
                    and check_sums.tobytes() == zeros)
        return DecodeResult(complete, frozenset(local), frozenset(remote))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def xor_cell(self, idx: int, key: int, delta: int) -> None:
        """Fold ``key`` (with checksum) into the single cell ``idx``.

        This is *not* a normal insertion -- it touches one cell instead of
        ``k`` -- and exists so attack constructions (paper 6.1 malformed
        IBLTs) and white-box tests can build inconsistent tables.
        """
        key &= _U64
        self._pristine = False
        self._counts[idx] += delta
        self._key_sums[idx] ^= key
        self._check_sums[idx] ^= self.hasher.checksum(key)

    def serialized_size(self) -> int:
        """Wire size in bytes: header plus ``cells * cell_bytes``."""
        return IBLT_HEADER_BYTES + self.cells * self.cell_bytes

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (f"IBLT(cells={self.cells}, k={self.k}, seed={self.seed}, "
                f"count={self.count})")


def scatter(columns, cells, rows, keys, csums, offset: int = 0) -> None:
    """Fold hits into a table's ``(counts, key_sums, check_sums)``.

    Hit ``i`` adds one to the count of cell ``offset + cells[i]`` and
    xors ``keys[rows[i]]`` and ``csums[rows[i]]`` into its sums.  The
    one scatter of the IBLT fold and the rateless encoder: a stable
    ``argsort`` of ``cells`` (numpy's radix sort for ``uint16``) puts
    each cell's hits in one run, ``diff`` of the run starts gives the
    counts and ``bitwise_xor.reduceat`` both sums -- where
    ``bitwise_xor.at`` would walk the hits one by one, slowest when many
    share few cells.
    """
    counts, key_sums, check_sums = columns
    order = _np.argsort(cells, kind="stable")
    cells = cells[order]
    src = rows[order]
    edge = _np.ones(cells.size + 1, dtype=bool)
    _np.not_equal(cells[1:], cells[:-1], out=edge[1:-1])
    runs = _np.flatnonzero(edge)
    starts = runs[:-1]
    at = cells[starts].astype(_np.intp)
    at += offset
    _np.frombuffer(counts, dtype=_np.int64)[at] += _np.diff(runs)
    _np.frombuffer(key_sums, dtype=_np.uint64)[at] ^= \
        _np.bitwise_xor.reduceat(keys[src], starts)
    _np.frombuffer(check_sums, dtype=_np.uint64)[at] ^= \
        _np.bitwise_xor.reduceat(csums[src], starts)


def _tile(row, k: int):
    """``np.tile(row, k)`` for a 1-D array, minus the Python-level
    overhead of ``np.tile`` (≈ 2.5 us a call)."""
    return row[None, :].repeat(k, axis=0).ravel()


def _xor_column(a: array, b: array) -> array:
    """Element-wise XOR of two equal-shape unsigned columns."""
    out = array("Q", bytes(8 * len(a)))
    _np.bitwise_xor(_np.frombuffer(a, dtype=_np.uint64),
                    _np.frombuffer(b, dtype=_np.uint64),
                    out=_np.frombuffer(out, dtype=_np.uint64))
    return out
