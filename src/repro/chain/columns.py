"""Columnar snapshots of transaction sets.

Every structure a relay builds consumes the same two facts about a
transaction -- its 32-byte ID and the short ID that is the ID's
little-endian prefix -- and consumes them for a whole mempool or block
at a time.  A :class:`TxColumns` lays a transaction set out once in the
form those sweeps want: the transactions in row order beside one
buffer of their IDs end to end, so that a Bloom sweep, an IBLT fold, a
symbol stream, the canonical order and the Merkle tree all read a
buffer instead of visiting ``Transaction`` objects one by one.

A snapshot is immutable.  Its owner caches it and drops it on change:
:meth:`Mempool.columns() <repro.chain.mempool.Mempool.columns>` (dropped
by ``add`` / ``remove`` / ``remove_block``) and :attr:`Block.columns
<repro.chain.block.Block.columns>` (kept for the life of the frozen
block).  Whoever took a snapshot before a mutation keeps describing the
old set -- Protocol 3 holds one across its round trips.
"""

from __future__ import annotations

from typing import Sequence

import numpy as _np


class TxColumns:
    """A transaction set as parallel columns, one row per transaction.

    Attributes
    ----------
    txs:
        The transactions in row order (a sequence the snapshot owns;
        never mutated).
    ids:
        Their 32-byte txids laid end to end, ``32 * len(txs)`` bytes.
    words:
        ``ids`` viewed as an ``(n, 4)`` little-endian ``uint64`` matrix
        (read-only; shares the buffer).

    The first :meth:`gather` also lays ``txs`` out as a read-only numpy
    object column, which every later gather indexes.  The column is
    derived state: a pickle carries ``txs`` and ``ids`` only.
    """

    __slots__ = ("txs", "ids", "words", "_objects")

    def __init__(self, txs: Sequence, ids: bytes | None = None):
        self.txs = txs
        self.ids = b"".join([tx.txid for tx in txs]) if ids is None else ids
        self.words = _np.frombuffer(self.ids, dtype="<u8").reshape(-1, 4)
        self._objects = None

    @classmethod
    def of(cls, txs) -> "TxColumns":
        """``txs`` itself when already columnar, else packed once."""
        return txs if isinstance(txs, cls) else cls(tuple(txs))

    def __reduce__(self):
        return TxColumns, (self.txs, self.ids)

    def __len__(self) -> int:
        return len(self.txs)

    def __iter__(self):
        return iter(self.txs)

    def short_ids(self, width: int = 8):
        """Column of ``tx.short_id(width)``, ``uint64``, ``1 <= width <= 8``.

        A short ID is the little-endian integer of the txid's first
        ``width`` bytes: word 0 of the row, masked.
        """
        return self.words[:, 0] & _np.uint64((1 << (8 * width)) - 1)

    def rows_with_short_ids(self, keys, width: int = 8):
        """Ascending rows whose short ID is one of ``keys`` (sized, of ints)."""
        wanted = _np.fromiter(keys, dtype=_np.uint64, count=len(keys))
        # kind="sort": numpy's integer table method costs ~15 us of set-up
        # that a handful of keys never earns back.
        return _np.flatnonzero(
            _np.isin(self.short_ids(width), wanted, kind="sort"))

    def outside(self, bloom) -> "TxColumns":
        """The snapshot of the rows whose ID ``bloom`` does not hold."""
        return self.take(_np.flatnonzero(~bloom.contains_packed(self.ids)))

    def plus(self, txs) -> "TxColumns":
        """This snapshot followed by the transactions ``txs``."""
        return TxColumns((*self.txs, *txs),
                         self.ids + b"".join([tx.txid for tx in txs]))

    def take(self, rows) -> "TxColumns":
        """The snapshot of ``rows`` (an index array), in that order."""
        return TxColumns(self.gather(rows), self.ids_of(rows))

    def ids_of(self, rows) -> bytes:
        """The IDs of ``rows`` (an integer index array) end to end, in
        that order.  ``take`` copies whole 32-byte rows; fancy indexing
        the ``(n, 4)`` matrix walks it word by word, ≈ 5x slower at
        2 000 rows."""
        return self.words.take(rows, axis=0).tobytes()

    def gather(self, rows) -> list:
        """The transactions of ``rows`` (an integer index array), in that
        order: one fancy index into the object column, then one
        ``tolist``, so no Python frame runs per row."""
        objects = self._objects
        if objects is None:
            objects = _np.fromiter(self.txs, dtype=object,
                                   count=len(self.txs))
            objects.flags.writeable = False
            self._objects = objects
        return objects[rows].tolist()

    def canonical(self) -> "TxColumns":
        """This set in canonical (CTOR) order: ``sorted`` by txid."""
        return self.take(self.canonical_rows())

    def canonical_rows(self, rows=None):
        """``rows`` (an index array; every row by default) in canonical
        (CTOR) order.

        Equal to ``sorted(rows, key=txid)``.  IDs are hashes, so their
        first 8 bytes, read big-endian, almost always order them
        already: that is one integer sort over those rows' prefixes.
        Only when two of them share that prefix (duplicates,
        manufactured collisions) do the rows go through the stable sort
        over all 32 bytes, where fixed-width byte strings compare like
        ``bytes`` (embedded and trailing NULs included).
        """
        prefix = (self.words[:, 0] if rows is None
                  else self.words[rows, 0]).byteswap()
        order = _np.argsort(prefix)
        ordered = prefix[order]
        if (ordered[1:] == ordered[:-1]).any():
            ids = _np.frombuffer(self.ids, dtype="S32")
            order = _np.argsort(ids if rows is None else ids[rows],
                                kind="stable")
        return order if rows is None else rows[order]
