"""Mempools.

A mempool is the receiver-side set ``M`` of the paper's reconciliation
problem.  The receive path never walks the set object by object:
:meth:`Mempool.columns` serves it as a
:class:`~repro.chain.columns.TxColumns` snapshot -- rows in iteration
order beside one buffer of their txids -- which every sweep (Bloom S,
the short-ID column of I' or the symbol stream) reads directly.  The
mempool owns the snapshot and keeps it until the set changes, so peers
re-syncing against an unchanged pool sweep the same buffer again.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.chain.columns import TxColumns
from repro.chain.transaction import Transaction


class Mempool:
    """A set of transactions indexed by txid."""

    def __init__(self, txs: Optional[Iterable[Transaction]] = None):
        self._txs: dict = {}
        #: Cached :meth:`columns` snapshot; None once the set changed.
        self._columns: Optional[TxColumns] = None
        if txs is not None:
            self.add_many(txs)

    # ------------------------------------------------------------------
    # Set content
    # ------------------------------------------------------------------

    def add(self, tx: Transaction) -> bool:
        """Insert ``tx``; return False if it was already present."""
        if tx.txid in self._txs:
            return False
        self._txs[tx.txid] = tx
        self._columns = None
        return True

    def add_many(self, txs: Iterable[Transaction]) -> int:
        """Insert many; return how many were new (first insertion wins)."""
        pool = self._txs
        before = len(pool)
        for tx in txs:
            pool.setdefault(tx.txid, tx)
        gained = len(pool) - before
        if gained:
            self._columns = None
        return gained

    def remove_block(self, txids: Iterable[bytes]) -> int:
        """Evict confirmed transactions after a block connects."""
        pool = self._txs
        before = len(pool)
        for txid in txids:
            pool.pop(txid, None)
        removed = before - len(pool)
        if removed:
            self._columns = None
        return removed

    def copy(self) -> "Mempool":
        """An independent mempool over the same transactions.

        The cached :meth:`columns` snapshot is shared, not rebuilt: it
        is immutable and describes both sets until one of them changes,
        at which point that mempool alone drops its reference.
        """
        clone = Mempool()
        clone._txs = dict(self._txs)
        clone._columns = self._columns
        return clone

    def __contains__(self, txid: bytes) -> bool:
        return txid in self._txs

    def __len__(self) -> int:
        return len(self._txs)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._txs.values())

    @property
    def txids(self) -> list[bytes]:
        return list(self._txs.keys())

    def transactions(self) -> list[Transaction]:
        return list(self._txs.values())

    def columns(self) -> TxColumns:
        """The set as an immutable columnar snapshot, rows in iteration order.

        Built from the dict in two C-level passes (one join of the keys,
        one tuple of the values) and kept until ``add`` / ``remove`` /
        ``remove_block`` change the set; a snapshot handed out earlier
        keeps describing the set as it was.
        """
        if self._columns is None:
            self._columns = TxColumns(tuple(self._txs.values()),
                                      b"".join(self._txs))
        return self._columns
