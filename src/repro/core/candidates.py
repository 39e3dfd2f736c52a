"""The receiver's candidate set Z, in columnar form.

Protocols 1 and 3 open the same way: the transactions the sender
prefilled (in the block by construction -- no Bloom test needed), then
every mempool transaction that passes Bloom filter S.  A
:class:`CandidateSet` forms Z in one packed sweep of the mempool's
:class:`~repro.chain.columns.TxColumns` and keeps it as columns -- the
surviving row indices and the short-ID column the IBLT or the symbol
decoder is built from -- so no step visits the mempool one
``Transaction`` at a time.  Transactions are only materialized for the
rows that end up in the answer.  Protocol 2 keeps Protocol 1's Z.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as _np

from repro.chain.columns import TxColumns
from repro.chain.mempool import Mempool
from repro.pds.bloom import BloomFilter


class CandidateSet:
    """Z = prefilled transactions + the mempool rows that pass S.

    Candidate order is the prefilled transactions (first occurrence of
    each txid) followed by the passing mempool rows in mempool
    iteration order; a prefilled transaction the mempool also holds is
    counted once, as prefilled.

    Attributes
    ----------
    source:
        The snapshot Z's rows index: the mempool's own, or a copy of it
        behind the prefilled transactions.
    rows:
        Z as row indices into ``source``, in candidate order.
    sids:
        ``uint64`` short-ID column of Z, in candidate order.
    """

    __slots__ = ("source", "rows", "sids")

    def __init__(self, prefilled: Sequence, mempool: Mempool,
                 bloom_s: BloomFilter, width: int):
        source = mempool.columns()
        hits = bloom_s.contains_packed(source.ids)
        first: dict = {}
        for tx in prefilled:
            first.setdefault(tx.txid, tx)
        for txid in first:
            if txid in mempool:
                hits &= (source.words
                         != _np.frombuffer(txid, dtype="<u8")).any(axis=1)
        rows = hits.nonzero()[0]
        if first:
            # Prefilled rows go in front of the mempool's, so that Z is
            # row indices into one set of columns.
            source = TxColumns((*first.values(), *source.txs),
                               b"".join(first) + source.ids)
            rows = _np.concatenate([_np.arange(len(first)),
                                    rows + len(first)])
        self.source = source
        self.rows = rows
        self.sids = source.short_ids(width)[rows]

    def __len__(self) -> int:
        return len(self.rows)

    def ids(self) -> bytes:
        """Z's 32-byte txids end to end, in candidate order."""
        return self.source.ids_of(self.rows)

    def rows_without(self, remote: Iterable[int]):
        """Z's rows minus the candidates whose short ID is in ``remote``.

        ``remote`` holds the keys a decode attributed to the receiver
        alone: Bloom false positives to strip, a handful at most.  The
        rows index ``source``, in candidate order.
        """
        if not remote:
            return self.rows
        strip = _np.fromiter(remote, dtype=_np.uint64, count=len(remote))
        # kind="sort" skips the integer table method's fixed set-up.
        return self.rows[~_np.isin(self.sids, strip, kind="sort")]

    def where(self, mask) -> "CandidateSet":
        """The candidates ``mask`` (a bool column over Z) keeps, over
        the same ``source`` (how Protocol 2's filter F narrows Z)."""
        kept = CandidateSet.__new__(CandidateSet)
        kept.source, kept.rows, kept.sids = (self.source, self.rows[mask],
                                             self.sids[mask])
        return kept
