"""One eviction rule, and one hit/miss count, for every memo in the package.

Every module-level :class:`BoundedMemo` is named here (a test holds the
list to the source):

* ``repro.pds.bloom._INDEX_MEMO`` -- Bloom bit-index matrices, keyed by
  the seed, the geometry and the packed ID rows;
* ``repro.pds.iblt._FOLD_CACHE`` -- IBLT folded columns, keyed by the
  table's shape, its seed and the key column's bytes;
* ``repro.pds.iblt._DECODE_CACHE`` -- peeled IBLT differences, keyed
  by the table's shape, its seed and its cell bytes, and holding the
  frozen result; a table whose peel raises never gets in;
* ``repro.chain.merkle._ROOT_CACHE`` -- certified Merkle roots, keyed by
  the root and holding the ordered leaves that hashed to it; a check is
  a compare of the candidate's leaves to the held ones, and only leaves
  that hashed to their root get in.

These four pin whole IBLT tables or mempool or block ID buffers, so
each is bounded by the bytes it pins, not by how many entries it holds.
The rest pin little each and count every entry as 1:

* ``repro.core.params._PLAN_CACHE`` -- Protocol 1 plans, keyed
  ``(n, m, config)``;
* ``repro.core.params._PLAN_B_CACHE`` -- Protocol 2 plans, keyed by
  :func:`~repro.core.params.optimize_b`'s exact inputs;
* ``repro.core.protocol2._BOUNDS_CACHE`` -- Protocol 2's ``(x*, y*)``,
  keyed ``(z, m, fpr, beta, n)``;
* ``repro.core.telemetry._EVENTS`` -- the interned telemetry events;
* ``repro.core.engine.ENCODED_OPENINGS`` -- encoded openings, keyed by
  everything a blob is a function of;
* ``repro.core.engine.DECODED_OPENINGS`` -- decoded openings, keyed by
  the blob (which counts one more per 64 KiB).

So does a sender engine's own ``(protocol, m)`` index of what it served,
which lives and dies with the engine.

Every memo is consulted through :meth:`BoundedMemo.lookup`, which
counts ``hits`` and ``misses``: the one counter pair that says how
often each layer answers.  :data:`MODULE_MEMOS` lists the module-level
ones and :func:`memo_stats` reads their counters.
"""

from __future__ import annotations

from importlib import import_module

#: The dotted name of every module-level memo, in the order above.
MODULE_MEMOS = (
    "repro.pds.bloom._INDEX_MEMO",
    "repro.pds.iblt._FOLD_CACHE",
    "repro.pds.iblt._DECODE_CACHE",
    "repro.chain.merkle._ROOT_CACHE",
    "repro.core.params._PLAN_CACHE",
    "repro.core.params._PLAN_B_CACHE",
    "repro.core.protocol2._BOUNDS_CACHE",
    "repro.core.telemetry._EVENTS",
    "repro.core.engine.ENCODED_OPENINGS",
    "repro.core.engine.DECODED_OPENINGS",
)


def memo_stats() -> dict:
    """``{name: (hits, misses, entries, pinned)}`` for every name in
    :data:`MODULE_MEMOS`: the process's counts since each was last
    cleared."""
    stats = {}
    for name in MODULE_MEMOS:
        module, attr = name.rsplit(".", 1)
        memo = getattr(import_module(module), attr)
        stats[name] = (memo.hits, memo.misses, len(memo), memo.pinned)
    return stats


class BoundedMemo(dict):
    """A memo ``dict`` bounded by the bytes its entries pin.

    ``size(key, value)`` is the bytes one entry pins.  :meth:`remember`
    stores a missed entry; once the entries, the new one included, would
    pin more than ``budget``, the oldest go until half of it is free.  An
    entry larger than the whole budget is kept alone, and is the first
    to go at the next insertion.  The running total makes an insertion
    O(1) but for the evictions; write only through :meth:`remember`
    (and :meth:`clear`), and read through :meth:`lookup`, which counts
    ``hits`` and ``misses``.  Values are never ``None``.
    """

    # Slots: a hot ``lookup`` reads and writes its counters ~2x faster.
    __slots__ = ("budget", "size", "pinned", "hits", "misses")

    def __init__(self, budget: int, size):
        super().__init__()
        self.budget = budget
        self.size = size
        self.pinned = 0
        self.hits = 0
        self.misses = 0

    def lookup(self, key):
        """The value held under ``key``, or ``None``; counted either way."""
        value = self.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def remember(self, key, value) -> None:
        """Store ``value`` under ``key``, which the memo does not hold."""
        self.pinned += self.size(key, value)
        if self.pinned > self.budget:
            for stale in list(self):
                if self.pinned <= self.budget // 2:
                    break
                self.pinned -= self.size(stale, self.pop(stale))
        self[key] = value

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        super().clear()
        self.pinned = 0
        self.hits = self.misses = 0
