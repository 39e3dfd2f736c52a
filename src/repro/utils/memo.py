"""One eviction rule, and one hit/miss count, for every memo in the package.

The Bloom index matrices (:mod:`repro.pds.bloom`), the IBLT
folded columns (:mod:`repro.pds.iblt`) and the Merkle roots
(:mod:`repro.chain.merkle`) are each keyed by the packed bytes their
value is a pure function of, so a single entry can pin a whole
mempool's ID buffer.  They are therefore bounded by the bytes they pin,
not by how many entries they hold.  The Protocol 1 plans
(:mod:`repro.core.params`), the interned telemetry events
(:mod:`repro.core.telemetry`) and the process-wide openings of
:mod:`repro.core.engine` -- one memo of encoded openings, keyed by
everything a blob is a function of, and one of decoded openings, keyed
by the blob -- pin little each and count every entry as 1; so does a
sender engine's own ``(protocol, m)`` index of what it served.

Every memo is consulted through :meth:`BoundedMemo.lookup`, which
counts ``hits`` and ``misses``: the one counter pair that says how
often each layer answers.
"""

from __future__ import annotations


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
