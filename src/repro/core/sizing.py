"""Wire-cost accounting shared by the protocols and baselines.

Every experiment in the paper reports bytes on the wire.  To keep those
numbers honest, each protocol message in this package computes its own
serialized size, and a :class:`CostBreakdown` aggregates them per part
so Fig. 17's by-message-type decomposition falls straight out.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.telemetry import StreamTotals
from repro.errors import ParameterError
from repro.utils.serialization import compact_size_len

#: One inventory entry: 4-byte type + 32-byte hash (Bitcoin `inv`).
INV_ENTRY_BYTES = 36

#: Message envelope overhead (command + length + checksum), Bitcoin layout.
MSG_HEADER_BYTES = 24


def inv_bytes(entries: int = 1) -> int:
    """Size of an inv message announcing ``entries`` objects."""
    return MSG_HEADER_BYTES + compact_size_len(entries) + INV_ENTRY_BYTES * entries


def getdata_bytes(mempool_count: int = 0) -> int:
    """Size of the Graphene getdata: one entry plus the mempool count."""
    return (MSG_HEADER_BYTES + compact_size_len(1) + INV_ENTRY_BYTES
            + compact_size_len(mempool_count))


def short_id_request_bytes(count: int, id_bytes: int = 8) -> int:
    """A follow-up request for ``count`` transactions by short ID."""
    if count == 0:
        return 0
    return MSG_HEADER_BYTES + compact_size_len(count) + id_bytes * count


def p3_request_bytes() -> int:
    """A Protocol 3 symbol continuation request: start u32 + count u16."""
    return MSG_HEADER_BYTES + 6


@dataclass
class CostBreakdown:
    """Bytes transferred during one relay, split by message part.

    ``total()`` matches the paper's default accounting (transaction
    payloads excluded, as in Figs. 14, 17 and 18);
    ``total(include_txs=True)`` adds the pushed/fetched transactions for
    end-to-end comparisons like Fig. 13's full-block baseline.
    """

    inv: int = 0
    getdata: int = 0
    bloom_s: int = 0
    iblt_i: int = 0
    counts: int = 0  # the n / a* / y* / b integers riding along
    bloom_r: int = 0
    iblt_j: int = 0
    bloom_f: int = 0
    riblt: int = 0   # Protocol 3 coded-symbol stream (batches + headers)
    extra_getdata: int = 0
    ordering: int = 0
    pushed_tx_bytes: int = 0   # T, Protocol 2 step 3
    fetched_tx_bytes: int = 0  # final short-id getdata repairs

    def total(self, include_txs: bool = False) -> int:
        base = (self.inv + self.getdata + self.bloom_s + self.iblt_i
                + self.counts + self.bloom_r + self.iblt_j + self.bloom_f
                + self.riblt + self.extra_getdata + self.ordering)
        if include_txs:
            base += self.pushed_tx_bytes + self.fetched_tx_bytes
        return base

    def merge(self, other: "CostBreakdown") -> "CostBreakdown":
        """Element-wise sum (for aggregating over many relays)."""
        merged = CostBreakdown()
        for spec in fields(CostBreakdown):
            setattr(merged, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))
        return merged

    def as_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name)
                for spec in fields(CostBreakdown)}

    @classmethod
    def from_events(cls, events) -> "CostBreakdown":
        """Fold a telemetry event stream into one cost breakdown.

        Each :class:`~repro.core.telemetry.MessageEvent` carries its
        byte decomposition keyed by the field names of this class, so
        the stream's :class:`~repro.core.telemetry.StreamTotals` *are*
        the cost accounting; a part name that is not a field means a
        producer drifted from the schema.
        """
        totals = StreamTotals.of(events).part_totals
        unknown = set(totals) - {spec.name for spec in fields(cls)}
        if unknown:
            raise ParameterError(
                f"unknown cost part(s) {sorted(unknown)} in event stream")
        return cls(**totals)
