"""Blocks and block headers.

A block is a header (80 bytes, Bitcoin layout) plus an ordered list of
transactions.  The header's Merkle root is the ground truth every
Graphene decode is validated against.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from repro.chain.columns import TxColumns
from repro.chain.merkle import certified_root, matches_root
from repro.chain.transaction import Transaction
from repro.errors import ParameterError

#: Serialized header size: version(4) prev(32) merkle(32) time(4) bits(4) nonce(4).
BLOCK_HEADER_BYTES = 80


@dataclass(frozen=True)
class BlockHeader:
    """An 80-byte Bitcoin-style block header."""

    version: int = 1
    prev_hash: bytes = bytes(32)
    merkle_root: bytes = bytes(32)
    timestamp: int = 0
    bits: int = 0x1D00FFFF
    nonce: int = 0

    def __post_init__(self):
        if len(self.prev_hash) != 32:
            raise ParameterError("prev_hash must be 32 bytes")
        if len(self.merkle_root) != 32:
            raise ParameterError("merkle_root must be 32 bytes")

    def serialize(self) -> bytes:
        return (struct.pack("<I", self.version & 0xFFFFFFFF)
                + self.prev_hash + self.merkle_root
                + struct.pack("<III", self.timestamp & 0xFFFFFFFF,
                              self.bits & 0xFFFFFFFF,
                              self.nonce & 0xFFFFFFFF))


@dataclass(frozen=True)
class Block:
    """A block: header plus transactions in Merkle (canonical) order."""

    header: BlockHeader
    txs: tuple = field(default_factory=tuple)

    @classmethod
    def assemble(cls, txs: Iterable[Transaction],
                 prev_hash: bytes = bytes(32),
                 timestamp: int = 0) -> "Block":
        """Build a block from transactions, applying canonical ordering.

        The Merkle root is computed over the canonical order, mirroring
        Bitcoin Cash post-CTOR (paper 6.2), so Graphene never needs to
        transmit ordering information for these blocks.  The root is
        remembered as certified by the leaves it was computed from.
        """
        ordered = TxColumns.of(txs).canonical()
        header = BlockHeader(prev_hash=prev_hash,
                             merkle_root=certified_root(ordered.ids),
                             timestamp=timestamp)
        return cls(header=header, txs=tuple(ordered.txs))

    @property
    def n(self) -> int:
        """Number of transactions in the block."""
        return len(self.txs)

    @property
    def txids(self) -> list[bytes]:
        return [tx.txid for tx in self.txs]

    def serialized_size(self) -> int:
        """Full wire size: header + all transaction payloads."""
        return BLOCK_HEADER_BYTES + sum(tx.size for tx in self.txs)

    @cached_property
    def columns(self) -> TxColumns:
        """This block's transactions as columns, packed on first read.

        The block is frozen, so the snapshot lives as long as it does;
        senders build S, I, J and the symbol stream from it.
        """
        return TxColumns(self.txs)

    def validated_order(self, candidate,
                        rows=None) -> list[Transaction] | None:
        """Order and Merkle-check a candidate set in one packed pass.

        ``candidate`` is a transaction sequence or its
        :class:`~repro.chain.columns.TxColumns`; ``rows`` (an index
        array) picks the candidates out of it, every row by default.
        Returns the canonically ordered list when it hashes to this
        block's root, else ``None`` -- what a CTOR receiver does at
        Protocol 1 step 4 / Protocol 2 step 5.  The sorted rows' IDs are
        gathered into the one buffer the packed Merkle tree reads; a
        root this process has certified before (one per hop of a relay)
        is checked by comparing that buffer to the leaves that certified
        it.  The transactions are gathered only once the root matches.
        """
        columns = TxColumns.of(candidate)
        order = columns.canonical_rows(rows)
        if not matches_root(columns.ids_of(order), self.header.merkle_root):
            return None
        return columns.gather(order)

    def validate_candidate(self, candidate: Sequence[Transaction]) -> bool:
        """Check a decoded transaction set against this block's Merkle root."""
        return self.validated_order(candidate) is not None
