"""Transactions and synthetic transaction generation.

A transaction's identity is the SHA-256 hash of its payload, exactly the
property the hash-splitting optimization (paper 6.3) and the 8-byte
short-ID truncation rely on.  The payload itself is opaque to every
protocol here; only its size matters (for full-block and missing-
transaction transfer costs), so synthetic payloads are modelled as a
size plus a random seed rather than real script bytes.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

from repro.errors import ParameterError
from repro.utils.hashing import sha256, short_id
from repro.utils.siphash import siphash24

#: Typical Bitcoin-style transaction wire size in bytes (1-in 2-out P2PKH).
TYPICAL_TX_BYTES = 250

#: Serialized size of an outpoint-style inventory entry: 32-byte hash.
TXID_BYTES = 32

#: Short transaction ID width used by Graphene's IBLT and XThin (bytes).
SHORT_ID_BYTES = 8


@dataclass(frozen=True)
class Transaction:
    """An opaque transaction: a 32-byte ID plus a wire size.

    Attributes
    ----------
    txid:
        SHA-256 digest identifying the transaction.
    size:
        Serialized size in bytes, used when the transaction itself must
        cross the wire (full blocks, Protocol 2 step 3 repairs).
    fee_rate:
        Satoshis per byte; lets workloads model low-fee transactions that
        relay policies drop but miners still include (paper 2.2).
        Quantized to f32 at construction -- the wire codec packs it as
        f32, so holding a full double here would make a decoded
        transaction compare (and sort) differently from its loopback
        twin.
    """

    txid: bytes
    size: int = TYPICAL_TX_BYTES
    fee_rate: float = 1.0
    #: Coinbase transactions exist only in their block: no peer can have
    #: them, so relay protocols prefill them (BIP-152 does; Graphene's
    #: step-3 note covers the general case).
    is_coinbase: bool = False

    def __post_init__(self):
        if len(self.txid) != TXID_BYTES:
            raise ParameterError(
                f"txid must be {TXID_BYTES} bytes, got {len(self.txid)}")
        if self.size < 1:
            raise ParameterError(f"size must be >= 1, got {self.size}")
        try:
            fee32 = struct.unpack("<f", struct.pack("<f", self.fee_rate))[0]
        except (OverflowError, struct.error) as exc:
            raise ParameterError(
                f"fee_rate {self.fee_rate!r} is not representable as "
                f"f32") from exc
        if fee32 != self.fee_rate:
            object.__setattr__(self, "fee_rate", fee32)
        # Eager default-width short ID: every Bloom/IBLT build and
        # short-id lookup in a relay asks for it, the txid is immutable,
        # and computing it here keeps short_id() branch-free on the hot
        # default path.
        object.__setattr__(self, "_short_id8",
                           short_id(self.txid, SHORT_ID_BYTES))

    def short_id(self, nbytes: int = SHORT_ID_BYTES) -> int:
        """Truncated ID as stored in IBLTs and short-ID lists.

        The default-width value is precomputed at construction (see
        ``__post_init__``); other widths are derived on demand.
        """
        if nbytes == SHORT_ID_BYTES:
            return self._short_id8
        return short_id(self.txid, nbytes)

    def keyed_short_id(self, key: bytes, nbytes: int = 6) -> int:
        """SipHash-keyed short ID, the BIP-152 defence of paper 6.1."""
        mask = (1 << (8 * nbytes)) - 1
        return siphash24(key, self.txid) & mask

    def __hash__(self) -> int:
        return hash(self.txid)


class TransactionGenerator:
    """Deterministic synthetic transaction factory.

    Sizes are drawn from a clipped log-normal centred near the typical
    250-byte transaction, which reproduces the long-tailed distribution
    of real Bitcoin traffic closely enough for bandwidth accounting.
    """

    def __init__(self, seed: int = 0, mean_size: int = TYPICAL_TX_BYTES):
        if mean_size < 64:
            raise ParameterError(f"mean_size must be >= 64, got {mean_size}")
        self.rng = random.Random(seed)
        self.mean_size = mean_size
        self._counter = 0

    def make(self, size: int | None = None,
             fee_rate: float | None = None) -> Transaction:
        """Create one transaction with a fresh, unique txid."""
        self._counter += 1
        payload = struct.pack("<QQ", self._counter,
                              self.rng.getrandbits(64))
        txid = sha256(payload)
        if size is None:
            draw = self.rng.lognormvariate(0.0, 0.45)
            size = max(100, int(self.mean_size * draw))
        if fee_rate is None:
            fee_rate = max(0.0, self.rng.expovariate(1.0))
        return Transaction(txid=txid, size=size, fee_rate=fee_rate)

    def make_batch(self, count: int) -> list[Transaction]:
        """Create ``count`` distinct transactions."""
        if count < 0:
            raise ParameterError(f"count must be non-negative, got {count}")
        return [self.make() for _ in range(count)]

    def make_coinbase(self, size: int = 120) -> Transaction:
        """Create a coinbase transaction (unique, unknown to all peers)."""
        self._counter += 1
        payload = struct.pack("<QQ", self._counter,
                              self.rng.getrandbits(64))
        return Transaction(txid=sha256(b"coinbase" + payload), size=size,
                           fee_rate=0.0, is_coinbase=True)
