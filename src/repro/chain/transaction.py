"""Transactions and synthetic transaction generation.

A transaction's identity is the SHA-256 hash of its payload, exactly the
property the Bloom filters' reuse of the ID (paper 6.3) and the 8-byte
short-ID truncation rely on.  The payload itself is opaque to every
protocol here; only its size matters (for full-block and missing-
transaction transfer costs), so synthetic payloads are modelled as a
size plus a random seed rather than real script bytes.
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from math import exp as _exp, log as _log

import numpy as _np

from repro.errors import ParameterError
from repro.utils.hashing import short_id
from repro.utils.siphash import siphash24

#: Typical Bitcoin-style transaction wire size in bytes (1-in 2-out P2PKH).
TYPICAL_TX_BYTES = 250

#: Serialized size of an outpoint-style inventory entry: 32-byte hash.
TXID_BYTES = 32

#: Short transaction ID width used by Graphene's IBLT and XThin (bytes).
SHORT_ID_BYTES = 8

#: Largest transaction size the wire's ``u32`` size field holds.
MAX_TX_BYTES = 0xFFFFFFFF

#: A transaction's instance attributes, in the order ``__init__`` sets them.
_FIELDS = ("txid", "size", "fee_rate", "is_coinbase", "_short_id8")
_NEW = object.__new__
_SETATTR = object.__setattr__
_CONSUME = deque(maxlen=0).extend


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
        if self.size > MAX_TX_BYTES:
            raise ParameterError(
                f"size must be <= {MAX_TX_BYTES} (u32 on the wire), "
                f"got {self.size}")
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

    @classmethod
    def from_columns(cls, ids, sizes, fee_rates,
                     coinbase=False) -> list[Transaction]:
        """One transaction per row of parallel columns.

        ``ids`` holds the rows' 32-byte txids end to end (the layout of
        :attr:`TxColumns.ids <repro.chain.columns.TxColumns.ids>`);
        ``sizes`` and ``fee_rates`` hold one value per row (sequences
        or arrays); ``coinbase`` is one flag for every row or one per
        row.  The result equals ``cls(txid, size, fee_rate, flag)`` row
        by row -- same fields, same ``__dict__`` keys in the same order
        -- but ``__post_init__``'s rules run once per column: the size
        bounds through ``min`` / ``max``, the f32 quantisation in one
        numpy cast, the short IDs off one ``frombuffer`` view.  No
        per-object ``__init__`` runs: each attribute is set on every row
        by one ``map`` over ``object.__setattr__``, which keeps each
        instance's attributes in the class's shared-key layout, as
        ``__init__`` does (a ``__dict__.update`` would give every
        instance a dictionary of its own).

        A column those checks cannot vouch for (a size out of bounds, a
        fee rate that is not a float, is not finite or is huge; see
        :func:`_quantised`) goes row by row through ``cls`` itself, so
        the first bad row raises exactly the error the scalar
        constructor raises.
        """
        n = len(sizes)
        if len(ids) != TXID_BYTES * n:
            raise ParameterError(
                f"ids must be {n} rows of {TXID_BYTES} bytes, "
                f"got {len(ids)} bytes")
        if not n:
            return []
        txids = _np.frombuffer(ids, dtype=f"V{TXID_BYTES}").tolist()
        sizes, fees = _as_list(sizes), _as_list(fee_rates)
        flags = (repeat(coinbase, n) if isinstance(coinbase, bool)
                 else _as_list(coinbase))
        stored = (_quantised(fee_rates, fees) if _sizes_in_bounds(sizes)
                  else None)
        if stored is None:
            return [cls(txid=txid, size=size, fee_rate=fee, is_coinbase=flag)
                    for txid, size, fee, flag
                    in zip(txids, sizes, fees, flags)]
        sids = _np.frombuffer(ids, dtype="<u8")[::4].tolist()
        txs = list(map(_NEW, repeat(cls, n)))
        for name, column in zip(_FIELDS, (txids, sizes, stored, flags, sids)):
            _CONSUME(map(_SETATTR, txs, repeat(name, n), column))
        return txs

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


def _as_list(column) -> list:
    return column.tolist() if isinstance(column, _np.ndarray) else list(column)


def _sizes_in_bounds(sizes: list) -> bool:
    """True when every size passes ``__post_init__``'s bounds."""
    try:
        return min(sizes) >= 1 and max(sizes) <= MAX_TX_BYTES
    except TypeError:
        return False


def _quantised(column, fees: list):
    """``fees`` (``column`` as a list) as ``__post_init__`` stores them,
    or None if unsure.

    A ``float32`` array (a decoded tx list) holds its own f32 values.
    Otherwise each rate becomes its f32 value where quantising changes
    it and stays the object given where it does not (so an int rate
    stays an int, as through ``__init__``).  None, for the scalar
    constructor to decide row by row, when the column is not
    numpy-float or a rate is not finite or reaches ``2**53`` in
    magnitude: below that bound every int converts to a double exactly,
    so comparing doubles is comparing the rates, and no rate overflows
    f32.
    """
    if isinstance(column, _np.ndarray) and column.dtype.char == "f":
        return fees
    wide = _np.asarray(fees)
    if wide.dtype.kind != "f" or not _np.abs(wide).max() < 2.0 ** 53:
        return None
    narrow = wide.astype(_np.float32)
    kept = narrow == wide
    if kept.all():
        return fees
    quantised = narrow.tolist()
    for row in _np.flatnonzero(kept).tolist():
        quantised[row] = fees[row]
    return quantised


_PACK_NONCE = struct.Struct("<QQ").pack
_SHA256 = hashlib.sha256
_DIGEST = type(hashlib.sha256()).digest
#: ``random.Random.normalvariate``'s Kinderman--Monahan constant.
_NV_MAGICCONST = random.NV_MAGICCONST


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
        return self._make(1, size, fee_rate)[0]

    def make_batch(self, count: int) -> list[Transaction]:
        """Create ``count`` distinct transactions."""
        if count < 0:
            raise ParameterError(f"count must be non-negative, got {count}")
        return self._make(count)

    def make_coinbase(self, size: int = 120) -> Transaction:
        """Create a coinbase transaction (unique, unknown to all peers)."""
        return self._make(1, size, 0.0, coinbase=True)[0]

    def _make(self, count: int, size: int | None = None,
              fee_rate: float | None = None,
              coinbase: bool = False) -> list[Transaction]:
        """``count`` transactions, drawn one at a time and built at once.

        Each transaction draws, in this order: a 64-bit nonce, then --
        unless fixed by the caller -- its size (``lognormvariate(0.0,
        0.45)``, i.e. ``exp`` of ``normalvariate``'s Kinderman--Monahan
        loop, written out here over ``rng.random``) and its fee rate
        (``expovariate(1.0)``, likewise), clamped to at least 100 bytes
        and 0.0.  The loop makes the same ``random()`` calls and the
        same float operations as those methods, and the clamps pick what
        ``max(100, ·)`` / ``max(0.0, ·)`` pick (``-0.0`` becomes
        ``0.0``), so every draw and the generator's state after it are
        theirs.  The payloads ``(counter, nonce)`` are hashed in one
        ``map`` chain and the rows handed to
        :meth:`Transaction.from_columns`.
        """
        getrandbits, uniform = self.rng.getrandbits, self.rng.random
        scale = self.mean_size
        nonces, sizes, fees = [], [], []
        for _ in range(count):
            nonces.append(getrandbits(64))
            if size is None:
                while True:
                    u1 = uniform()
                    u2 = 1.0 - uniform()
                    z = _NV_MAGICCONST * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -_log(u2):
                        break
                drawn = int(scale * _exp(0.0 + z * 0.45))
                sizes.append(drawn if drawn > 100 else 100)
            if fee_rate is None:
                drawn = -_log(1.0 - uniform()) / 1.0
                fees.append(drawn if drawn > 0.0 else 0.0)
        first = self._counter + 1
        self._counter += count
        payloads = map(_PACK_NONCE, range(first, first + count), nonces)
        if coinbase:
            payloads = map(b"coinbase".__add__, payloads)
        ids = b"".join(map(_DIGEST, map(_SHA256, payloads)))
        return Transaction.from_columns(
            ids, sizes if size is None else [size] * count,
            fees if fee_rate is None else [fee_rate] * count, coinbase)
