"""The tx-list codec against a per-row oracle.

``codec.decode_tx_list`` views a list's body as one array of 41-byte
rows and builds every transaction through
``Transaction.from_columns``.  The oracle below is the row-at-a-time
decoder it replaced (one ``struct.unpack_from`` and one
``Transaction(...)`` per row): on any buffer, random or a mutated
encoding, both must return the same transactions and offset, or raise
the same error class with the same message -- the first bad row in wire
order deciding.
"""

from __future__ import annotations

import pickle
import struct
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.transaction import Transaction, TransactionGenerator
from repro.codec import (
    decode_transaction,
    decode_tx_list,
    encode_transaction,
    encode_tx_list,
)
from repro.errors import ParameterError
from repro.utils.serialization import compact_size, read_compact_size


def _oracle_decode_transaction(data, offset=0):
    if offset + 41 > len(data):
        raise ParameterError("buffer exhausted while reading transaction")
    txid = bytes(data[offset:offset + 32])
    size, fee_rate, flags = struct.unpack_from("<IfB", data, offset + 32)
    return Transaction(txid=txid, size=size, fee_rate=fee_rate,
                       is_coinbase=bool(flags & 1)), offset + 41


def _oracle_decode_tx_list(data, offset=0):
    count, offset = read_compact_size(data, offset)
    txs = []
    for _ in range(count):
        tx, offset = _oracle_decode_transaction(data, offset)
        txs.append(tx)
    return txs, offset


def _oracle_encode_tx_list(txs) -> bytes:
    return compact_size(len(txs)) + b"".join(
        tx.txid + struct.pack("<IfB", tx.size, tx.fee_rate,
                              1 if tx.is_coinbase else 0) for tx in txs)


def _outcome(decode, data, offset=0):
    """What ``decode`` makes of ``data``: pickled values or the error."""
    try:
        value, end = decode(data, offset)
    except Exception as exc:  # noqa: BLE001 -- the class is compared
        return type(exc), str(exc)
    values = value if isinstance(value, list) else [value]
    return [pickle.dumps(tx) for tx in values], end


def _same(data, offset=0):
    assert (_outcome(decode_tx_list, data, offset)
            == _outcome(_oracle_decode_tx_list, data, offset))
    assert (_outcome(decode_transaction, data, offset)
            == _outcome(_oracle_decode_transaction, data, offset))


def _txs(seed: int, count: int) -> list:
    gen = TransactionGenerator(seed)
    txs = gen.make_batch(count)
    if count:
        txs[seed % count] = gen.make_coinbase()
    return txs


@st.composite
def _mutated(draw):
    """An encoded tx list with a cut, a zeroed size, a new count head
    or a few overwritten bytes."""
    body = _oracle_encode_tx_list(_txs(draw(st.integers(0, 99)),
                                       draw(st.integers(0, 12))))
    blob = bytearray(body)
    rows = (len(body) - 1) // 41
    kind = draw(st.sampled_from(["cut", "zero_size", "head", "bytes"]))
    if kind == "cut":
        del blob[draw(st.integers(0, len(blob))):]
    elif kind == "zero_size" and rows:
        row = draw(st.integers(0, rows - 1))
        blob[1 + 41 * row + 32:1 + 41 * row + 36] = bytes(4)
        if draw(st.booleans()):
            del blob[draw(st.integers(1 + 41 * row, len(blob))):]
    elif kind == "head":
        count = draw(st.integers(0, 2**64 - 1))
        blob = bytearray(compact_size(count)) + blob[1:]
    else:
        for _ in range(draw(st.integers(1, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(
                st.integers(0, 255))
    return bytes(blob)


class TestParityWithTheRowDecoder:
    @given(st.binary(max_size=300), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_random_buffers(self, blob, offset):
        _same(blob, offset)

    @given(_mutated())
    @settings(max_examples=300, deadline=None)
    def test_mutated_encodings(self, blob):
        _same(blob)

    @given(st.integers(0, 40), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_encodings(self, count, seed):
        txs = _txs(seed, count)
        assert encode_tx_list(txs) == _oracle_encode_tx_list(txs)
        for tx in txs[:3]:
            assert encode_transaction(tx) == _oracle_encode_tx_list([tx])[1:]
        _same(encode_tx_list(txs))

    def test_first_bad_row_decides(self):
        body = bytearray(encode_tx_list(_txs(1, 3)))
        body[1 + 41 + 32:1 + 41 + 36] = bytes(4)      # row 1: size 0
        for blob in (bytes(body), bytes(body[:-5])):  # ... and truncated
            for decode in (decode_tx_list, _oracle_decode_tx_list):
                assert _outcome(decode, blob) == (
                    ParameterError, "size must be >= 1, got 0")


class TestHostileHead:
    def test_a_count_of_two_to_the_64_allocates_nothing(self):
        head = b"\xff" + (2**64 - 1).to_bytes(8, "little")
        tracemalloc.start()
        try:
            outcome = _outcome(decode_tx_list, head + bytes(41 * 3 - 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome[0] is ParameterError
        assert peak < 64 * 1024
