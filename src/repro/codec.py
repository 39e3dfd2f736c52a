"""Binary wire codecs for every structure Graphene puts on the network.

The rest of the package accounts for sizes analytically; this module
makes those numbers real: Bloom filters, IBLTs, transactions and the
Graphene protocol messages all encode to byte strings and decode back,
and each codec produces exactly the byte counts the size model claims
(``BloomFilter.serialized_size``, ``IBLT.serialized_size``, ...).  The
round-trip property is what a public interoperability spec (the paper's
released BUIP093 network specification) pins down.

Layouts (all little-endian):

* Bloom filter: ``nbits u32 | k u8 | seed u32`` then the bit array --
  9 bytes + ceil(nbits/8), the BIP-37-like header the size model uses.
* IBLT: ``cells u32 | k u8 | seed u32 | cell_bytes u8 | pad u16`` (12
  bytes) then ``cells`` cells of ``count i16 | keySum u64 | checkSum``
  (checkSum width = cell_bytes - 10).
* Transaction: ``txid 32B | size u32 | fee_rate f32 | flags u8`` -- payloads are
  synthetic in this simulation, so a transaction's wire form carries
  its metadata; *size accounting* elsewhere still charges ``tx.size``.

IBLT cells and coded symbols have one body each way: the flat columnar
arrays are laid into a ``(rows, width)`` byte grid and shipped with one
``ndarray.tobytes()``, and parsed back through ``np.frombuffer`` views.
The independent per-cell ``struct`` encoder the tests compare against
is :func:`repro.pds.reference.encode_reference_iblt`.

Every ``decode_*`` entry point accepts any bytes-like buffer --
``bytes``, ``bytearray`` or ``memoryview`` -- and reads through it
without slicing whole-body copies, so nested decodes (a Protocol 1
payload containing S and I) parse zero-copy off one receive buffer.
"""

from __future__ import annotations

import math
import struct

import numpy as _np

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.errors import ParameterError
from repro.pds.bloom import BloomFilter
from repro.pds.iblt import IBLT
from repro.pds.riblt import SYMBOL_BATCH_HEADER_BYTES, SYMBOL_BYTES
from repro.utils.serialization import compact_size, read_compact_size

_U32 = 0xFFFFFFFF
_LN2 = math.log(2.0)
_LN2_SQ = _LN2 * _LN2


# ---------------------------------------------------------------------------
# Bloom filter
# ---------------------------------------------------------------------------

def _wire_seed(seed: int) -> int:
    """A structure seed as its ``u32`` header field.

    The receiver rebuilds its side of the structure from this field, so
    a seed the field cannot hold is rejected, not masked: the masked
    value would name a different hash family than the sender used.
    """
    if not 0 <= seed <= _U32:
        raise ParameterError(f"seed {seed} does not fit the u32 wire field")
    return seed


def encode_bloom(bloom: BloomFilter) -> bytes:
    """Serialize a Bloom filter; length equals ``serialized_size()``."""
    header = struct.pack("<IBI", bloom.nbits, bloom.k, _wire_seed(bloom.seed))
    return header + bytes(bloom._bits)


def decode_bloom(data: bytes, offset: int = 0) -> tuple[BloomFilter, int]:
    """Parse a Bloom filter; returns ``(filter, new_offset)``.

    The decoded filter answers membership identically to the encoded
    one (inserted-item count is not on the wire and is left at 0; use
    :func:`restore_bloom_load` when a protocol message supplies it).

    The target FPR is likewise not on the wire, but an optimally sized
    filter satisfies ``f = 2^-k``, so that is restored rather than the
    constructor default of 1.0 -- which would make every decoded
    non-degenerate filter claim it matches everything when sizing math
    consults ``target_fpr``.
    """
    if offset + 9 > len(data):
        raise ParameterError("buffer exhausted while reading Bloom header")
    nbits, k, seed = struct.unpack_from("<IBI", data, offset)
    offset += 9
    nbytes = (nbits + 7) // 8
    if offset + nbytes > len(data):
        raise ParameterError("buffer exhausted while reading Bloom bits")
    bloom = BloomFilter(nbits, k, seed=seed)
    bloom._bits[:] = data[offset:offset + nbytes]
    if nbits:
        bloom._target_fpr = 0.5 ** k
    return bloom, offset + nbytes


def restore_bloom_load(bloom: BloomFilter, count: int) -> BloomFilter:
    """Restore a decoded filter's load from a protocol-carried count.

    With the load known, the construction-time target FPR can be
    recovered from the sizing ``nbits = ceil(-n ln f / ln^2 2)``
    (inverted: ``f = exp(-nbits ln^2 2 / n)``), which refines the
    ``2^-k`` estimate :func:`decode_bloom` starts from.

    Degenerate filters are left untouched: inserts into them are
    no-ops (count stays 0 on the loopback side), so restoring a count
    would *create* a wire/loopback divergence rather than heal one.
    """
    if bloom.nbits == 0 or count <= 0:
        return bloom
    bloom.count = count
    bloom._target_fpr = math.exp(-bloom.nbits * _LN2_SQ / count)
    return bloom


# ---------------------------------------------------------------------------
# IBLT
# ---------------------------------------------------------------------------

#: Wire width of a full-fidelity cell (count i16 | keySum u64 |
#: checkSum u64) used when ``cell_bytes`` lies outside 12..18: such
#: widths are size-model fictions (the paper's cell-width sweeps assume
#: shorter key sums; the 16-bit checksum cannot shrink below 2 bytes)
#: and cannot carry the logical cell losslessly, so the wire ships
#: whole cells and flags it in the header's pad field.  The analytic
#: ``serialized_size()`` stays the accounting authority.
_FULL_CELL_BYTES = 18


#: Bounds of the on-wire ``count i16`` field.
_I16_MIN, _I16_MAX = -0x8000, 0x7FFF


def _encode_cells(iblt: IBLT, check_width: int, full: bool) -> bytes:
    """Cell serialization: columnar arrays -> one byte grid.

    Builds a ``(cells, width)`` uint8 matrix whose columns are the
    little-endian byte views of the three cell fields and ships it with
    one ``tobytes()``.
    """
    counts = _np.frombuffer(iblt._counts, dtype=_np.int64)
    if counts.size and ((counts < _I16_MIN) | (counts > _I16_MAX)).any():
        raise ParameterError(
            "cell count overflows i16: count outside [-32768, 32767]")
    keys = _np.frombuffer(iblt._key_sums, dtype=_np.uint64)
    checks = _np.frombuffer(iblt._check_sums, dtype=_np.uint64)
    cells = iblt.cells
    width = _FULL_CELL_BYTES if full else iblt.cell_bytes
    out_width = 8 if full else check_width
    if not full and check_width < 8:
        checks = checks & _np.uint64((1 << (8 * check_width)) - 1)
    body = _np.empty((cells, width), dtype=_np.uint8)
    body[:, 0:2] = counts.astype("<i2").view(_np.uint8).reshape(cells, 2)
    body[:, 2:10] = keys.astype("<u8", copy=False) \
        .view(_np.uint8).reshape(cells, 8)
    body[:, 10:10 + out_width] = checks.astype("<u8", copy=False) \
        .view(_np.uint8).reshape(cells, 8)[:, :out_width]
    return body.tobytes()


def encode_iblt(iblt: IBLT) -> bytes:
    """Serialize an IBLT; length equals ``serialized_size()`` for the
    lossless cell widths (``cell_bytes`` 12..18, pad field 0)."""
    check_width = iblt.cell_bytes - 10
    full = check_width < 2 or check_width > 8
    header = struct.pack("<IBIBH", iblt.cells, iblt.k, _wire_seed(iblt.seed),
                         iblt.cell_bytes, _FULL_CELL_BYTES if full else 0)
    return header + _encode_cells(iblt, check_width, full)


def _decode_cells(iblt: IBLT, data, offset: int, body: int,
                  check_width: int, full: bool) -> None:
    """Cell parse: one ``frombuffer`` view, three column fills.

    Reads the wire bytes in place (no body-slice copy, any bytes-like
    buffer) and writes the columnar arrays through writable numpy views.
    """
    width = _FULL_CELL_BYTES if full else iblt.cell_bytes
    out_width = 8 if full else check_width
    grid = _np.frombuffer(data, dtype=_np.uint8, count=body,
                          offset=offset).reshape(iblt.cells, width)
    _np.frombuffer(iblt._counts, dtype=_np.int64)[:] = \
        _np.ascontiguousarray(grid[:, 0:2]).view("<i2").ravel()
    _np.frombuffer(iblt._key_sums, dtype=_np.uint64)[:] = \
        _np.ascontiguousarray(grid[:, 2:10]).view("<u8").ravel()
    padded = _np.zeros((iblt.cells, 8), dtype=_np.uint8)
    padded[:, :out_width] = grid[:, 10:10 + out_width]
    _np.frombuffer(iblt._check_sums, dtype=_np.uint64)[:] = \
        padded.view("<u8").ravel()


def decode_iblt(data, offset: int = 0) -> tuple[IBLT, int]:
    """Parse an IBLT from any bytes-like buffer; ``(iblt, new_offset)``."""
    if offset + 12 > len(data):
        raise ParameterError("buffer exhausted while reading IBLT header")
    cells, k, seed, cell_bytes, pad = struct.unpack_from(
        "<IBIBH", data, offset)
    offset += 12
    # Validate the claimed shape before trusting it: a hostile or
    # corrupted header must not drive reads past the buffer (the IBLT
    # constructor would also silently round cells up to a multiple of
    # k, desynchronizing the cell loop from the wire).
    if pad not in (0, _FULL_CELL_BYTES):
        raise ParameterError(f"unknown IBLT wire-cell marker {pad}")
    if pad == 0 and not 12 <= cell_bytes <= 18:
        raise ParameterError(
            f"IBLT cell_bytes {cell_bytes} outside lossless 12..18")
    if k < 2 or cells < k or cells % k != 0:
        raise ParameterError(
            f"inconsistent IBLT shape: cells={cells}, k={k}")
    # Bound the body against the buffer BEFORE allocating the columns:
    # a hostile 12-byte header may claim ~2^32 cells, and three 8-byte
    # columns for that is a ~100 GB allocation the remaining bytes
    # cannot possibly back.
    body = cells * (_FULL_CELL_BYTES if pad == _FULL_CELL_BYTES
                    else cell_bytes)
    if offset + body > len(data):
        raise ParameterError("buffer exhausted while reading IBLT cells")
    iblt = IBLT(cells, k=k, seed=seed, cell_bytes=cell_bytes)
    iblt._pristine = False  # columns are written below, outside IBLT
    full = pad == _FULL_CELL_BYTES
    check_width = cell_bytes - 10
    _decode_cells(iblt, data, offset, body, check_width, full)
    return iblt, offset + body


# ---------------------------------------------------------------------------
# Rateless IBLT coded-symbol batches (Protocol 3)
# ---------------------------------------------------------------------------

#: Bounds of the on-wire symbol ``count i32`` field (a coded symbol is
#: ``count i32 | keySum u64 | checkSum u16``).
_I32_MIN, _I32_MAX = -0x80000000, 0x7FFFFFFF


def _encode_symbols(batch) -> bytes:
    """Symbol serialization: the three columns laid into one byte grid."""
    n = len(batch.counts)
    counts = _np.asarray(batch.counts, dtype=_np.int64)
    if counts.size and ((counts < _I32_MIN) | (counts > _I32_MAX)).any():
        raise ParameterError(
            "symbol count overflows i32: count outside +-2^31")
    keys = _np.asarray(batch.key_sums, dtype=_np.uint64)
    checks = _np.asarray(batch.check_sums, dtype=_np.uint64) \
        & _np.uint64(0xFFFF)
    body = _np.empty((n, SYMBOL_BYTES), dtype=_np.uint8)
    body[:, 0:4] = counts.astype("<i4").view(_np.uint8).reshape(n, 4)
    body[:, 4:12] = keys.astype("<u8", copy=False) \
        .view(_np.uint8).reshape(n, 8)
    body[:, 12:14] = checks.astype("<u8", copy=False) \
        .view(_np.uint8).reshape(n, 8)[:, :2]
    return body.tobytes()


def encode_symbol_batch(batch, pushed=None) -> bytes:
    """Serialize a :class:`~repro.core.protocol3.SymbolBatch`.

    Layout: ``start u32 | count u16`` then ``count`` coded symbols;
    length equals ``batch.wire_size()``.  ``pushed`` (the answer to a
    request that carried filter R) appends a tx list, read by
    :func:`decode_tx_list` at the offset ``decode_symbol_batch`` returns.
    """
    n = len(batch.counts)
    if n > 0xFFFF:
        raise ParameterError(f"symbol batch of {n} exceeds u16 framing")
    header = struct.pack("<IH", batch.start & _U32, n)
    tail = b"" if pushed is None else encode_tx_list(pushed)
    return header + _encode_symbols(batch) + tail


def decode_symbol_batch(data, offset: int = 0):
    """Parse a symbol batch; returns ``(SymbolBatch, new_offset)``.

    The claimed symbol count is bounded against the buffer before any
    allocation, so a hostile 6-byte header cannot drive reads past the
    receive buffer.
    """
    from array import array

    from repro.core.protocol3 import SymbolBatch

    if offset + SYMBOL_BATCH_HEADER_BYTES > len(data):
        raise ParameterError(
            "buffer exhausted while reading symbol batch header")
    start, n = struct.unpack_from("<IH", data, offset)
    offset += SYMBOL_BATCH_HEADER_BYTES
    body = n * SYMBOL_BYTES
    if offset + body > len(data):
        raise ParameterError(
            "buffer exhausted while reading coded symbols")
    counts = array("q", bytes(8 * n))
    key_sums = array("Q", bytes(8 * n))
    check_sums = array("Q", bytes(8 * n))
    grid = _np.frombuffer(data, dtype=_np.uint8, count=body,
                          offset=offset).reshape(n, SYMBOL_BYTES)
    _np.frombuffer(counts, dtype=_np.int64)[:] = \
        _np.ascontiguousarray(grid[:, 0:4]).view("<i4").ravel()
    _np.frombuffer(key_sums, dtype=_np.uint64)[:] = \
        _np.ascontiguousarray(grid[:, 4:12]).view("<u8").ravel()
    padded = _np.zeros((n, 8), dtype=_np.uint8)
    padded[:, :2] = grid[:, 12:14]
    _np.frombuffer(check_sums, dtype=_np.uint64)[:] = \
        padded.view("<u8").ravel()
    return SymbolBatch(start=start, counts=counts, key_sums=key_sums,
                       check_sums=check_sums), offset + body


def encode_protocol3_request(start: int, count: int, bloom_r=None) -> bytes:
    """Serialize a continuation request for symbols ``[start, start+count)``;
    ``bloom_r`` appends filter R over the receiver's candidates, read by
    :func:`decode_bloom` at the offset ``decode_protocol3_request`` returns."""
    if not 0 <= count <= 0xFFFF:
        raise ParameterError(f"symbol request count {count} outside u16")
    tail = b"" if bloom_r is None else encode_bloom(bloom_r)
    return struct.pack("<IH", start & _U32, count) + tail


def decode_protocol3_request(data, offset: int = 0) -> tuple[int, int, int]:
    """Parse a continuation request; returns ``(start, count, new_offset)``."""
    if offset + 6 > len(data):
        raise ParameterError(
            "buffer exhausted while reading symbol request")
    start, count = struct.unpack_from("<IH", data, offset)
    return start, count, offset + 6


# ---------------------------------------------------------------------------
# Block headers
# ---------------------------------------------------------------------------

BLOCK_HEADER_BYTES = 80


def decode_block_header(blob: bytes, offset: int = 0) -> BlockHeader:
    """Parse the 80-byte header prefixed to a Protocol 1 message."""
    if offset + BLOCK_HEADER_BYTES > len(blob):
        raise ParameterError(
            f"header must be {BLOCK_HEADER_BYTES} bytes, "
            f"got {len(blob) - offset}")
    version = int.from_bytes(blob[offset:offset + 4], "little")
    prev_hash = bytes(blob[offset + 4:offset + 36])
    merkle_root = bytes(blob[offset + 36:offset + 68])
    timestamp, bits, nonce = struct.unpack_from("<III", blob, offset + 68)
    return BlockHeader(version=version, prev_hash=prev_hash,
                       merkle_root=merkle_root, timestamp=timestamp,
                       bits=bits, nonce=nonce)


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

def encode_transaction(tx: Transaction) -> bytes:
    """Serialize a transaction's simulation metadata (41 bytes)."""
    flags = 1 if tx.is_coinbase else 0
    return tx.txid + struct.pack("<IfB", tx.size, tx.fee_rate, flags)


def decode_transaction(data: bytes, offset: int = 0) -> tuple[Transaction, int]:
    """Parse a transaction; returns ``(tx, new_offset)``."""
    if offset + 41 > len(data):
        raise ParameterError("buffer exhausted while reading transaction")
    txid = bytes(data[offset:offset + 32])
    size, fee_rate, flags = struct.unpack_from("<IfB", data, offset + 32)
    return Transaction(txid=txid, size=size, fee_rate=fee_rate,
                       is_coinbase=bool(flags & 1)), offset + 41


def encode_tx_list(txs) -> bytes:
    """CompactSize count followed by each transaction.

    Assembled into one preallocated buffer (41 bytes per transaction
    after the CompactSize head) rather than joining per-tx fragments.
    """
    head = compact_size(len(txs))
    out = bytearray(len(head) + 41 * len(txs))
    out[:len(head)] = head
    pos = len(head)
    pack_meta = struct.pack_into
    for tx in txs:
        out[pos:pos + 32] = tx.txid
        pack_meta("<IfB", out, pos + 32, tx.size, tx.fee_rate,
                  1 if tx.is_coinbase else 0)
        pos += 41
    return bytes(out)


def decode_tx_list(data: bytes, offset: int = 0) -> tuple[list, int]:
    count, offset = read_compact_size(data, offset)
    txs = []
    for _ in range(count):
        tx, offset = decode_transaction(data, offset)
        txs.append(tx)
    return txs, offset


# ---------------------------------------------------------------------------
# Graphene protocol messages
# ---------------------------------------------------------------------------

def _encode_opening(payload) -> bytes:
    """The head every opening shares: counts + prefilled txns + S."""
    return (compact_size(payload.n) + compact_size(payload.recover)
            + encode_tx_list(payload.prefilled)
            + encode_bloom(payload.bloom_s))


def _decode_opening(data, offset: int):
    """Parse an opening's head; returns ``(fields, fpr, new_offset)``.

    ``fields`` are the :class:`~repro.core.protocol1.Opening` fields on
    the wire.  The sender's sizing ``plan`` is not, so the caller
    rebuilds one around ``fpr``: S was built over exactly the n block
    transactions, and with that load restored ``actual_fpr()`` reports
    (1 - e^{-kn/m})^k instead of the empty-filter 0.0, which would make
    the receiver treat S as degenerate and size IBLT J to all of Z.
    """
    n, offset = read_compact_size(data, offset)
    recover, offset = read_compact_size(data, offset)
    prefilled, offset = decode_tx_list(data, offset)
    bloom, offset = decode_bloom(data, offset)
    restore_bloom_load(bloom, n)
    fpr = bloom.actual_fpr() if bloom.nbits else 1.0
    fields = dict(n=n, bloom_s=bloom, recover=recover,
                  prefilled=tuple(prefilled))
    return fields, fpr if fpr > 0 else 1.0, offset


def encode_protocol1_payload(payload) -> bytes:
    """Serialize a Protocol 1 payload (counts + prefilled txns + S + I)."""
    return _encode_opening(payload) + encode_iblt(payload.iblt_i)


def decode_protocol1_payload(data: bytes, offset: int = 0):
    """Parse a Protocol 1 payload; returns ``(payload, new_offset)``.

    The rebuilt payload receives exactly as the original does; see
    :func:`_decode_opening` for what stands in for its plan.
    """
    from repro.core.params import FilterIBLTPlan
    from repro.core.protocol1 import Protocol1Payload
    from repro.pds.param_table import IBLTParams

    fields, fpr, offset = _decode_opening(data, offset)
    iblt, offset = decode_iblt(data, offset)
    plan = FilterIBLTPlan(
        a=0, fpr=fpr, recover=fields["recover"],
        iblt=IBLTParams(cells=iblt.cells, k=iblt.k),
        bloom_bytes=fields["bloom_s"].serialized_size(),
        iblt_bytes=iblt.serialized_size())
    return Protocol1Payload(iblt_i=iblt, plan=plan, **fields), offset


def encode_protocol3_payload(payload) -> bytes:
    """Serialize a Protocol 3 opening (counts + prefilled + S + symbols)."""
    return _encode_opening(payload) + encode_symbol_batch(payload.symbols)


def decode_protocol3_payload(data: bytes, offset: int = 0):
    """Parse a Protocol 3 opening; returns ``(payload, new_offset)``.

    The receive side never consults the plan for Protocol 3 (there is
    no IBLT to size), so the rebuilt one only restores S's parameters
    for introspection.
    """
    from repro.core.params import FilterIBLTPlan
    from repro.core.protocol3 import Protocol3Payload
    from repro.pds.param_table import IBLTParams

    fields, fpr, offset = _decode_opening(data, offset)
    batch, offset = decode_symbol_batch(data, offset)
    plan = FilterIBLTPlan(
        a=0, fpr=fpr, recover=fields["recover"],
        iblt=IBLTParams(cells=0, k=4),
        bloom_bytes=fields["bloom_s"].serialized_size(), iblt_bytes=0)
    return Protocol3Payload(symbols=batch, plan=plan, **fields), offset


def encode_protocol2_request(request) -> bytes:
    """Serialize a Protocol 2 request (flags + counts + R)."""
    flags = 1 if request.special_case else 0
    return (struct.pack("<B", flags) + compact_size(request.b)
            + compact_size(request.ystar) + compact_size(request.z)
            + compact_size(request.xstar) + encode_bloom(request.bloom_r))


def decode_protocol2_request(data: bytes, offset: int = 0):
    """Parse a Protocol 2 request; returns ``(request, new_offset)``.

    R holds the z candidate txids, and z is on the wire: restore the
    load so the responder's sizing sees R's real ``actual_fpr()``
    rather than an empty filter's 0.0, exactly as it would over
    loopback.
    """
    from repro.core.protocol2 import Protocol2Request

    if offset >= len(data):
        raise ParameterError("buffer exhausted while reading P2 request")
    flags = data[offset]
    offset += 1
    b, offset = read_compact_size(data, offset)
    ystar, offset = read_compact_size(data, offset)
    z, offset = read_compact_size(data, offset)
    xstar, offset = read_compact_size(data, offset)
    bloom, offset = decode_bloom(data, offset)
    bloom = restore_bloom_load(bloom, z)
    request = Protocol2Request(bloom_r=bloom, b=b, ystar=ystar, z=z,
                               xstar=xstar, special_case=bool(flags & 1),
                               plan=None)
    return request, offset


def encode_protocol2_response(response) -> bytes:
    """Serialize a Protocol 2 response (T + J [+ F])."""
    flags = 1 if response.bloom_f is not None else 0
    parts = [struct.pack("<B", flags), compact_size(response.recover),
             encode_tx_list(response.missing_txs),
             encode_iblt(response.iblt_j)]
    if response.bloom_f is not None:
        parts.append(encode_bloom(response.bloom_f))
    return b"".join(parts)


def decode_protocol2_response(data: bytes, offset: int = 0):
    """Parse a Protocol 2 response; returns ``(response, new_offset)``."""
    from repro.core.protocol2 import Protocol2Response

    if offset >= len(data):
        raise ParameterError("buffer exhausted while reading P2 response")
    flags = data[offset]
    offset += 1
    recover, offset = read_compact_size(data, offset)
    txs, offset = decode_tx_list(data, offset)
    iblt, offset = decode_iblt(data, offset)
    bloom_f = None
    if flags & 1:
        bloom_f, offset = decode_bloom(data, offset)
    response = Protocol2Response(missing_txs=tuple(txs), iblt_j=iblt,
                                 bloom_f=bloom_f, recover=recover)
    return response, offset
