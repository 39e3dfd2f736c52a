"""Bitcoin-style wire encoding primitives.

Network messages in this package account for their size using the same
CompactSize varint that Bitcoin's p2p protocol uses, so that byte counts
reported by the benchmark harness match what a deployed client would put
on the wire.
"""

from __future__ import annotations

import struct

from repro.errors import ParameterError


def compact_size(n: int) -> bytes:
    """Encode ``n`` as a Bitcoin CompactSize unsigned integer."""
    if n < 0:
        raise ValueError(f"CompactSize cannot encode negative value {n}")
    if n < 0xFD:
        return struct.pack("<B", n)
    if n <= 0xFFFF:
        return b"\xfd" + struct.pack("<H", n)
    if n <= 0xFFFFFFFF:
        return b"\xfe" + struct.pack("<I", n)
    if n <= 0xFFFFFFFFFFFFFFFF:
        return b"\xff" + struct.pack("<Q", n)
    raise ValueError(f"CompactSize cannot encode {n} (exceeds 8 bytes)")


def compact_size_len(n: int) -> int:
    """Return the encoded length of ``n`` as a CompactSize, in bytes."""
    if n < 0:
        raise ValueError(f"CompactSize cannot encode negative value {n}")
    if n < 0xFD:
        return 1
    if n <= 0xFFFF:
        return 3
    if n <= 0xFFFFFFFF:
        return 5
    if n <= 0xFFFFFFFFFFFFFFFF:
        return 9
    raise ValueError(f"CompactSize cannot encode {n} (exceeds 8 bytes)")


def read_compact_size(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a CompactSize at ``offset``; return ``(value, new_offset)``.

    The buffer comes off the wire, so exhaustion raises inside the
    :class:`~repro.errors.ReproError` family like every other decoder.
    """
    if offset >= len(data):
        raise ParameterError("buffer exhausted while reading CompactSize")
    first = data[offset]
    if first < 0xFD:
        return first, offset + 1
    widths = {0xFD: ("<H", 2), 0xFE: ("<I", 4), 0xFF: ("<Q", 8)}
    fmt, width = widths[first]
    end = offset + 1 + width
    if end > len(data):
        raise ParameterError(
            "buffer exhausted while reading CompactSize payload")
    (value,) = struct.unpack_from(fmt, data, offset + 1)
    return value, end
