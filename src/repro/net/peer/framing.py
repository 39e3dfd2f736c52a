"""Length-prefixed socket framing for the asyncio peer stack.

Everything the in-memory transports pass as Python objects must cross
a real TCP stream as bytes, and a stream has no message boundaries:
one ``read()`` may return half a message or three and a half.  This
module is the boundary layer -- a Bitcoin-style envelope plus an
incremental decoder that tolerates arbitrary fragmentation.

Frame layout (little-endian)::

    magic    u32   0x454E5247 ("GRNE"), stream resync / protocol guard
    cmd_len  u8    length of the command string (1..MAX_COMMAND)
    command  ...   ASCII command name (engine wire commands are long --
                   "graphene_p2_request" -- so a fixed 12-byte field
                   like Bitcoin's would truncate; length-prefixed text
                   keeps the command space shared with the engines)
    length   u32   payload byte count (bounded by MAX_PAYLOAD)
    checksum u32   CRC-32 of the payload
    payload  ...   `length` bytes

A frame is rejected (:class:`FrameError`) on bad magic, an empty /
oversized / non-ASCII command, a length above :data:`MAX_PAYLOAD`
(a hostile 4 GiB length must not drive an allocation), or a checksum
mismatch.  The decoder validates the header *before* waiting for the
body, so a poisoned stream fails fast instead of stalling on bytes
that will never arrive.

:class:`FrameDecoder` is the incremental half: ``feed()`` it chunks of
any size (1 byte at a time, whole messages, anything between) and it
yields exactly the frames a whole-buffer parse would -- pinned by the
split-robustness tests.  Payloads are returned as fresh ``bytes``,
never views into the receive buffer: the buffer is compacted and
reused across reads, and a decoded structure must not alias storage
that the next ``feed()`` overwrites (see the buffer-lifetime
regression tests).
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, List, Tuple

from repro.errors import ReproError

#: Stream magic: "GRNE" on the wire, read back as a little-endian u32.
MAGIC = 0x454E5247

#: Longest accepted command name ("mempool_sync_p2_resp" is 20).
MAX_COMMAND = 32

#: Largest accepted payload.  Generous for any Graphene message (a
#: full 1M-txn block's metadata encoding is ~41 MB > this on purpose:
#: the simulation never ships one, and the bound is what stops a
#: hostile header from driving a giant allocation).
MAX_PAYLOAD = 32 * 1024 * 1024

_HEAD = struct.Struct("<IB")       # magic | cmd_len
_BODY_HEAD = struct.Struct("<II")  # length | checksum
_FIXED_OVERHEAD = _HEAD.size + _BODY_HEAD.size


class FrameError(ReproError):
    """A socket frame violated the envelope (bad magic/length/checksum)."""


def frame_overhead(command: str) -> int:
    """Envelope bytes around a payload framed under ``command``."""
    return _FIXED_OVERHEAD + len(command)


def encode_frame(command: str, payload) -> bytes:
    """Frame ``payload`` (any bytes-like) under ``command``."""
    cmd = command.encode("ascii")
    if not 1 <= len(cmd) <= MAX_COMMAND:
        raise FrameError(f"command length {len(cmd)} outside "
                         f"1..{MAX_COMMAND}: {command!r}")
    body = bytes(payload)
    if len(body) > MAX_PAYLOAD:
        raise FrameError(f"payload of {len(body)} bytes exceeds "
                         f"MAX_PAYLOAD={MAX_PAYLOAD}")
    return (_HEAD.pack(MAGIC, len(cmd)) + cmd
            + _BODY_HEAD.pack(len(body), zlib.crc32(body)) + body)


class FrameDecoder:
    """Incremental frame parser over an arbitrarily fragmented stream.

    ``feed(chunk)`` returns every frame completed by that chunk, in
    order, as ``(command, payload)`` pairs.  Partial frames stay
    buffered until later chunks complete them; header fields are
    validated as soon as they are readable.  ``eof()`` must be called
    when the stream closes -- a partial frame still buffered there is
    a truncation (mid-frame EOF) and raises :class:`FrameError`.
    """

    def __init__(self):
        self._buf = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def feed(self, chunk) -> List[Tuple[str, bytes]]:
        """Absorb ``chunk``; return the frames it completed."""
        self._buf += chunk
        frames: List[Tuple[str, bytes]] = []
        offset = 0
        while True:
            parsed = self._try_parse(offset)
            if parsed is None:
                break
            frame, offset = parsed
            frames.append(frame)
        if offset:
            del self._buf[:offset]
        return frames

    def eof(self) -> None:
        """Assert stream end is on a frame boundary."""
        if self._buf:
            raise FrameError(
                f"stream ended mid-frame with {len(self._buf)} buffered "
                "bytes")

    def _try_parse(self, offset: int):
        """Parse one frame at ``offset``; None while bytes are missing."""
        buf = self._buf
        have = len(buf) - offset
        if have < _HEAD.size:
            return None
        magic, cmd_len = _HEAD.unpack_from(buf, offset)
        # Validate everything already readable before waiting for more:
        # a corrupt header must fail now, not hold the connection open
        # for a body length that is garbage.
        if magic != MAGIC:
            raise FrameError(f"bad frame magic 0x{magic:08X}")
        if not 1 <= cmd_len <= MAX_COMMAND:
            raise FrameError(f"bad command length {cmd_len}")
        body_head = offset + _HEAD.size + cmd_len
        if len(buf) < body_head + _BODY_HEAD.size:
            return None
        try:
            command = bytes(buf[offset + _HEAD.size:body_head]) \
                .decode("ascii")
        except UnicodeDecodeError as exc:
            raise FrameError(f"non-ASCII command bytes: {exc}") from exc
        length, checksum = _BODY_HEAD.unpack_from(buf, body_head)
        if length > MAX_PAYLOAD:
            raise FrameError(f"frame length {length} exceeds "
                             f"MAX_PAYLOAD={MAX_PAYLOAD}")
        start = body_head + _BODY_HEAD.size
        if len(buf) < start + length:
            return None
        payload = bytes(buf[start:start + length])
        if zlib.crc32(payload) != checksum:
            raise FrameError(
                f"checksum mismatch on {command!r}: header says "
                f"0x{checksum:08X}, payload hashes to "
                f"0x{zlib.crc32(payload):08X}")
        return (command, payload), start + length


def iter_splits(data: bytes, sizes: Iterator[int]):
    """Yield ``data`` in chunks of the given sizes (test helper)."""
    pos = 0
    for size in sizes:
        if pos >= len(data):
            return
        yield data[pos:pos + size]
        pos += size
    if pos < len(data):
        yield data[pos:]
