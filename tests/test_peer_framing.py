"""Frame codec robustness: arbitrary stream splits and hostile frames.

A TCP stream has no message boundaries, so the one property that makes
the peer stack correct is split invariance: feeding the FrameDecoder a
byte stream 1 byte at a time, 2 bytes at a time, or in random chunks
must yield exactly the frames a whole-buffer parse yields.  The second
half of the contract is hostile-input handling: bad magic, oversized
lengths, checksum mismatches and mid-frame EOF must raise FrameError
early instead of stalling or allocating unboundedly.
"""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from repro.chain.scenarios import make_block_scenario
from repro.core.engine import GrapheneReceiverEngine, GrapheneSenderEngine
from repro.net.peer.framing import (
    FrameDecoder,
    FrameError,
    MAGIC,
    MAX_PAYLOAD,
    encode_frame,
    frame_overhead,
    iter_splits,
)
from repro.net.peer.protocol import encode_keyed, encode_version


def _decode_frames(data):
    """Whole-buffer parse: every frame in ``data``, which must end on a
    frame boundary -- the reference the incremental decoder is pinned
    against."""
    decoder = FrameDecoder()
    frames = decoder.feed(data)
    decoder.eof()
    return frames


def _engine_stream(seed: int = 133) -> bytes:
    """A realistic wire stream: every frame of a full P2-fallback relay."""
    sc = make_block_scenario(n=60, extra=60, fraction=0.4, seed=seed)
    sender = GrapheneSenderEngine(sc.block)
    receiver = GrapheneReceiverEngine(sc.receiver_mempool)
    root = sc.block.header.merkle_root
    frames = [encode_frame("version", encode_version("peer")),
              encode_frame("verack", b"")]
    action = receiver.start()
    while action.command:
        frames.append(encode_frame(action.command,
                                   encode_keyed(root, action.message)))
        engine = sender if action.command in ("getdata",
                                              "graphene_p2_request",
                                              "getdata_shortids") \
            else receiver
        action = engine.handle(action.command, action.message)
    return b"".join(frames)


class TestSplitInvariance:
    """Any fragmentation decodes to the whole-buffer reference parse."""

    def _assert_invariant(self, stream: bytes, sizes) -> None:
        reference = _decode_frames(stream)
        assert len(reference) >= 2
        decoder = FrameDecoder()
        collected = []
        for chunk in iter_splits(stream, sizes):
            collected.extend(decoder.feed(chunk))
        decoder.eof()
        assert collected == reference

    def test_one_byte_at_a_time(self):
        stream = _engine_stream()
        self._assert_invariant(stream, iter([1] * len(stream)))

    def test_two_bytes_at_a_time(self):
        stream = _engine_stream()
        self._assert_invariant(stream, iter([2] * (len(stream) // 2 + 1)))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_splits(self, seed):
        stream = _engine_stream()
        rng = random.Random(seed)
        sizes = iter(lambda: rng.randint(1, 977), None)
        self._assert_invariant(stream, sizes)

    def test_splits_inside_every_header_field(self):
        # Cut points straddling magic, cmd_len, command, length and
        # checksum individually: the header-first validation must not
        # misfire on a partially arrived header.
        frame = encode_frame("graphene_block", b"\x01" * 37)
        for cut in range(1, len(frame)):
            decoder = FrameDecoder()
            first = decoder.feed(frame[:cut])
            rest = decoder.feed(frame[cut:])
            decoder.eof()
            assert first + rest == [("graphene_block", b"\x01" * 37)]

    def test_payloads_are_copies_not_views(self):
        # The decoder compacts and reuses its buffer; a returned
        # payload must survive later feeds mutating that buffer.
        decoder = FrameDecoder()
        [(_, first)] = decoder.feed(encode_frame("inv", b"\xaa" * 32))
        decoder.feed(encode_frame("inv", b"\xbb" * 32))
        assert first == b"\xaa" * 32
        assert type(first) is bytes


class TestHostileFrames:
    """Envelope violations fail fast with FrameError."""

    def test_bad_magic(self):
        bad = b"\x00\x00\x00\x00" + encode_frame("inv", b"x" * 32)[4:]
        with pytest.raises(FrameError, match="magic"):
            _decode_frames(bad)

    def test_bad_magic_detected_before_body_arrives(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError, match="magic"):
            decoder.feed(struct.pack("<IB", MAGIC ^ 0xFF, 3))

    def test_zero_command_length(self):
        with pytest.raises(FrameError, match="command length"):
            _decode_frames(struct.pack("<IB", MAGIC, 0) + b"\x00" * 8)

    def test_oversized_command_length(self):
        with pytest.raises(FrameError, match="command length"):
            _decode_frames(struct.pack("<IB", MAGIC, 255))

    def test_non_ascii_command(self):
        frame = bytearray(encode_frame("inv", b"x" * 32))
        frame[5] = 0xC3  # first command byte -> invalid ASCII
        with pytest.raises(FrameError, match="non-ASCII"):
            _decode_frames(bytes(frame))

    def test_hostile_length_rejected_without_buffering(self):
        # A 4 GiB claimed length must be rejected from the header
        # alone -- long before 4 GiB could ever be buffered.
        head = (struct.pack("<IB", MAGIC, 3) + b"inv"
                + struct.pack("<II", 0xFFFFFFFF, 0))
        with pytest.raises(FrameError, match="MAX_PAYLOAD"):
            FrameDecoder().feed(head)

    def test_checksum_mismatch(self):
        frame = bytearray(encode_frame("inv", b"x" * 32))
        frame[-1] ^= 0x01  # corrupt the payload, keep the header
        with pytest.raises(FrameError, match="checksum"):
            _decode_frames(bytes(frame))

    def test_midframe_eof(self):
        frame = encode_frame("graphene_block", b"y" * 100)
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.pending == len(frame) - 1
        with pytest.raises(FrameError, match="mid-frame"):
            decoder.eof()

    def test_clean_eof_is_silent(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame("verack", b""))
        decoder.eof()  # no pending bytes: no error

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(FrameError, match="MAX_PAYLOAD"):
            encode_frame("block", b"\x00" * (MAX_PAYLOAD + 1))

    def test_encode_rejects_bad_command(self):
        with pytest.raises(FrameError):
            encode_frame("", b"")
        with pytest.raises(FrameError):
            encode_frame("x" * 33, b"")


class TestEnvelopeAccounting:
    def test_frame_overhead_matches_encoding(self):
        for command, payload in (("inv", b"r" * 32), ("verack", b""),
                                 ("graphene_p2_request", b"abc")):
            frame = encode_frame(command, payload)
            assert len(frame) == frame_overhead(command) + len(payload)

    def test_checksum_is_crc32(self):
        payload = b"graphene"
        frame = encode_frame("block", payload)
        (checksum,) = struct.unpack_from("<I", frame,
                                         len(frame) - len(payload) - 4)
        assert checksum == zlib.crc32(payload)
