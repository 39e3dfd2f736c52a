"""The framed peer connection and the result of a socket fetch.

This is the deployment face of the relay stack.  The Graphene control
flow lives entirely in :mod:`repro.core.engine` and the recovery
ladder in :mod:`repro.net.host`; the one place that reads frames
off a socket and drives either is
:class:`~repro.net.peer.manager.PeerManager`.  This module holds what
every connection of a manager is made of:

* :class:`PeerConnection` -- a framed connection (incremental
  :class:`~repro.net.peer.framing.FrameDecoder` over ``StreamReader``
  reads) with the symmetric version/verack handshake.
* :class:`PeerFetchResult` -- what a completed (or abandoned) fetch
  reports, one socket or many.

Byte parity with the in-memory stack is the design invariant: only the
engines and the ladder append telemetry (handshake and ``inv`` frames
add nothing; the engine's ``start()`` already records the inv it was
triggered by), so a loss-free socket relay produces a telemetry stream
and :class:`~repro.core.sizing.CostBreakdown` byte-identical to the
same scenario run through
:class:`~repro.core.session.BlockRelaySession` -- pinned by
``tests/test_peer_socket.py`` and ``make smoke-socket``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

from repro.chain.block import Block
from repro.core.sizing import CostBreakdown
from repro.errors import ProtocolFailure
from repro.net.peer.framing import FrameDecoder, encode_frame
from repro.net.peer.protocol import (
    PROTOCOL_VERSION,
    VersionInfo,
    decode_version,
    encode_version,
)

#: Handshake must complete within this many seconds or the connection
#: is a lost cause (mirrors bitcoind's version handshake timeout
#: spirit, scaled down for a test-friendly stack).
HANDSHAKE_TIMEOUT = 10.0

#: Socket read granularity; any value works, the FrameDecoder
#: reassembles frames across reads of any size.
READ_CHUNK = 65536


class PeerConnection:
    """One framed peer connection over an asyncio stream pair.

    Owns the incremental frame decoder, so callers deal in whole
    ``(command, payload)`` frames regardless of how TCP fragments the
    byte stream.  The handshake is symmetric: both sides send
    ``version`` immediately and ``verack`` the peer's ``version``; the
    connection is up once both the peer's version and its verack have
    arrived.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, node_id: str):
        self.reader = reader
        self.writer = writer
        self.node_id = node_id
        self.decoder = FrameDecoder()
        self._frames: deque = deque()
        #: The peer's decoded ``version`` payload once handshaken.
        self.peer_info: Optional[VersionInfo] = None

    def send(self, command: str, payload: bytes = b"") -> None:
        self.writer.write(encode_frame(command, payload))

    async def drain(self) -> None:
        await self.writer.drain()

    async def read_frame(self):
        """Next ``(command, payload)`` frame; ``None`` at clean EOF.

        EOF in the middle of a frame raises
        :class:`~repro.net.peer.framing.FrameError` (truncation), as
        does any envelope violation in the stream.
        """
        while not self._frames:
            chunk = await self.reader.read(READ_CHUNK)
            if not chunk:
                self.decoder.eof()
                return None
            self._frames.extend(self.decoder.feed(chunk))
        return self._frames.popleft()

    async def handshake(self) -> VersionInfo:
        """Run the version/verack exchange, within
        :data:`HANDSHAKE_TIMEOUT`; returns the peer's info."""
        self.send("version", encode_version(self.node_id))
        await self.drain()
        try:
            info = await asyncio.wait_for(self._handshake_steps(),
                                          HANDSHAKE_TIMEOUT)
        except asyncio.TimeoutError:
            raise ProtocolFailure(
                f"handshake timed out after {HANDSHAKE_TIMEOUT}s") from None
        self.peer_info = info
        return info

    async def _handshake_steps(self) -> VersionInfo:
        info: Optional[VersionInfo] = None
        acked = False
        while info is None or not acked:
            frame = await self.read_frame()
            if frame is None:
                raise ProtocolFailure("connection closed during handshake")
            command, payload = frame
            if command == "version":
                if info is not None:
                    raise ProtocolFailure("duplicate version message")
                info = decode_version(payload)
                if info.version != PROTOCOL_VERSION:
                    raise ProtocolFailure(
                        f"peer speaks protocol {info.version}, "
                        f"we speak {PROTOCOL_VERSION}")
                self.send("verack")
                await self.drain()
            elif command == "verack":
                acked = True
            else:
                raise ProtocolFailure(
                    f"{command!r} before handshake completed")
        return info

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # peer already gone; nothing left to flush


@dataclass
class PeerFetchResult:
    """One completed (or abandoned) fetch of a
    :class:`~repro.net.peer.manager.PeerManager`.

    Mirrors :class:`~repro.core.session.RelayOutcome` so the parity
    tests (and the CLI) can compare field for field, plus the
    socket-only facts: the recovery rungs climbed, the raw frame
    overhead that real TCP added around the analytic bytes, and the
    *surviving path* -- the telemetry slice of the attempt that
    completed, which is what stays byte-identical to the loopback relay
    when earlier announcers were lost.  ``events``/``cost`` cover the
    whole stream, so timeouts and retries across failed announcers are
    charged honestly.  A fetch over one socket is the same thing with
    ``failovers == 0``.
    """

    success: bool
    protocol_used: int
    roundtrips: float
    cost: CostBreakdown = field(default_factory=CostBreakdown)
    txs: Optional[list] = None
    block: Optional[Block] = None
    p1_decode_failed: bool = False
    p2_used_pingpong: bool = False
    fetched_count: int = 0
    #: Per-message telemetry stream the cost was folded from (the
    #: receiver engine's canonical stream, same as loopback).
    events: list = field(default_factory=list)
    root: bytes = b""
    peer: Optional[VersionInfo] = None
    #: Recovery ladder summary.
    timeouts: int = 0
    retries: int = 0
    escalated: bool = False
    failovers: int = 0
    abandoned: bool = False
    #: True when the block arrived via the full-block fallback rung.
    via_fullblock: bool = False
    #: Envelope + key bytes the socket added around the analytic
    #: payloads (never part of the paper's accounting).
    wire_overhead: int = 0
    #: Announcer labels in registry (arrival) order at completion time.
    announcers: List[str] = field(default_factory=list)
    #: Events of the attempt that completed (since the last failover).
    surviving_events: list = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return self.cost.total()

    @property
    def surviving_cost(self) -> CostBreakdown:
        """CostBreakdown of the surviving attempt alone."""
        return CostBreakdown.from_events(self.surviving_events)
