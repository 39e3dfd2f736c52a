"""AsyncioTransport: engine actions onto a real TCP stream.

Third sibling of :class:`~repro.net.transport.LoopbackTransport` and
:class:`~repro.net.transport.SimulatorTransport`, behind the same
:class:`~repro.net.transport.Transport` ABC and the same SEND-only
``deliver`` contract.  A delivered action is framed as
``command | root | engine message`` and written to the connection's
``StreamWriter``; actual flushing (``await writer.drain()``) is the
connection loop's job, since ``deliver`` is called synchronously from
engine-driving code.

Byte accounting is unchanged: the action's telemetry event still
carries the analytic sizes every other transport charges, which is
what makes a socket relay's cost stream byte-identical to its
loopback twin.  The frame envelope and checksum are real bytes on the
real wire, but -- like TCP/IP headers -- they sit below the protocol
the paper accounts for; ``wire_overhead`` tracks them separately for
anyone who wants the raw socket total.
"""

from __future__ import annotations

from repro.core.engine import ActionKind, EngineAction
from repro.errors import ParameterError
from repro.net.peer.framing import encode_frame, frame_overhead
from repro.net.peer.protocol import encode_keyed
from repro.net.transport import Transport


class AsyncioTransport(Transport):
    """Ships engine actions for one exchange down a ``StreamWriter``.

    ``key`` tags the exchange on the wire (the block's Merkle root for
    relay) so the remote peer can find the matching engine, exactly as
    :class:`~repro.net.transport.SimulatorTransport` does over
    simulated links.
    """

    def __init__(self, writer, key: bytes):
        self.writer = writer
        self.key = key
        #: Raw envelope + key bytes written so far, *beyond* the
        #: analytic payload accounting (socket-level overhead).
        self.wire_overhead = 0
        #: Frames written (telemetry for tests and the CLI).
        self.frames_sent = 0

    def deliver(self, action: EngineAction) -> None:
        if action.kind is not ActionKind.SEND:
            raise ParameterError(
                f"only SEND actions cross the wire, got {action.kind}")
        self.writer.write(encode_frame(
            action.command, encode_keyed(self.key, action.message)))
        self.wire_overhead += frame_overhead(action.command) + len(self.key)
        self.frames_sent += 1
