"""The in-memory relay: both engines in one process.

The Graphene control flow lives entirely in :mod:`repro.core.engine`;
a transport only decides *how* a SEND action reaches the other side.
:class:`LoopbackTransport` delivers it by a synchronous function call,
which is what :class:`~repro.core.session.BlockRelaySession` and
:func:`~repro.core.mempool_sync.synchronize_mempools` run for the
Monte-Carlo benchmarks.  The two wire drivers need no object per
exchange: the simulated :class:`~repro.net.node.Node` wraps an action
in a :class:`~repro.net.messages.NetMessage` in its ``send_action``, and
the socket's :class:`~repro.net.peer.AsyncioTransport` frames it onto a
``StreamWriter``.

Every one charges bytes from the action's attached telemetry event, so
a loopback relay, a simulated relay and a socket relay of the same
block account the same wire bytes by construction.

``deliver`` is SEND-only: passing a terminal action (DONE or FAILED)
raises :class:`~repro.errors.ParameterError`.  Terminal actions never
cross a wire -- they are the *local* endpoint's result, and each driver
reads them off its own engine (``LoopbackTransport`` records the one
its internal pump reaches as ``final``).

Recovery retransmissions (see :mod:`repro.net.host`) flow through
the same send path as first sends: a re-emitted engine action carries a
fresh ``outcome="retry"`` event with the original byte decomposition,
so retried bytes are charged exactly like original ones.  Duplicate
deliveries that retransmission can cause are shed at the receiving end
by the engines' ``accepts()`` phase guard, never by the transport.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import ActionKind, EngineAction, SENDER_STEPS
from repro.errors import ParameterError


class LoopbackTransport:
    """Drives a sender/receiver engine pair to completion in memory."""

    def __init__(self, sender, receiver):
        self.sender = sender
        self.receiver = receiver
        #: Terminal action (DONE or FAILED) once the exchange finishes.
        #: Reset on every ``deliver``, so a stale result can never leak
        #: into a reused transport's next exchange.
        self.final: Optional[EngineAction] = None

    def deliver(self, action: EngineAction) -> None:
        """Pump ``action`` (kind SEND) between the engines to completion.

        Like the socket transport, only SEND actions are accepted: a
        terminal action is an exchange *result*, and silently adopting
        one as ``final`` used to mask driver bugs (and a reused
        transport kept the previous exchange's ``final``).
        """
        if action.kind is not ActionKind.SEND:
            raise ParameterError(
                f"only SEND actions cross the wire, got {action.kind}")
        self.final = None
        while action.kind is ActionKind.SEND:
            engine = (self.sender if action.command in SENDER_STEPS
                      else self.receiver)
            action = engine.handle(action.command, action.message)
        self.final = action

    def run(self) -> EngineAction:
        """Run the whole exchange; returns the terminal action."""
        self.deliver(self.receiver.start())
        return self.final
