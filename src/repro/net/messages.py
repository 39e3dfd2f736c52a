"""Network messages exchanged by simulated peers.

A :class:`NetMessage` pairs a command name with an arbitrary payload
object and an explicit wire size.  Sizes come from the payloads' own
``wire_size()`` / ``serialized_size()`` accounting wherever one exists,
so bytes measured in the network simulator agree with the standalone
protocol benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.sizing import MSG_HEADER_BYTES
from repro.core.telemetry import MessageEvent
from repro.errors import ParameterError

_SEQ = itertools.count()

#: Commands understood by :class:`repro.net.node.Node`.
COMMANDS = frozenset({
    "inv", "getdata",
    "graphene_block", "graphene_p2_request", "graphene_p2_response",
    "graphene_p3_block", "graphene_p3_request", "graphene_p3_symbols",
    "getdata_shortids", "block_txs",
    "cmpctblock", "getblocktxn", "blocktxn",
    "xthin_getdata", "xthinblock",
    "block",
    "mempool_sync_request", "mempool_sync_p1",
    "mempool_sync_p2_req", "mempool_sync_p2_resp",
    "mempool_sync_p3", "mempool_sync_p3_req", "mempool_sync_p3_sym",
    "sync_fetch", "sync_txs", "sync_push",
})


@dataclass(frozen=True, slots=True)
class NetMessage:
    """One message in flight between two peers."""

    command: str
    payload: Any
    size: int
    #: Telemetry record attached by an engine-driven sender; when
    #: present it is the authoritative byte accounting for this message.
    event: Optional[MessageEvent] = None
    msg_id: int = field(default_factory=lambda: next(_SEQ))

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ParameterError(f"unknown command {self.command!r}")
        if self.size < 0:
            raise ParameterError(f"size must be non-negative, got {self.size}")

    @property
    def total_size(self) -> int:
        """Bytes this message is charged on the wire.

        Engine-driven messages carry a telemetry event whose parts are
        the paper's analytic accounting (envelope included exactly
        where the size model includes it); ad-hoc messages fall back to
        payload size plus the fixed envelope.
        """
        if self.event is not None:
            return self.event.wire_bytes
        return self.size + MSG_HEADER_BYTES
