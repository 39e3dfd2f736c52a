"""End-to-end Graphene block relay: Protocol 1 with Protocol 2 fallback.

This is the orchestration a deployed client performs (paper Figs. 2-3):

1. ``inv`` -> ``getdata (m)`` -> Protocol 1 payload (S, I).
2. If the receiver decodes and the Merkle root checks out, done --
   one and a half roundtrips, the common case in deployment (46 failures
   in 15,647 blocks on Bitcoin Cash).
3. Otherwise the receiver starts Protocol 2 (R, y*, b), the sender
   responds (T, J, maybe F), ping-pong decoding merges both IBLTs, and
   any still-missing transactions are fetched by short ID in a final
   getdata before Merkle validation.

The flow itself lives in :mod:`repro.core.engine`; this session runs
the sender/receiver engine pair over an in-memory
:class:`~repro.net.transport.LoopbackTransport` and folds the engines'
telemetry event stream into a :class:`CostBreakdown` -- the same stream
the network simulator charges, so loopback and simulated relays agree
on bytes by construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.ordering import ordering_info_bytes
from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
)
from repro.core.params import GrapheneConfig
from repro.core.sizing import CostBreakdown
from repro.net.transport import LoopbackTransport

logger = logging.getLogger(__name__)


@dataclass
class RelayOutcome:
    """Result of relaying one block to one receiver."""

    success: bool
    protocol_used: int  # 1, 2 (1 failed first) or 3 (rateless)
    roundtrips: float
    cost: CostBreakdown = field(default_factory=CostBreakdown)
    txs: Optional[list] = None
    p1_decode_failed: bool = False
    p2_used_pingpong: bool = False
    fetched_count: int = 0
    #: Per-message telemetry stream the cost breakdown was folded from.
    events: list = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return self.cost.total()


class BlockRelaySession:
    """Relays blocks from a sender to a receiver, collecting costs.

    Parameters
    ----------
    config:
        Graphene parameters; defaults match the paper (beta = 239/240,
        8-byte short IDs, 12-byte IBLT cells).
    include_ordering_cost:
        Charge ``log2(n!)`` bits of transaction-ordering information, as
        the paper's Ethereum experiment does (section 6.2).  Off by
        default, matching CTOR chains like Bitcoin Cash.
    """

    def __init__(self, config: Optional[GrapheneConfig] = None,
                 include_ordering_cost: bool = False):
        self.config = config or GrapheneConfig()
        self.include_ordering_cost = include_ordering_cost

    def relay(self, block: Block,
              receiver_mempool: Mempool) -> RelayOutcome:
        """Relay ``block`` to a receiver holding ``receiver_mempool``.

        When even Protocol 2 cannot complete, a failed outcome is
        returned (a real client would fall back to a full-block
        request).
        """
        sender = GrapheneSenderEngine(block, self.config)
        receiver = GrapheneReceiverEngine(receiver_mempool, self.config)
        final = LoopbackTransport(sender, receiver).run()

        cost = CostBreakdown.from_events(receiver.telemetry)
        if self.include_ordering_cost:
            cost.ordering = ordering_info_bytes(block.n)

        success = final.kind is ActionKind.DONE
        if not success:
            logger.warning("graphene relay failed: block of %d txns, m=%d",
                           block.n, len(receiver_mempool))
        return RelayOutcome(
            success=success,
            protocol_used=receiver.protocol_used,
            roundtrips=receiver.roundtrips,
            cost=cost,
            txs=final.txs if success else None,
            p1_decode_failed=receiver.p1_decode_failed,
            p2_used_pingpong=receiver.p2_used_pingpong,
            fetched_count=receiver.fetched_count,
            events=list(receiver.telemetry))
