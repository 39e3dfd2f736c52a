"""Mempool synchronization with Graphene (paper 3.2.1).

Two peers reconcile entire mempools so both end with the union.  The
sender (by convention the peer with the *smaller* mempool -- "the
protocol is more efficient if the peer with the smaller mempool acts as
the sender since S will be smaller") places his whole mempool in S and
I.  The receiver:

* passes her mempool through S; negatives join ``H``, the set of
  transactions the sender provably lacks;
* decodes ``I (-) I'`` -- recovered remote keys are her transactions
  that *falsely* passed S (they join ``H`` too), recovered local keys
  are sender transactions she must fetch;
* on decode failure, falls back to Protocol 2, which in this regime
  (m ~ n) takes the special-case path with the fixed ``f_R`` and the
  third Bloom filter F (paper 3.3.2).

At the end both sides exchange the transactions the other is missing.

The exchange itself is the relay engines of :mod:`repro.core.engine`
run in ``mode="mempool"`` over a loopback transport -- the same state
machines block relay and the network simulator use -- with this driver
only moving transactions and folding the telemetry stream into a
:class:`CostBreakdown`.  :func:`adopt_reconciled` is the end of every
sync, here and on the relay host of :mod:`repro.net.host`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.chain.mempool import Mempool
from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
)
from repro.core.params import GrapheneConfig
from repro.core.sizing import CostBreakdown
from repro.core.telemetry import MessageEvent, message_event


@dataclass
class MempoolSyncResult:
    """Outcome of one mempool synchronization."""

    success: bool
    protocol_used: int
    roundtrips: float
    cost: CostBreakdown = field(default_factory=CostBreakdown)
    #: Transactions the receiver obtained from the sender.
    receiver_gained: int = 0
    #: Transactions the sender obtained from the receiver (the set H).
    sender_gained: int = 0
    synchronized: bool = False
    #: Per-message telemetry stream the cost breakdown was folded from.
    events: list = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return self.cost.total()


def adopt_reconciled(mempool: Mempool, engine: GrapheneReceiverEngine
                     ) -> Tuple[int, tuple, MessageEvent]:
    """End a sync whose mempool-mode ``engine`` is DONE: add its
    reconciled view to ``mempool`` and return how many transactions
    were new, H and the ``sync_push`` event (appended to the engine's
    stream) that charges sending H.

    H is the receiver's transactions the sender provably lacks -- failed
    S outright, or recovered as remote keys (false passes).  It is read
    off the reconciled view alone, which holds everything recovered from
    the sender's side (fetched repairs included): the sender's mempool
    is not the receiver's to read.
    """
    gained = mempool.add_many(engine.reconciled)
    known = {tx.txid for tx in engine.reconciled}
    h_txs = tuple(tx for tx in mempool if tx.txid not in known)
    event = message_event(
        "sync_push", "sent", "receiver", "push", int(engine.roundtrips),
        {"fetched_tx_bytes": sum(tx.size for tx in h_txs)}, "done")
    engine.telemetry.append(event)
    return gained, h_txs, event


def synchronize_mempools(sender: Mempool, receiver: Mempool,
                         config: Optional[GrapheneConfig] = None,
                         transfer_missing: bool = True) -> MempoolSyncResult:
    """Synchronize two mempools; both end up holding the union.

    ``transfer_missing=False`` skips actually moving transactions (and
    charging their bytes), which matches the encoding-size accounting of
    Fig. 18 while still exercising the full reconciliation logic.
    """
    # Imported here: repro.net's relay host imports this module.
    from repro.net.transport import LoopbackTransport

    config = config or GrapheneConfig()

    tx_engine = GrapheneSenderEngine(txs=sender.columns(), config=config)
    rx_engine = GrapheneReceiverEngine(receiver, config, mode="mempool")
    final = LoopbackTransport(tx_engine, rx_engine).run()

    result = MempoolSyncResult(
        success=final.kind is ActionKind.DONE,
        protocol_used=rx_engine.protocol_used,
        roundtrips=rx_engine.roundtrips,
        events=rx_engine.telemetry)
    if result.success and transfer_missing:
        result.receiver_gained, h_txs, _ = adopt_reconciled(receiver,
                                                            rx_engine)
        result.sender_gained = sender.add_many(h_txs)
        result.synchronized = (
            {tx.txid for tx in sender} == {tx.txid for tx in receiver})
    result.cost = CostBreakdown.from_events(result.events)
    if result.success and not transfer_missing:
        # Fig. 18 accounting: reconciliation-structure bytes only.
        result.cost.pushed_tx_bytes = 0
        result.cost.fetched_tx_bytes = 0
    return result
