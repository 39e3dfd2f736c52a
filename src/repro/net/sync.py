"""Mempool synchronization between simulated peers (paper 3.2.1).

Transaction gossip is lossy in practice (dropped invs, rate limits,
spam filters); periodic Graphene mempool sync repairs the divergence.
This module runs the 3.2.1 exchange *over the simulator's links*:

    initiator                         responder
      mempool_sync_request(m)  ---->    (treats whole mempool as block)
      mempool_sync_p1(S, I)    <----
      [mempool_sync_p2_req]    ---->
      [mempool_sync_p2_resp]   <----
      sync_fetch(short ids)    ---->
      sync_txs(missing txs)    <----
      sync_push(H txs)         ---->    (transactions responder lacked)

The protocol itself is the relay engines of :mod:`repro.core.engine`
run in ``mode="mempool"`` -- the exact state machines block relay and
:func:`~repro.core.mempool_sync.synchronize_mempools` use -- with this
mixin only translating engine commands to the sync wire vocabulary
(:data:`WIRE_BY_STEP`) and moving the H set at the end.  The node's
:class:`~repro.net.host.RelayHost` keeps the sessions and times their
rounds on the same ladder block fetches climb.

Each in-flight sync is tracked by a nonce so concurrent syncs with
different peers cannot interfere.  Nonces are per-node deterministic
counters seeded from the node id: runs reproduce exactly, and two
nodes initiating toward the same responder never collide.
"""

from __future__ import annotations

import itertools
import logging
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
    SENDER_STEPS,
)
from repro.core.telemetry import MessageEvent
from repro.errors import ParameterError
from repro.net.messages import NetMessage
from repro.net.recovery import FetchState, STAGE_ENGINE, prune_oldest

logger = logging.getLogger(__name__)

#: Engine step command -> sync wire command.  The engines speak the
#: relay vocabulary; the wire tags sync traffic distinctly so a node can
#: serve block relay and mempool sync concurrently.
WIRE_BY_STEP = {
    "getdata": "mempool_sync_request",
    "graphene_block": "mempool_sync_p1",
    "graphene_p2_request": "mempool_sync_p2_req",
    "graphene_p2_response": "mempool_sync_p2_resp",
    "graphene_p3_block": "mempool_sync_p3",
    "graphene_p3_request": "mempool_sync_p3_req",
    "graphene_p3_symbols": "mempool_sync_p3_sym",
    "getdata_shortids": "sync_fetch",
    "block_txs": "sync_txs",
}

#: Sync wire command -> (handler, engine step), the table
#: :meth:`Node.receive <repro.net.node.Node.receive>` routes through:
#: sender steps feed the responder's serving engine, receiver steps
#: advance the initiator's.  A new step costs one ``WIRE_BY_STEP`` row.
SYNC_ROUTES = {
    wire: ("_sync_serve" if step in SENDER_STEPS else "_sync_advance", step)
    for step, wire in WIRE_BY_STEP.items()}


@dataclass
class SyncState(FetchState):
    """Initiator-side state for one in-flight sync: the ladder's
    :class:`~repro.net.recovery.FetchState` (``peer`` is the responder's
    handle, ``key`` the nonce) plus the session's own facts."""

    done: bool = False
    succeeded: bool = False

    @property
    def events(self) -> list:
        """Telemetry stream of the exchange (initiator perspective)."""
        return self.engine.telemetry


class MempoolSyncMixin:
    """Handlers a :class:`~repro.net.node.Node` gains for mempool sync.

    ``Node`` inherits this mixin; its dispatcher routes the engine-step
    commands through :data:`SYNC_ROUTES` and finds ``_on_sync_push`` by
    name like any other command.  Sessions live in the node's
    :class:`~repro.net.host.RelayHost`, whose timers drive their
    recovery ladder.
    """

    def _next_sync_nonce(self) -> int:
        counter = self.__dict__.get("_sync_nonces")
        if counter is None:
            # Seeded from the node id: deterministic per node, distinct
            # across nodes (the old module-global counter made nonces
            # depend on construction order across the whole process).
            counter = itertools.count(
                zlib.crc32(self.node_id.encode()) * 100_000 + 1)
            self.__dict__["_sync_nonces"] = counter
        return next(counter)

    def initiate_mempool_sync(self, peer) -> int:
        """Start a sync with ``peer``; returns the session nonce."""
        if peer not in self.peers:
            raise ParameterError(
                f"{self.node_id} is not peered with {peer.node_id}")
        nonce = self._next_sync_nonce()
        engine = GrapheneReceiverEngine(
            self.mempool, self.config, mode="mempool",
            telemetry=self.host.stream("sync", nonce))
        state = SyncState(peer=peer.nid, stage=STAGE_ENGINE, key=nonce,
                          engine=engine)
        self.host.open_sync(state)
        self._dispatch_sync_action(state, engine.start())
        return nonce

    def sync_result(self, nonce: int) -> Optional[SyncState]:
        return self.host.syncs.get(nonce)

    # -- responder side -------------------------------------------------

    def _sync_serve(self, sender, step: str, payload) -> None:
        """Feed one initiator message to the serving sender engine."""
        nonce, blob = payload
        key = (sender.node_id, nonce)
        engine = self._sync_serving.get(key)
        if engine is None:
            if step != "getdata":
                return  # late message for a finished or unknown sync
            engine = GrapheneSenderEngine(
                txs=self.mempool.columns(), config=self.config,
                telemetry=self.host.stream("sync-serve", nonce))
            self._sync_serving[key] = engine
            # A lost sync_push would leak this engine forever; retain a
            # bounded working set instead (evicted syncs restart via
            # the initiator's timeout ladder).
            prune_oldest(self._sync_serving, self.recovery.serving_cap)
        self.send_action(sender.nid, nonce, engine.handle(step, blob),
                         WIRE_BY_STEP)

    def _on_sync_push(self, sender, payload) -> None:
        nonce, txs = payload
        self.mempool.add_many(txs)
        self._sync_serving.pop((sender.node_id, nonce), None)

    # -- initiator side -------------------------------------------------

    def _sync_advance(self, sender, step: str, payload) -> None:
        nonce, blob = payload
        state = self.host.syncs.get(nonce)
        if state is None or state.done or state.peer != sender.nid \
                or not state.engine.accepts(step):
            return  # late duplicate after a retransmission, or not ours
        self._dispatch_sync_action(state, state.engine.handle(step, blob))

    def _dispatch_sync_action(self, state: SyncState, action) -> None:
        if action.kind is ActionKind.SEND:
            self.send_action(state.peer, state.key, action, WIRE_BY_STEP)
            state.attempts = 0  # progress resets the backoff
            self.host.arm(state)
            return
        self.host.cancel(state)
        if action.kind is ActionKind.DONE:
            self._finish_sync(state)
            return
        logger.info("mempool sync %d with %s failed to decode",
                    state.key, self.peer_label(state.peer))
        self.host.mark("sync", state.key, "failed", why="decode")
        state.done = True

    def _finish_sync(self, state: SyncState) -> None:
        engine = state.engine
        reconciled = engine.reconciled
        self.mempool.add_many(reconciled.values())
        # H: our transactions the responder provably lacks -- everything
        # of ours absent from the reconciled view of their mempool.
        h_txs = tuple(tx for tx in self.mempool
                      if tx.txid not in reconciled)
        nbytes = sum(tx.size for tx in h_txs)
        event = MessageEvent(
            command="sync_push", direction="sent", role="receiver",
            phase="push", roundtrip=int(engine.roundtrips),
            parts={"fetched_tx_bytes": nbytes}, outcome="done")
        engine.telemetry.append(event)
        self._send(self._net.nodes[state.peer], NetMessage(
            "sync_push", (state.key, h_txs), nbytes, event=event))
        state.done = True
        state.succeeded = True
        self.host.mark("sync", state.key, "done", pushed=len(h_txs))
        logger.debug("mempool sync %d with %s complete: pushed %d txns",
                     state.key, self.peer_label(state.peer), len(h_txs))
