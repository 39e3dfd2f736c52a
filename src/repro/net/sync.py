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
(via :class:`~repro.net.transport.SimulatorTransport`) and moving the
H set at the end.

Each in-flight sync is tracked by a nonce so concurrent syncs with
different peers cannot interfere.  Nonces are per-node deterministic
counters seeded from the node id: runs reproduce exactly, and two
nodes initiating toward the same responder never collide.
"""

from __future__ import annotations

import itertools
import logging
import struct
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
)
from repro.core.telemetry import MessageEvent
from repro.errors import ParameterError
from repro.net.messages import NetMessage
from repro.net.recovery import prune_oldest
from repro.net.transport import SimulatorTransport

logger = logging.getLogger(__name__)

#: Engine step command -> sync wire command (and back).  The engines
#: speak the relay vocabulary; the wire tags sync traffic distinctly so
#: a node can serve block relay and mempool sync concurrently.
_WIRE_BY_STEP = {
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
_STEP_BY_WIRE = {wire: step for step, wire in _WIRE_BY_STEP.items()}

#: Wire commands this module adds to the node vocabulary.
SYNC_COMMANDS = frozenset(_WIRE_BY_STEP.values()) | {"sync_push"}


@dataclass
class SyncState:
    """Initiator-side state for one in-flight sync."""

    nonce: int
    peer_id: str
    engine: GrapheneReceiverEngine
    done: bool = False
    succeeded: bool = False
    #: The responder Node, kept so timed-out requests can be resent.
    peer: object = None
    #: Recovery bookkeeping: resends of the current round, and the
    #: armed timeout timer (an EventHandle, cancelled on progress).
    attempts: int = 0
    timer: object = None

    @property
    def reconciled(self) -> dict:
        """txid -> Transaction view of the responder's mempool."""
        return self.engine.reconciled

    @property
    def events(self) -> list:
        """Telemetry stream of the exchange (initiator perspective)."""
        return self.engine.telemetry


class MempoolSyncMixin:
    """Handlers a :class:`~repro.net.node.Node` gains for mempool sync.

    ``Node`` inherits this mixin; the message dispatcher finds the
    ``_on_mempool_sync_*`` handlers by name like any other command.
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
            telemetry=self._telemetry_stream("sync", nonce))
        state = SyncState(nonce=nonce, peer_id=peer.node_id, engine=engine,
                          peer=peer)
        self._sync_sessions[nonce] = state
        prune_oldest(self._sync_sessions, self.recovery.telemetry_cap)
        self._dispatch_sync_action(peer, state, engine.start())
        return nonce

    def sync_result(self, nonce: int) -> Optional[SyncState]:
        return self._sync_sessions.get(nonce)

    # -- responder side -------------------------------------------------

    def _on_mempool_sync_request(self, sender, payload) -> None:
        self._sync_serve(sender, "getdata", payload)

    def _on_mempool_sync_p2_req(self, sender, payload) -> None:
        self._sync_serve(sender, "graphene_p2_request", payload)

    def _on_mempool_sync_p3_req(self, sender, payload) -> None:
        self._sync_serve(sender, "graphene_p3_request", payload)

    def _on_sync_fetch(self, sender, payload) -> None:
        self._sync_serve(sender, "getdata_shortids", payload)

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
                telemetry=self._telemetry_stream("sync-serve", nonce))
            self._sync_serving[key] = engine
            # A lost sync_push would leak this engine forever; retain a
            # bounded working set instead (evicted syncs restart via
            # the initiator's timeout ladder).
            prune_oldest(self._sync_serving, self.recovery.serving_cap)
        SimulatorTransport(self, sender, nonce,
                           command_map=_WIRE_BY_STEP).deliver(
            engine.handle(step, blob))

    def _on_sync_push(self, sender, payload) -> None:
        nonce, txs = payload
        self.mempool.add_many(txs)
        self._sync_serving.pop((sender.node_id, nonce), None)

    # -- initiator side -------------------------------------------------

    def _on_mempool_sync_p1(self, sender, payload) -> None:
        self._sync_advance(sender, "graphene_block", payload)

    def _on_mempool_sync_p2_resp(self, sender, payload) -> None:
        self._sync_advance(sender, "graphene_p2_response", payload)

    def _on_mempool_sync_p3(self, sender, payload) -> None:
        self._sync_advance(sender, "graphene_p3_block", payload)

    def _on_mempool_sync_p3_sym(self, sender, payload) -> None:
        self._sync_advance(sender, "graphene_p3_symbols", payload)

    def _on_sync_txs(self, sender, payload) -> None:
        self._sync_advance(sender, "block_txs", payload)

    def _sync_advance(self, sender, step: str, payload) -> None:
        nonce, blob = payload
        state = self._sync_sessions.get(nonce)
        if state is None or state.done:
            return
        if not state.engine.accepts(step):
            return  # late duplicate after a recovery retransmission
        self._dispatch_sync_action(sender, state,
                                   state.engine.handle(step, blob))

    def _dispatch_sync_action(self, peer, state: SyncState,
                              action) -> None:
        if action.kind is ActionKind.SEND:
            SimulatorTransport(self, peer, state.nonce,
                               command_map=_WIRE_BY_STEP).deliver(action)
            self._arm_sync_timer(state, progress=True)
            return
        self._cancel_sync_timer(state)
        if action.kind is ActionKind.DONE:
            self._finish_sync(peer, state)
            return
        logger.info("mempool sync %d with %s failed to decode",
                    state.nonce, state.peer_id)
        self._trace_mark("sync", state.nonce, "failed", why="decode")
        state.done = True

    # -- recovery (timeout ladder for lost sync rounds) -----------------

    def _arm_sync_timer(self, state: SyncState, progress: bool) -> None:
        """(Re)arm the round timer; progress resets the backoff."""
        if not self.recovery.enabled:
            return
        if progress:
            state.attempts = 0
        self._cancel_sync_timer(state)
        state.timer = self.simulator.schedule(
            self.recovery.timeout_for(state.attempts),
            lambda: self._on_sync_timeout(state.nonce))

    def _cancel_sync_timer(self, state: SyncState) -> None:
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None

    def _on_sync_timeout(self, nonce: int) -> None:
        state = self._sync_sessions.get(nonce)
        if state is None or state.done:
            return
        self.relay_timeouts += 1
        state.engine.note_timeout()
        if (state.attempts >= self.recovery.max_retries
                or state.peer not in self.peers):
            logger.info("mempool sync %d with %s abandoned after %d "
                        "resends", nonce, state.peer_id, state.attempts)
            self._trace_mark("sync", nonce, "abandon",
                             attempts=state.attempts)
            state.done = True
            self._cancel_sync_timer(state)
            return
        state.attempts += 1
        self.relay_retries += 1
        SimulatorTransport(self, state.peer, nonce,
                           command_map=_WIRE_BY_STEP).deliver(
            state.engine.reemit_last_request())
        self._arm_sync_timer(state, progress=False)

    def _finish_sync(self, peer, state: SyncState) -> None:
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
        self._send(peer, NetMessage("sync_push", (state.nonce, h_txs),
                                    nbytes, event=event))
        state.done = True
        state.succeeded = True
        self._trace_mark("sync", state.nonce, "done", pushed=len(h_txs))
        logger.debug("mempool sync %d with %s complete: pushed %d txns",
                     state.nonce, state.peer_id, len(h_txs))


# The engines' mempool-mode start message is 4 bytes of m; keep a
# helper for tests that drive sync wire payloads directly.
def encode_sync_request(m: int) -> bytes:
    return struct.pack("<I", m)
