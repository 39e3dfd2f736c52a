"""Timeout/retry/fallback recovery for relay exchanges: one ladder.

The paper's deployment story (sections 4.3 and 5) is that Graphene
keeps propagating under real p2p conditions, yet a naive relay has no
recovery path: one dropped ``graphene_block`` leaves the receiver
engine in ``WAIT_P1`` forever, and a write-once inv dedup set means the
node never re-requests the block from anyone.  This module is the
missing subsystem: a per-exchange timeout, a capped
exponential-backoff retry ladder, and a per-root *source registry* so
a stalled fetch can fail over to another announcing peer.

The ladder for a stalled block fetch, climbed one timeout at a time::

    rung 1  resend the last request to the same peer
            (exponential backoff, at most ``max_retries`` times)
    rung 2  escalate to a full-block getdata from that peer
            (same retry cap)
    rung 3  fail over to the next peer that announced the root
            (restarting the protocol exchange from scratch)

When every announcer has been tried the fetch is *abandoned*: all
in-flight state is garbage-collected and a later inv from any peer
starts over.  Every timer is cancelled the moment the awaited response
arrives, so a loss-free run never observes the subsystem at all -- the
same messages cross the wire in the same order, byte for byte.

The ladder is written once, without I/O: :class:`FetchState` plus the
three steps :func:`on_timeout`, :func:`escalate` and :func:`fail_over`
own the ``attempts``/``stage``/``tried`` bookkeeping, the
``relay_timeouts``/``relay_retries`` counting and the recovery events.
Their one caller is :class:`~repro.net.host.RelayHost`, which sends,
arms timers, looks up live announcers and marks spans through its
driver -- the :class:`~repro.net.node.Node` on the
:class:`~repro.net.simulator.Simulator` clock or the
:class:`~repro.net.peer.manager.PeerManager` on asyncio's.  The host's
mempool-sync sessions climb rung 1 through :func:`on_timeout` too; a
sync has no full-block rung and one responder, so it abandons there.

Recovery is observable: timeouts and retransmissions append
``outcome="timeout"`` / ``outcome="retry"`` events to the per-relay
telemetry stream (retries carry the resent byte decomposition, so
:meth:`CostBreakdown.from_events
<repro.core.sizing.CostBreakdown.from_events>` charges them honestly)
and bump the host's ``relay_timeouts`` / ``relay_retries`` counters.
With a :class:`~repro.obs.trace.Tracer` attached, the host marks the
exchange's span at each transition (``escalate`` / ``failover`` /
``abandon``) so a trace timeline shows *why* a fetch moved between
rungs, not just that bytes were re-spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.core.sizing import getdata_bytes
from repro.core.telemetry import MessageEvent
from repro.errors import ParameterError

#: Ladder stages of one in-flight block fetch.
STAGE_ENGINE = "engine"        # Graphene engine exchange in progress
STAGE_REQUEST = "request"      # baseline protocol request outstanding
STAGE_FULLBLOCK = "fullblock"  # escalated to a full-block getdata


@dataclass
class RecoveryPolicy:
    """Knobs for the relay recovery ladder.

    ``timeout_base`` is the first-attempt timer; each retry multiplies
    it by ``backoff``.  ``max_retries`` caps resends *per rung* (the
    engine/request rung and the full-block rung each get their own
    budget).  ``telemetry_cap`` and ``serving_cap`` bound the retention
    registries (completed relay telemetry streams, sender-side serving
    engines) so long simulations do not grow without bound.
    """

    enabled: bool = True
    timeout_base: float = 2.0
    backoff: float = 2.0
    max_retries: int = 3
    telemetry_cap: int = 256
    serving_cap: int = 64

    def __post_init__(self):
        if self.timeout_base <= 0:
            raise ParameterError(
                f"timeout_base must be > 0, got {self.timeout_base}")
        if self.backoff < 1.0:
            raise ParameterError(
                f"backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 0:
            raise ParameterError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.telemetry_cap < 1 or self.serving_cap < 1:
            raise ParameterError("retention caps must be >= 1")

    def timeout_for(self, attempts: int) -> float:
        """Timer duration after ``attempts`` resends on this rung."""
        return self.timeout_base * self.backoff ** attempts


@dataclass
class FetchState:
    """Recovery-ladder state of one in-flight exchange (a block fetch
    or a mempool sync).

    ``peer`` is a peer handle: the node id in the simulator, the
    connection id on sockets.  ``key`` tags the exchange on the wire
    (the block's Merkle root, the sync nonce); ``engine`` is its
    receiver engine; ``timer`` is whatever the driver's clock hands
    back (an ``EventHandle`` or an ``asyncio.TimerHandle``).
    """

    peer: object                    # announcer currently serving the fetch
    stage: str                      # STAGE_ENGINE/REQUEST/FULLBLOCK
    attempts: int = 0               # resends on the current rung
    timer: Optional[object] = None  # handle of the armed timeout
    tried: Set[object] = field(default_factory=set)  # exhausted peers
    key: object = None
    engine: Optional[object] = None


#: What a ladder step asks the host to do next.
RESEND = "resend"        # same request again, to the same peer
ESCALATE = "escalate"    # give up on the exchange, fetch the full block
FAILOVER = "failover"    # restart the exchange at the next announcer
ABANDON = "abandon"      # every announcer exhausted: GC the fetch


def fullblock_event(outcome: str = "") -> MessageEvent:
    """A receiver-side event of the full-block rung, where no engine is
    driving: the escalation request itself (``outcome=""``), a
    ``"timeout"`` on it, or its ``"retry"``.

    The two sends carry ``extra_getdata`` -- real bytes, honestly
    charged, and the retry re-charges a decomposition the anchor
    actually carried; a timeout is zero-byte.
    """
    parts = {} if outcome == "timeout" \
        else {"extra_getdata": getdata_bytes(0)}
    return MessageEvent(command="getdata", direction="sent",
                        role="receiver", phase="fetch", roundtrip=4,
                        parts=parts, outcome=outcome)


def on_timeout(state: FetchState, policy: RecoveryPolicy, tally,
               engine, stream) -> str:
    """The armed timer of ``state`` fired: count it, record it, and
    pick the rung -- :data:`RESEND` (bookkept here), :data:`ESCALATE`
    or :data:`FAILOVER` (the host marks the span, then calls
    :func:`escalate` / :func:`fail_over`).

    ``tally`` carries the ``relay_timeouts`` / ``relay_retries``
    counters.  ``engine`` is the receiver engine while it drives the
    exchange (it knows the stalled request's phase, and its
    ``reemit_last_request`` records the retry), else ``None``;
    ``stream`` is the relay's telemetry stream, ``None`` for baseline
    protocols, which keep none.
    """
    tally.relay_timeouts += 1
    if engine is not None:
        engine.note_timeout()
    elif stream is not None:
        stream.append(fullblock_event("timeout"))
    if state.attempts < policy.max_retries:
        state.attempts += 1
        tally.relay_retries += 1
        if state.stage == STAGE_FULLBLOCK and stream is not None:
            stream.append(fullblock_event("retry"))
        return RESEND
    return FAILOVER if state.stage == STAGE_FULLBLOCK else ESCALATE


def escalate(state: FetchState, stream) -> None:
    """Rung 2, entered from a timeout or a decode failure: the host
    sends a full-block getdata to ``state.peer``; this records it."""
    state.stage = STAGE_FULLBLOCK
    state.attempts = 0
    if stream is not None:
        stream.append(fullblock_event())


def fail_over(state: FetchState, announcers, stage: str) -> str:
    """Rung 3: ``state.peer`` is a lost cause.  Move to the first of
    ``announcers`` (the root's live announcers, in arrival order) not
    yet tried and return :data:`FAILOVER` -- the host restarts the
    exchange there at ``stage`` -- or :data:`ABANDON`."""
    state.tried.add(state.peer)
    alternate = next((peer for peer in announcers
                      if peer not in state.tried), None)
    if alternate is None:
        return ABANDON
    state.peer = alternate
    state.stage = stage
    state.attempts = 0
    return FAILOVER


def prune_oldest(registry: dict, cap: int) -> None:
    """Evict insertion-oldest entries until ``registry`` fits ``cap``."""
    while len(registry) > cap:
        registry.pop(next(iter(registry)))

