"""The relay host with no simulator and no socket.

:class:`~repro.net.host.RelayHost` is driven here through a recording
driver on a fake clock: every verb call is a list entry, every timer is
a list entry fired by hand, and the Graphene sender engine answering
the host is called inline.  What the simulator's ``Node`` and the
sockets' ``PeerManager`` share is pinned once, here: the ladder's rungs
in order, decode-failed escalation, peer-gone failover, late-frame
shedding, cancelled timers, the serving sweep and cap, abandon's clean
slate, and a mempool sync between two hosts with its frames pumped by
hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.chain.scenarios import make_block_scenario, make_sync_scenario
from repro.codec import encode_tx_list
from repro.core.engine import GrapheneSenderEngine
from repro.core.params import GrapheneConfig
from repro.errors import ProtocolFailure
from repro.net.host import HostViews, RelayHost
from repro.net.recovery import RecoveryPolicy
from repro.obs import Tracer


@dataclass
class _Timer:
    when: float
    fn: Callable[[], None]
    cancelled: bool = False
    fired: bool = False

    def cancel(self) -> None:
        self.cancelled = True


class FakeClock:
    """Timers in a list; :meth:`fire` runs the earliest live one."""

    def __init__(self):
        self.now = 0.0
        self.timers: list = []

    def call_later(self, delay, fn) -> _Timer:
        timer = _Timer(self.now + delay, fn)
        self.timers.append(timer)
        return timer

    @property
    def live(self) -> list:
        return [t for t in self.timers if not (t.cancelled or t.fired)]

    def fire(self) -> float:
        timer = min(self.live, key=lambda t: t.when)
        self.now, timer.fired = timer.when, True
        timer.fn()
        return self.now


class RecordingDriver(HostViews):
    """A host's driver that only records: ``calls`` holds one tuple per
    verb (``("send", peer, wire command)``, ``("full", peer)`` or
    ``("push", peer, nonce, txs)``), the last action sent to each peer
    waits in ``outbox``, and ``sent`` queues every frame as a host
    entry takes it: ``(command, key, message)``."""

    def __init__(self, mempool, recovery=None, blocks=None,
                 node_id="host"):
        self.node_id = node_id
        self.mempool = mempool
        self.config = GrapheneConfig()
        self.recovery = recovery or RecoveryPolicy(
            timeout_base=1.0, backoff=2.0, max_retries=1)
        self.blocks = dict(blocks or {})
        self.clock = FakeClock()
        self.tracer = Tracer(self.clock)
        self.gone: set = set()
        self.calls: list = []
        self.outbox: dict = {}
        self.finished: list = []
        self.sent: list = []
        self.host = RelayHost(self)

    def send_action(self, peer, key, action, wire=None):
        command = action.command if wire is None else wire[action.command]
        self.calls.append(("send", peer, command))
        self.outbox[peer] = action
        self.sent.append((command, key, action.message))

    def push_txs(self, peer, nonce, txs, event):
        self.calls.append(("push", peer, nonce, txs))
        self.sent.append(("sync_push", nonce, txs))

    def request_block(self, peer, root, full):
        self.calls.append(("full" if full else "request", peer))

    def call_later(self, delay, fn):
        return self.clock.call_later(delay, fn)

    def is_alive(self, peer):
        return peer not in self.gone

    def peer_label(self, peer):
        return f"p{peer}"

    def fetch_finished(self, peer, block, fetch):
        self.finished.append((peer, block, fetch))

    # -- helpers --------------------------------------------------------

    @property
    def marks(self) -> list:
        return [(m.name, dict(m.detail)) for m in self.tracer.marks]

    def reply(self, peer, sender, root):
        """``sender``'s answer to the last request sent to ``peer``."""
        request = self.outbox.pop(peer)
        return sender.handle(request.command, request.message)

    def deliver(self, peer, answer, root):
        self.host.on_frame(peer, answer.command, root, answer.message)


def _setup(fraction=1.0, seed=3, n=60, **policy):
    sc = make_block_scenario(n=n, extra=n, fraction=fraction, seed=seed)
    driver = RecordingDriver(
        sc.receiver_mempool,
        RecoveryPolicy(**{"timeout_base": 1.0, "backoff": 2.0,
                          "max_retries": 1, **policy}))
    return sc, driver, sc.block.header.merkle_root


def _assert_clean_slate(driver):
    assert driver.pending_fetches == 0
    assert driver.announced_roots == {}
    assert driver.serving_engines == {}
    assert driver.clock.live == []


class TestLadder:
    def test_every_rung_in_order(self):
        """Two silent announcers: resend, escalate, resend the full
        block, fail over -- twice -- then abandon with nothing left."""
        _, driver, root = _setup()
        assert driver.host.on_inv(0, root)
        assert driver.host.on_inv(1, root)
        assert not driver.host.on_inv(1, root)  # a repeat registers once
        assert driver.announced_roots == {root: [0, 1]}
        fired = [driver.clock.fire() for _ in range(8)]
        assert fired == [1.0, 3.0, 4.0, 6.0, 7.0, 9.0, 10.0, 12.0]
        assert driver.calls == [
            ("send", 0, "getdata"),
            ("send", 0, "getdata"),  # rung 1: the retry
            ("full", 0),             # rung 2
            ("full", 0),             # its retry
            ("send", 1, "getdata"),  # rung 3: a fresh engine at p1
            ("send", 1, "getdata"),
            ("full", 1),
            ("full", 1)]
        assert driver.marks == [
            ("escalate", {"why": "timeout", "peer": "p0"}),
            ("failover", {"to": "p1"}),
            ("escalate", {"why": "timeout", "peer": "p1"}),
            ("abandon", {})]
        assert (driver.relay_timeouts, driver.relay_retries) == (8, 4)
        ((peer, block, fetch),) = driver.finished
        assert peer is None and block is None
        assert fetch.failovers == 1 and fetch.escalated
        _assert_clean_slate(driver)
        # A fresh inv starts over, on the root's one stream.
        assert driver.host.on_inv(1, root)
        assert driver.pending_fetches == 1
        assert driver.host.fetches[root].stream is fetch.stream

    def test_decode_failure_escalates_without_a_timeout(self):
        """P1 fails, P2 asks for short ids, and a repair short of the
        block fails its Merkle check: rung 2 at once, counted as a
        failure, not a timeout."""
        sc, driver, root = _setup(fraction=0.4, seed=2736, n=120)
        sender = GrapheneSenderEngine(sc.block)
        driver.host.on_inv(0, root)
        for _ in range(2):  # getdata -> P1, P2 request -> P2 response
            driver.deliver(0, driver.reply(0, sender, root), root)
        assert driver.calls[-1] == ("send", 0, "getdata_shortids")
        driver.host.on_frame(0, "block_txs", root, encode_tx_list([]))
        assert driver.calls[-1] == ("full", 0)
        assert driver.marks == [
            ("escalate", {"why": "decode_failed", "peer": "p0"})]
        assert (driver.relay_failures, driver.relay_timeouts) == (1, 0)
        # The full block settles it, via rung 2.
        driver.host.on_block(0, sc.block)
        assert driver.marks[-1] == ("done", {"origin": "p0",
                                             "via": "fullblock"})
        assert driver.finished[-1][2].via_fullblock
        _assert_clean_slate(driver)

    def test_peer_gone_fails_over_at_once(self):
        sc, driver, root = _setup()
        driver.host.on_inv(0, root)
        driver.host.on_inv(1, root)
        driver.gone.add(0)
        driver.host.on_peer_gone(0)
        assert driver.calls == [("send", 0, "getdata"),
                                ("send", 1, "getdata")]
        assert driver.marks == [("failover", {"to": "p1"})]
        assert driver.relay_timeouts == 0
        assert len(driver.clock.live) == 1  # p0's timer went with it
        driver.deliver(1, driver.reply(1, GrapheneSenderEngine(sc.block),
                                       root), root)
        assert driver.marks[-1] == ("done", {"origin": "p1"})

    def test_timeout_at_a_gone_peer_fails_over(self):
        _, driver, root = _setup()
        driver.host.on_inv(0, root)
        driver.host.on_inv(1, root)
        driver.gone.add(0)  # the driver has not reported it yet
        driver.clock.fire()
        assert driver.calls[-1] == ("send", 1, "getdata")
        assert driver.relay_timeouts == 0


class TestShedding:
    def test_late_frames_are_shed(self):
        """A reply from an announcer the fetch left, a duplicate after
        a retry, and anything after done: none reaches an engine."""
        sc, driver, root = _setup()
        sender = GrapheneSenderEngine(sc.block)
        driver.host.on_inv(0, root)
        driver.host.on_inv(1, root)
        late = driver.reply(0, sender, root)
        driver.gone.add(0)
        driver.host.on_peer_gone(0)
        driver.deliver(0, late, root)  # p0 was left behind
        assert driver.host.frames_shed == 1
        assert driver.pending_fetches == 1
        driver.clock.fire()  # p1 is slow: one retry
        first = driver.reply(1, sender, root)
        driver.deliver(1, first, root)
        assert driver.marks[-1] == ("done", {"origin": "p1"})
        driver.deliver(1, first, root)  # the retry's duplicate answer
        assert driver.host.frames_shed == 2
        assert len(driver.finished) == 1

    def test_a_block_it_holds_is_shed_and_a_forged_one_raises(self):
        sc, driver, root = _setup()
        other = make_block_scenario(n=60, extra=60, seed=4).block
        driver.host.on_inv(0, root)
        forged = type(sc.block)(header=sc.block.header, txs=other.txs)
        with pytest.raises(ProtocolFailure, match="p0"):
            driver.host.on_block(0, forged)
        driver.host.on_block(7, sc.block)  # anyone's valid block will do
        assert driver.marks == [("done", {"origin": "p7"})]
        driver.host.on_block(0, sc.block)
        assert driver.host.frames_shed == 1
        assert not driver.host.on_inv(2, root)


class TestTimers:
    def test_a_cancelled_timer_never_fires(self):
        sc, driver, root = _setup()
        driver.host.on_inv(0, root)
        (armed,) = driver.clock.live
        driver.deliver(0, driver.reply(0, GrapheneSenderEngine(sc.block),
                                       root), root)
        assert armed.cancelled and not armed.fired
        assert driver.clock.live == []
        assert driver.relay_timeouts == 0
        _assert_clean_slate(driver)

    def test_disabled_recovery_arms_nothing(self):
        _, driver, root = _setup(enabled=False)
        driver.host.on_inv(0, root)
        assert driver.clock.timers == []


class TestServing:
    def test_sweep_and_cap(self):
        blocks = [make_block_scenario(n=20, extra=0, seed=s).block
                  for s in (11, 12, 13)]
        roots = [b.header.merkle_root for b in blocks]
        driver = RecordingDriver(None, RecoveryPolicy(serving_cap=2),
                                 {r: b for r, b in zip(roots, blocks)})
        getdata = (0).to_bytes(4, "little")
        for root in roots:
            driver.host.on_frame(5, "getdata", root, getdata)
        assert list(driver.serving_engines) == roots[1:]  # capped
        engine = driver.serving_engines[roots[2]]
        driver.host.on_frame(6, "getdata", roots[2], getdata)
        assert driver.serving_engines[roots[2]] is engine  # one per root
        assert engine.openings_built == 1
        del driver.blocks[roots[1]]
        driver.host.on_frame(5, "getdata", roots[0], getdata)
        assert list(driver.serving_engines) == [roots[2], roots[0]]
        driver.host.on_frame(5, "getdata", roots[1], getdata)  # not held
        assert roots[1] not in driver.serving_engines
        assert [c for c in driver.calls if c[0] == "send"] \
            == [("send", p, "graphene_block") for p in (5, 5, 5, 6, 5)]


def _sync_pair(**policy):
    """An initiator and a responder host over a 60-transaction sync
    scenario; each calls the other peer 0."""
    sc = make_sync_scenario(n=60, fraction_common=0.8, seed=7)
    recovery = RecoveryPolicy(**{"timeout_base": 1.0, "backoff": 2.0,
                                 "max_retries": 1, **policy})
    initiator = RecordingDriver(sc.receiver_mempool.copy(), recovery,
                                node_id="a")
    responder = RecordingDriver(sc.sender_mempool.copy(), recovery,
                                node_id="b")
    return sc, initiator, responder


def _pump(src, dst, peer=0):
    """Hand every frame ``src`` has sent to ``dst``, as from ``peer``;
    returns them."""
    frames, src.sent = src.sent, []
    for frame in frames:
        dst.host.on_sync_frame(peer, *frame)
    return frames


class TestSync:
    def test_success_pushes_h_last(self):
        sc, a, b = _sync_pair()
        before = set(a.mempool.txids)
        nonce = a.host.open_sync(0)
        while _pump(a, b) + _pump(b, a):
            pass
        state = a.host.syncs[nonce]
        assert state.done and state.succeeded
        (push,) = [c for c in a.calls if c[0] == "push"]
        h = {tx.txid for tx in push[3]}
        assert push[:3] == ("push", 0, nonce)
        assert h == before - set(sc.sender_mempool.txids) != set()
        assert state.events[-1].command == "sync_push"
        assert a.marks == [("done", {"pushed": str(len(h))})]
        assert set(a.mempool.txids) == set(b.mempool.txids)
        assert a.sync_sessions == {nonce: state}
        assert b.host.sync_serving == {}  # the push ended the serving
        assert a.clock.live == [] and a.frames_shed == 0

    def test_duplicate_and_third_peer_replies_are_shed(self):
        _, a, b = _sync_pair()
        a.host.open_sync(0)
        _pump(a, b)
        (reply,) = b.sent
        a.host.on_sync_frame(7, *reply)  # not the responder
        assert a.frames_shed == 1
        _pump(b, a)
        a.host.on_sync_frame(0, *reply)  # the same reply again
        assert a.frames_shed == 2
        while _pump(a, b) + _pump(b, a):
            pass
        assert a.marks[-1][0] == "done"

    def test_silent_responder_is_abandoned(self):
        _, a, _ = _sync_pair(max_retries=2)
        nonce = a.host.open_sync(0)
        fired = [a.clock.fire() for _ in range(3)]
        assert fired == [1.0, 3.0, 7.0]
        assert a.calls == [("send", 0, "mempool_sync_request")] * 3
        assert a.marks == [("abandon", {"attempts": "2"})]
        assert (a.relay_timeouts, a.relay_retries) == (3, 2)
        state = a.host.syncs[nonce]
        assert state.done and not state.succeeded
        assert a.clock.live == []
