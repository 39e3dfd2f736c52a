"""The peer group: concurrent demux, real-socket failover, GC.

PR 8 proved one socket speaks the wire byte-identically to loopback;
these tests prove the *group* semantics on top of the same frames:

* concurrent exchanges demultiplexed by root key -- two blocks in
  flight on one connection, the same block announced by two peers;
* duplicate-inv suppression: N announcers, one exchange, every
  announcer registered for failover;
* the recovery ladder's rung 3 for real: first announcer blackholed,
  the fetch escalates, fails over to a different TCP connection, and
  the surviving path stays byte-identical to loopback;
* abandon + GC: every announcer dead leaves no state behind, and a
  fresh healthy announcer restarts the fetch from scratch.
"""

from __future__ import annotations

import asyncio
import json

from repro.chain.scenarios import make_block_scenario
from repro.codec import encode_tx_list
from repro.core.session import BlockRelaySession
from repro.net.peer import (
    BlockServer,
    MeshFetchResult,
    PeerConnection,
    PeerManager,
    encode_inv,
)
from repro.net.recovery import RecoveryPolicy
from repro.obs import Tracer, WallClock

#: Small timeouts so ladder tests stall in milliseconds, not seconds.
FAST = dict(timeout_base=0.1, backoff=1.5, max_retries=1)

#: Every request command a server can go dark on: the peer handshakes
#: and hears the inv, then nothing -- the deterministic stand-in for a
#: blackholed announcer.
BLACKHOLE = {command: 10 ** 9
             for command in ("getdata", "graphene_p2_request",
                             "getdata_shortids", "getdata_block")}


def _scenario(seed, fraction=1.0, n=60):
    return make_block_scenario(n=n, extra=n, fraction=fraction, seed=seed)


def _loopback(seed, fraction=1.0, n=60, mempool=None):
    sc = _scenario(seed, fraction, n)
    return BlockRelaySession().relay(
        sc.block, mempool if mempool is not None else sc.receiver_mempool)


def _assert_event_parity(events, loop):
    assert json.dumps([e.as_dict() for e in events]) \
        == json.dumps([e.as_dict() for e in loop.events])


async def _drain(manager, count, timeout=15):
    results = [await manager.fetch_next(timeout=timeout)
               for _ in range(count)]
    return {r.root: r for r in results}


class TestConcurrentDemux:
    def test_two_roots_in_flight_on_one_connection(self):
        """One serving manager announces two blocks on one connection;
        both exchanges complete, each byte-identical to its loopback
        twin run against the same combined mempool."""
        sc1, sc2 = _scenario(11), _scenario(22)
        combined = _scenario(11).receiver_mempool
        combined.add_many(_scenario(22).receiver_mempool.transactions())

        async def run():
            serving = PeerManager(node_id="hub")
            port = await serving.listen()
            fetching = PeerManager(node_id="leaf", mempool=combined,
                                   policy=RecoveryPolicy(**FAST))
            try:
                await fetching.connect("127.0.0.1", port)
                await asyncio.sleep(0.05)  # inbound handshake settles
                serving.serve_block(sc1.block)
                serving.serve_block(sc2.block)
                return await _drain(fetching, 2)
            finally:
                await fetching.close()
                await serving.close()

        by_root = asyncio.run(run())
        assert len(by_root) == 2
        for sc, seed in ((sc1, 11), (sc2, 22)):
            result = by_root[sc.block.header.merkle_root]
            assert result.success and not result.escalated
            loop = _loopback(seed, mempool=_rebuild_combined())
            assert json.dumps(result.cost.as_dict(), sort_keys=True) \
                == json.dumps(loop.cost.as_dict(), sort_keys=True)
            _assert_event_parity(result.events, loop)

    def test_same_root_from_two_peers_is_one_exchange(self):
        """Two servers announce the same block: one exchange runs, the
        second announcer only joins the failover registry.  s1 drops
        one getdata so the exchange is deterministically still open
        when s2's inv lands."""
        sc = _scenario(33)

        async def run():
            s1 = BlockServer(sc.block, node_id="s1",
                             drop={"getdata": 1})
            s2 = BlockServer(sc.block, node_id="s2")
            p1, p2 = await s1.start(), await s2.start()
            manager = PeerManager(node_id="leaf",
                                  mempool=sc.receiver_mempool,
                                  policy=RecoveryPolicy(
                                      timeout_base=0.3, max_retries=2))
            try:
                await manager.connect("127.0.0.1", p1)
                await manager.connect("127.0.0.1", p2)
                result = await manager.fetch_next(timeout=15)
                # Both invs arrived (dedup counts them as distinct
                # announcers, not as duplicates of one connection).
                assert manager.invs_seen == 2
                return result, manager.pending_fetches
            finally:
                await manager.close()
                await s1.close()
                await s2.close()

        result, pending = asyncio.run(run())
        assert result.success and not result.escalated
        assert result.timeouts == 1 and result.retries == 1
        assert result.announcers == ["s1", "s2"]
        assert pending == 0
        # Stripped of the honest timeout/retry events, the stream is
        # the clean loopback exchange.
        loop = _loopback(33)
        _assert_event_parity([e for e in result.events
                              if e.outcome not in ("timeout", "retry")],
                             loop)

    def test_repeat_inv_on_same_connection_is_suppressed(self):
        sc = _scenario(44)

        async def run():
            serving = PeerManager(node_id="hub")
            port = await serving.listen()
            fetching = PeerManager(node_id="leaf",
                                   mempool=sc.receiver_mempool,
                                   policy=RecoveryPolicy(**FAST))
            try:
                await fetching.connect("127.0.0.1", port)
                await asyncio.sleep(0.05)
                serving.serve_block(sc.block)
                result = await fetching.fetch_next(timeout=15)
                # Announce again on the same connection: both the
                # already-fetched root and the repeated source must be
                # suppressed without opening an exchange.
                serving.serve_block(sc.block)
                await asyncio.sleep(0.2)
                return result, fetching
            finally:
                await fetching.close()
                await serving.close()

        result, fetching = asyncio.run(run())
        assert result.success
        assert fetching.inv_duplicates == 1
        assert fetching.pending_fetches == 0


class TestSocketFailover:
    def test_blackholed_announcer_fails_over(self):
        """Rung 3 on real sockets: the first announcer never answers,
        the ladder escalates then fails over to the second connection,
        and the surviving path is byte-identical to loopback."""
        sc = _scenario(55)
        tracer = Tracer(WallClock())

        async def run():
            s1 = BlockServer(sc.block, node_id="dark",
                             drop=dict(BLACKHOLE))
            s2 = BlockServer(sc.block, node_id="bright")
            p1, p2 = await s1.start(), await s2.start()
            manager = PeerManager(node_id="leaf",
                                  mempool=sc.receiver_mempool,
                                  policy=RecoveryPolicy(**FAST),
                                  tracer=tracer)
            try:
                await manager.connect("127.0.0.1", p1)
                await asyncio.sleep(0.05)  # dark's inv arrives first
                await manager.connect("127.0.0.1", p2)
                return await manager.fetch_next(timeout=15)
            finally:
                await manager.close()
                await s1.close()
                await s2.close()

        result = asyncio.run(run())
        assert isinstance(result, MeshFetchResult)
        assert result.success and result.escalated
        assert result.failovers == 1 and not result.via_fullblock
        assert result.announcers == ["dark", "bright"]
        # Same ladder shape as the simulator: escalate, then failover,
        # then completion -- visible as span marks in order.
        assert [m.name for m in tracer.marks] \
            == ["escalate", "failover", "done"]
        assert dict(tracer.marks[0].detail) \
            == {"peer": "dark", "why": "timeout"}
        assert dict(tracer.marks[1].detail) == {"to": "bright"}
        # The surviving attempt re-records inv + getdata (fresh engine,
        # same stream -- the simulator's failover shape), so its slice
        # alone is byte-identical to a clean loopback relay.
        loop = _loopback(55)
        _assert_event_parity(result.surviving_events, loop)
        assert json.dumps(result.surviving_cost.as_dict(), sort_keys=True) \
            == json.dumps(loop.cost.as_dict(), sort_keys=True)
        # The full stream additionally charges the failed attempt's
        # timeouts and retries -- honestly, on top of the clean cost.
        assert result.timeouts >= 4
        assert result.cost.total(include_txs=True) \
            > result.surviving_cost.total(include_txs=True)
        outcomes = [e.outcome for e in result.events if e.outcome
                    in ("timeout", "retry")]
        assert "timeout" in outcomes and "retry" in outcomes

    def test_dead_connection_fails_over_immediately(self):
        """A server killed mid-relay (connection reset, not timeout)
        triggers failover without waiting out the backoff ladder."""
        sc = _scenario(66)
        tracer = Tracer(WallClock())

        async def run():
            s1 = BlockServer(sc.block, node_id="doomed",
                             drop=dict(BLACKHOLE))
            s2 = BlockServer(sc.block, node_id="healthy")
            p1, p2 = await s1.start(), await s2.start()
            manager = PeerManager(node_id="leaf",
                                  mempool=sc.receiver_mempool,
                                  policy=RecoveryPolicy(
                                      timeout_base=30.0, max_retries=1),
                                  tracer=tracer)
            try:
                cid1 = await manager.connect("127.0.0.1", p1)
                await asyncio.sleep(0.05)
                await manager.connect("127.0.0.1", p2)
                await asyncio.sleep(0.1)  # exchange opens against s1
                # Sever the s1 connection mid-relay: the read loop sees
                # EOF and must fail over without waiting for the timer.
                await manager.connections[cid1].conn.close()
                result = await manager.fetch_next(timeout=15)
                return result
            finally:
                await manager.close()
                await s1.close()
                await s2.close()

        result = asyncio.run(run())
        assert result.success
        assert result.failovers == 1
        assert result.timeouts == 0  # the 30 s timer never fired
        assert [m.name for m in tracer.marks] == ["failover", "done"]
        _assert_event_parity(result.surviving_events, _loopback(66))

    def test_fullblock_path_also_fails_over(self):
        """An announcer that answers nothing but also survives its own
        fullblock rung hands the fetch to the next announcer, and the
        block can arrive via the alternate's fullblock rung too."""
        sc = _scenario(77)

        async def run():
            # Both announcers drop engine traffic; the second still
            # serves full blocks, so the fetch completes via rung 2 on
            # the *second* connection.
            s1 = BlockServer(sc.block, node_id="dark",
                             drop=dict(BLACKHOLE))
            s2 = BlockServer(sc.block, node_id="dim",
                             drop={"getdata": 10 ** 9})
            p1, p2 = await s1.start(), await s2.start()
            manager = PeerManager(node_id="leaf",
                                  mempool=sc.receiver_mempool,
                                  policy=RecoveryPolicy(**FAST))
            try:
                await manager.connect("127.0.0.1", p1)
                await asyncio.sleep(0.05)
                await manager.connect("127.0.0.1", p2)
                return await manager.fetch_next(timeout=30)
            finally:
                await manager.close()
                await s1.close()
                await s2.close()

        result = asyncio.run(run())
        assert result.success and result.via_fullblock
        assert result.failovers == 1
        assert [tx.txid for tx in result.txs] \
            == [tx.txid for tx in sc.block.txs]


class TestAbandonAndGC:
    def test_all_announcers_exhausted_abandons_and_gcs(self):
        """Every announcer blackholed: the fetch is abandoned with all
        registries empty -- and a fresh healthy announcer restarts it
        from scratch, exactly like the simulator's re-inv semantics."""
        sc = _scenario(88)
        tracer = Tracer(WallClock())

        async def run():
            s1 = BlockServer(sc.block, node_id="dark1",
                             drop=dict(BLACKHOLE))
            s2 = BlockServer(sc.block, node_id="dark2",
                             drop=dict(BLACKHOLE))
            p1, p2 = await s1.start(), await s2.start()
            manager = PeerManager(node_id="leaf",
                                  mempool=sc.receiver_mempool,
                                  policy=RecoveryPolicy(**FAST),
                                  tracer=tracer)
            try:
                await manager.connect("127.0.0.1", p1)
                await asyncio.sleep(0.05)
                await manager.connect("127.0.0.1", p2)
                result = await manager.fetch_next(timeout=30)
                gc_clean = (manager.pending_fetches == 0
                            and not manager.announced_roots)
                # The ladder ended; a fresh healthy announcer restarts
                # the fetch from nothing.
                s3 = BlockServer(sc.block, node_id="fresh")
                p3 = await s3.start()
                try:
                    await manager.connect("127.0.0.1", p3)
                    retry = await manager.fetch_next(timeout=15)
                finally:
                    # Close the manager first: BlockServer.close()
                    # waits for its handler, which only ends once the
                    # manager's side of the connection is gone.
                    await manager.close()
                    await s3.close()
                return result, gc_clean, retry
            finally:
                await manager.close()
                await s1.close()
                await s2.close()

        result, gc_clean, retry = asyncio.run(run())
        assert not result.success and result.abandoned
        assert result.block is None
        # Both announcers were climbed: escalate + failover + escalate
        # again on the alternate, then abandon.
        assert [m.name for m in tracer.marks][:4] \
            == ["escalate", "failover", "escalate", "abandon"]
        assert result.failovers == 1
        assert gc_clean
        assert retry.success
        assert retry.announcers == ["fresh"]
        _assert_event_parity(retry.surviving_events, _loopback(88))

    def test_close_cancels_inflight_fetch_cleanly(self):
        sc = _scenario(99)

        async def run():
            s1 = BlockServer(sc.block, node_id="dark",
                             drop=dict(BLACKHOLE))
            p1 = await s1.start()
            manager = PeerManager(node_id="leaf",
                                  mempool=sc.receiver_mempool,
                                  policy=RecoveryPolicy(
                                      timeout_base=30.0, max_retries=1))
            try:
                await manager.connect("127.0.0.1", p1)
                await asyncio.sleep(0.1)  # fetch opens, then we bail
                assert manager.pending_fetches == 1
            finally:
                await manager.close()
                await s1.close()
            return manager

        manager = asyncio.run(run())
        assert not manager.connections


class TestHostileFullBlock:
    """The full-block rung checks the body, not just the header."""

    @staticmethod
    async def _lying_server(block, body_txs):
        """Announces ``block``, ignores every engine request, and
        answers ``getdata_block`` with the right header over
        ``body_txs``."""
        async def handle(reader, writer):
            conn = PeerConnection(reader, writer, "liar")
            try:
                await conn.handshake()
                conn.send("inv", encode_inv(block.header.merkle_root))
                await conn.drain()
                while True:
                    frame = await conn.read_frame()
                    if frame is None:
                        break
                    if frame[0] == "getdata_block":
                        conn.send("block", block.header.serialize()
                                  + encode_tx_list(body_txs))
                        await conn.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                await conn.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        return server, server.sockets[0].getsockname()[1]

    def _fetch(self, with_honest_alternate):
        sc = _scenario(123)
        wrong = _scenario(124).block.txs

        async def run():
            liar, liar_port = await self._lying_server(sc.block, wrong)
            honest = BlockServer(sc.block, node_id="honest")
            honest_port = await honest.start()
            manager = PeerManager(node_id="leaf",
                                  mempool=sc.receiver_mempool,
                                  policy=RecoveryPolicy(**FAST))
            try:
                await manager.connect("127.0.0.1", liar_port)
                if with_honest_alternate:
                    await asyncio.sleep(0.05)  # the liar's inv is first
                    await manager.connect("127.0.0.1", honest_port)
                return await manager.fetch_next(timeout=15)
            finally:
                await manager.close()
                await honest.close()
                liar.close()
                await liar.wait_closed()

        return sc, asyncio.run(run())

    def test_sole_liar_is_abandoned_never_believed(self):
        _, result = self._fetch(with_honest_alternate=False)
        assert not result.success and result.abandoned
        assert result.block is None and result.txs is None
        assert result.escalated and not result.via_fullblock

    def test_fetch_ends_on_the_second_announcer(self):
        sc, result = self._fetch(with_honest_alternate=True)
        assert result.success and result.failovers == 1
        # The liar's connection was dropped, so only its slot remains.
        assert len(result.announcers) == 2
        assert result.announcers[1] == "honest"
        assert result.block.txids == sc.block.txids
        _assert_event_parity(result.surviving_events, _loopback(123))


class TestPureServerRegistry:
    def test_invs_to_a_mempoolless_manager_register_nothing(self):
        """A manager without a mempool never opens a fetch, so nothing
        would ever pop an announcer entry: it must not make one."""
        blocks = [_scenario(seed, n=10).block for seed in range(200, 205)]

        async def run():
            serving = PeerManager(node_id="hub")  # no mempool
            port = await serving.listen()
            announcing = PeerManager(node_id="leaf")
            try:
                await announcing.connect("127.0.0.1", port)
                for block in blocks:
                    announcing.serve_block(block)
                for _ in range(100):
                    if serving.invs_seen == len(blocks):
                        break
                    await asyncio.sleep(0.01)
                return serving.invs_seen, serving.announced_roots
            finally:
                await announcing.close()
                await serving.close()

        invs_seen, announced = asyncio.run(run())
        assert invs_seen == len(blocks)
        assert announced == {}


class TestMeshRelay:
    def test_listening_fetcher_reserves_fetched_block(self):
        """A ``--listen`` node is a relay: once it fetches the block it
        serves it onward, so a third node can fetch from *it*."""
        sc = _scenario(111)
        downstream_pool = _scenario(111).receiver_mempool

        async def run():
            origin = BlockServer(sc.block, node_id="origin")
            port = await origin.start()
            middle = PeerManager(node_id="middle",
                                 mempool=sc.receiver_mempool,
                                 policy=RecoveryPolicy(**FAST))
            leaf = PeerManager(node_id="leaf", mempool=downstream_pool,
                               policy=RecoveryPolicy(**FAST))
            try:
                middle_port = await middle.listen()
                await leaf.connect("127.0.0.1", middle_port)
                await middle.connect("127.0.0.1", port)
                first = await middle.fetch_next(timeout=15)
                second = await leaf.fetch_next(timeout=15)
                return first, second
            finally:
                await leaf.close()
                await middle.close()
                await origin.close()

        first, second = asyncio.run(run())
        assert first.success and second.success
        assert second.announcers == ["middle"]
        assert second.block.header.merkle_root \
            == sc.block.header.merkle_root
        # The re-relay is a fresh clean exchange: byte-identical to the
        # loopback relay of the same block against the same mempool.
        _assert_event_parity(second.events, _loopback(111))


def _rebuild_combined():
    combined = _scenario(11).receiver_mempool
    combined.add_many(_scenario(22).receiver_mempool.transactions())
    return combined
