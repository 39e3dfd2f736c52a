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
import gc
import json
import weakref

import pytest

from repro.chain.scenarios import make_block_scenario
from repro.codec import encode_tx_list
from repro.core.engine import GrapheneReceiverEngine
from repro.core.params import GrapheneConfig
from repro.core.session import BlockRelaySession
from repro.net.peer import (
    BlockServer,
    MeshFetchResult,
    PeerConnection,
    PeerManager,
    encode_inv,
    encode_keyed,
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


async def _fan_out(server, block, fetchers):
    """Dial ``server`` (listening) from every fetcher not yet connected,
    serve ``block`` and return each fetcher's result, in order."""
    for fetcher in fetchers:
        if not fetcher.connections:
            await fetcher.connect("127.0.0.1", server.port)
    server.serve_block(block)
    return await asyncio.gather(
        *(fetcher.fetch_next(timeout=15) for fetcher in fetchers))


def _serve_once(block, mempools, config=None, policy=None):
    """One serving manager, one fetcher per mempool, one block: returns
    the (closed) server -- its registry outlives it -- and the results."""
    async def run():
        server = PeerManager("server", config=config, policy=policy)
        await server.listen()
        fetchers = [PeerManager(f"fetcher{i}", mempool=mempool,
                                config=config)
                    for i, mempool in enumerate(mempools)]
        try:
            return server, await _fan_out(server, block, fetchers)
        finally:
            for manager in fetchers + [server]:
                await manager.close()

    return asyncio.run(run())


def _assert_loopback_twin(result, block, mempool, config=None):
    loop = BlockRelaySession(config).relay(block, mempool)
    assert result.success and not result.escalated
    assert result.block.txids == block.txids
    assert result.cost.as_dict() == loop.cost.as_dict()
    _assert_event_parity(result.events, loop)
    return loop


class TestServedOnce:
    """A block is opened once per node: one sender engine per held root
    answers every connection (the host's ``serving_engines``, as on a
    simulated ``Node``), and it lives no longer than its block."""

    @pytest.mark.parametrize("fetchers", [2, 5])
    def test_equal_m_is_one_opening(self, fetchers):
        sc = _scenario(301, n=120)
        pools = [sc.receiver_mempool.copy() for _ in range(fetchers)]
        server, results = _serve_once(sc.block, pools)
        (engine,) = server.serving_engines.values()
        assert engine.openings_built == 1
        assert [event.command for event in engine.telemetry] \
            == ["graphene_block"] * fetchers
        for result, pool in zip(results, pools):
            _assert_loopback_twin(result, sc.block, pool)

    def test_protocol3_shares_one_symbol_stream(self):
        """5 % of the block missing: opening, one continuation each --
        all five peers read the one engine's one ``RIBLTEncoder``."""
        config = GrapheneConfig(protocol=3)
        sc = _scenario(302, fraction=0.95, n=200)
        pools = [sc.receiver_mempool.copy() for _ in range(5)]
        server, results = _serve_once(sc.block, pools, config=config)
        (engine,) = server.serving_engines.values()
        assert engine.openings_built == 1
        served = [event.command for event in engine.telemetry]
        assert served.count("graphene_p3_block") == 5
        assert served.count("graphene_p3_symbols") >= 5
        for result, pool in zip(results, pools):
            loop = _assert_loopback_twin(result, sc.block, pool, config)
            assert result.protocol_used == loop.protocol_used == 3

    def test_different_m_is_two_openings_both_correct(self):
        sc = _scenario(303, n=120)
        small = sc.receiver_mempool.copy()
        large = sc.receiver_mempool.copy()
        large.add_many(_scenario(304, n=40).receiver_mempool.transactions())
        assert len(small) != len(large)
        server, results = _serve_once(sc.block, [small, large, small.copy()])
        (engine,) = server.serving_engines.values()
        assert engine.openings_built == 2
        for result, pool in zip(results, (small, large, small)):
            _assert_loopback_twin(result, sc.block, pool)

    def test_multi_frame_exchanges_survive_a_serving_cap_of_one(self):
        """The bug the re-keying closes: per ``(connection, root)`` a
        cap of 1 (or > 64 connections at the default) evicted the first
        fetcher's engine when the second's ``getdata`` arrived and
        rebuilt it on the next frame.  P1 fails, P2, short-id fetch --
        three serves per fetcher, all from the one engine."""
        sc = _scenario(305, fraction=0.9, n=200)
        pools = [sc.receiver_mempool.copy() for _ in range(2)]
        server, results = _serve_once(
            sc.block, pools, policy=RecoveryPolicy(serving_cap=1))
        (engine,) = server.serving_engines.values()
        assert engine.openings_built == 1
        assert sorted(event.command for event in engine.telemetry) \
            == sorted(["graphene_block", "graphene_p2_response",
                       "block_txs"] * 2)
        for result, pool in zip(results, pools):
            loop = _assert_loopback_twin(result, sc.block, pool)
            assert result.roundtrips == loop.roundtrips > 2

    def test_an_engine_lives_no_longer_than_its_block(self):
        """``blocks.pop(root)`` is all a caller does to retire a block
        (``benchmarks/e2e/socketpair.py``): the next served block sweeps
        the unreachable engine, and nothing else pins the ``Block``."""
        pool = _scenario(306).receiver_mempool
        pool.add_many(_scenario(307).receiver_mempool.transactions())

        async def run():
            server = PeerManager("server")
            await server.listen()
            fetcher = PeerManager("fetcher", mempool=pool)
            try:
                block = _scenario(306).block
                gone = weakref.ref(block)
                (first,) = await _fan_out(server, block, [fetcher])
                del block
                server.blocks.pop(first.root, None)
                (second,) = await _fan_out(server, _scenario(307).block,
                                           [fetcher])
                gc.collect()
                return server, first, second, gone()
            finally:
                await fetcher.close()
                await server.close()

        server, first, second, popped = asyncio.run(run())
        assert first.success and second.success
        assert popped is None
        assert list(server.serving_engines) == [second.root] != [first.root]

    def test_serving_cap_bounds_blocks(self):
        scenarios = [_scenario(310 + i, n=20) for i in range(4)]
        pool = scenarios[0].receiver_mempool
        for sc in scenarios[1:]:
            pool.add_many(sc.receiver_mempool.transactions())

        async def run():
            server = PeerManager("server",
                                 policy=RecoveryPolicy(serving_cap=2))
            await server.listen()
            fetcher = PeerManager("fetcher", mempool=pool)
            try:
                sizes = []
                for sc in scenarios:  # every block stays held
                    (result,) = await _fan_out(server, sc.block, [fetcher])
                    assert result.success
                    sizes.append(len(server.serving_engines))
                return sizes, list(server.serving_engines)
            finally:
                await fetcher.close()
                await server.close()

        sizes, roots = asyncio.run(run())
        assert sizes == [1, 2, 2, 2]
        assert roots == [sc.block.header.merkle_root
                         for sc in scenarios[2:]]

    def test_a_fetcher_leaving_mid_exchange_leaves_the_engine(self):
        """A disconnect touches no serving state: the quitter opens the
        exchange and hangs up; the others are served from the engine it
        opened."""
        sc = _scenario(320, n=120)
        pools = [sc.receiver_mempool.copy() for _ in range(2)]
        root = sc.block.header.merkle_root
        getdata = GrapheneReceiverEngine(sc.receiver_mempool).start().message

        async def run():
            server = PeerManager("server")
            port = await server.listen()
            server.serve_block(sc.block)  # announced as each peer connects
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            quitter = PeerConnection(reader, writer, "quitter")
            await quitter.handshake()
            quitter.send("getdata", encode_keyed(root, getdata))
            await quitter.drain()
            while (await asyncio.wait_for(quitter.read_frame(), 5))[0] \
                    != "graphene_block":
                pass
            opened = server.serving_engines[root]
            await quitter.close()
            await asyncio.wait_for(server.wait_served(1), 5)
            fetchers = [PeerManager(f"fetcher{i}", mempool=pool)
                        for i, pool in enumerate(pools)]
            try:
                for fetcher in fetchers:
                    await fetcher.connect("127.0.0.1", port)
                results = await asyncio.gather(
                    *(fetcher.fetch_next(timeout=15) for fetcher in fetchers))
                return opened, server.serving_engines, results
            finally:
                for manager in fetchers + [server]:
                    await manager.close()

        opened, engines, results = asyncio.run(run())
        assert engines == {root: opened}
        assert opened.openings_built == 1 and len(opened.telemetry) == 3
        for result, pool in zip(results, pools):
            _assert_loopback_twin(result, sc.block, pool)


def _rebuild_combined():
    combined = _scenario(11).receiver_mempool
    combined.add_many(_scenario(22).receiver_mempool.transactions())
    return combined
