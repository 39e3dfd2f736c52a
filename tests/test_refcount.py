"""A finished relay goes on refcount: it leaves no cyclic garbage.

An object in a reference cycle outlives its last outside reference
until the collector's next full pass; an engine in one pins the whole
exchange it reached (block, mempool, candidate set, symbol streams).
The rule that keeps the relay path acyclic: no instance stores a bound
method of itself.  Each test below warms its relay shape once, then,
with automatic collection off, runs it again and asks
``gc.collect()`` how much it had left behind -- it must be nothing.

What stays cyclic by design is the simulated network itself (``Node``
<-> ``RelayHost``, peers keyed by ``Node``, ``NodeStats`` -> ``Node``):
it is freed as a whole when dropped, so only a *live* network's
per-block garbage is asserted here.
"""

from __future__ import annotations

import asyncio
import gc
import random
from contextlib import contextmanager

from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.scenarios import make_block_scenario, make_sync_scenario
from repro.chain.transaction import TransactionGenerator
from repro.core.engine import (ActionKind, GrapheneReceiverEngine,
                               GrapheneSenderEngine)
from repro.core.mempool_sync import synchronize_mempools
from repro.core.params import GrapheneConfig
from repro.net.node import Node
from repro.net.peer import PeerManager
from repro.net.simulator import Simulator
from repro.net.topology import connect_random_regular
from repro.net.transport import LoopbackTransport


@contextmanager
def collector_off(garbage: list):
    """Run the body with automatic collection off; append what a full
    collection then finds."""
    gc.collect()
    gc.disable()
    try:
        yield
        garbage.append(gc.collect())
    finally:
        gc.enable()


def garbage_of(operation, calls: int = 1) -> list:
    """Warm ``operation(0)`` up, then count the garbage of each of
    ``operation(1)`` .. ``operation(calls)``."""
    operation(0)
    garbage: list = []
    for index in range(1, calls + 1):
        with collector_off(garbage):
            operation(index)
    return garbage


def _relay(n: int, fraction: float, protocol: int, seed: int):
    scenario = make_block_scenario(n, n, fraction, seed=seed)
    config = GrapheneConfig(protocol=protocol)
    receiver = GrapheneReceiverEngine(scenario.receiver_mempool, config)
    final = LoopbackTransport(GrapheneSenderEngine(scenario.block, config),
                              receiver).run()
    assert final.kind is ActionKind.DONE
    return receiver


class TestLoopbackRelays:
    def test_protocol1(self):
        def relay(seed):
            assert _relay(2000, 1.0, 1, seed).protocol_used == 1
        assert garbage_of(relay) == [0]

    def test_protocol2_then_short_id_fetch(self):
        def relay(seed):
            receiver = _relay(200, 0.9, 1, seed)
            assert receiver.protocol_used == 2
            assert receiver.fetched_count > 0
        assert garbage_of(relay) == [0]

    def test_protocol3_with_pushed_transactions_and_a_continuation(self):
        def relay(seed):
            receiver = _relay(2000, 0.95, 3, seed)
            commands = [event.command for event in receiver.telemetry]
            assert "graphene_p3_request" in commands
            assert any("pushed_tx_bytes" in event.parts
                       for event in receiver.telemetry)
        assert garbage_of(relay) == [0]


class TestMempoolSync:
    def _sync(self, protocol):
        def sync(seed):
            scenario = make_sync_scenario(300, 0.8, seed=seed)
            result = synchronize_mempools(
                scenario.sender_mempool, scenario.receiver_mempool,
                GrapheneConfig(protocol=protocol))
            assert result.synchronized
        return sync

    def test_protocol1(self):
        assert garbage_of(self._sync(1)) == [0]

    def test_protocol3(self):
        assert garbage_of(self._sync(3)) == [0]


def test_peer_managers_on_localhost():
    """One serving and two fetching managers; the server drops each
    served root the way a long-lived node would."""
    config = GrapheneConfig()

    async def main():
        server = PeerManager("server", config=config)
        fetchers = [PeerManager(f"fetcher{i}", mempool=Mempool(),
                                config=config) for i in range(2)]
        port = await server.listen()
        for fetcher in fetchers:
            await fetcher.connect("127.0.0.1", port)
        garbage: list = []
        try:
            for index in range(3):
                scenario = make_block_scenario(2000, 2000, 1.0,
                                               seed=100 + index)
                for fetcher in fetchers:
                    fetcher.mempool = scenario.receiver_mempool
                with collector_off(garbage if index else []):
                    root = server.serve_block(scenario.block)
                    results = await asyncio.gather(
                        *(fetcher.fetch_next(timeout=60.0)
                          for fetcher in fetchers))
                    assert all(result.success for result in results)
                    server.blocks.pop(root, None)
                    del results
        finally:
            for manager in fetchers + [server]:
                await manager.close()
        return garbage

    assert asyncio.run(main()) == [0, 0]


def test_a_live_simulated_network_leaves_nothing_per_block():
    """20 lossy nodes, one block a round from a new miner, then one
    mempool sync; the network stays alive throughout."""
    simulator = Simulator()
    nodes = [Node(f"n{i:02d}", simulator) for i in range(20)]
    connect_random_regular(nodes, degree=4, rng=random.Random(2024),
                           loss_rate=0.05)
    txgen = TransactionGenerator(seed=3)

    def block(height):
        batch = txgen.make_batch(200)
        for node in nodes:
            node.mempool.add_many(batch)
        nodes[height].mine_block(Block.assemble(batch))
        simulator.run(until=simulator.now + 120.0)
        initiator = nodes[2 * height + 1]
        initiator.initiate_mempool_sync(next(iter(initiator.peers)))
        simulator.run(until=simulator.now + 60.0)

    assert garbage_of(block, calls=5) == [0] * 5
    assert all(len(node.blocks) == 6 for node in nodes)
    # The ladder ran: lost messages were retried along the way.
    assert sum(node.relay_retries for node in nodes) > 0
