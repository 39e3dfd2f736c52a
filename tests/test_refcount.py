"""A finished relay goes on refcount: it leaves no cyclic garbage.

An object in a reference cycle outlives its last outside reference
until the collector's next full pass; an engine in one pins the whole
exchange it reached (block, mempool, candidate set, symbol streams).
The rule that keeps the relay path acyclic: no instance stores a bound
method of itself.  Each test below warms its relay shape once, then,
with automatic collection off, runs it again and asks
``gc.collect()`` how much it had left behind -- it must be nothing.

The same holds for whole networks: the simulator owns its nodes, a
node its links (keyed by peer id) and its relay host, and every
reference back -- ``Node.simulator``, the host's driver, an
``EventHandle``'s simulator, a tracer's clock -- is weak.  A dropped
simulated network, or a closed and dropped group of ``PeerManager``s,
is freed by reference counting the moment its last outside reference
goes, and a live network leaves nothing behind per block.
"""

from __future__ import annotations

import asyncio
import gc
import random
import weakref
from contextlib import contextmanager

import pytest

from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.scenarios import make_block_scenario, make_sync_scenario
from repro.chain.transaction import TransactionGenerator
from repro.core.engine import (ActionKind, GrapheneReceiverEngine,
                               GrapheneSenderEngine)
from repro.core.mempool_sync import synchronize_mempools
from repro.core.params import GrapheneConfig
from repro.errors import ParameterError
from repro.net.node import Node
from repro.net.peer import PeerManager
from repro.net.simulator import Simulator
from repro.net.topology import connect_random_regular
from repro.net.transport import LoopbackTransport
from repro.obs.scenario import (run_block_relay_scenario,
                                run_propagation_scenario)


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


def _dropped(build):
    """An operation that builds a run with ``build(seed)``, drops it and
    checks that its simulator went with it, before any collection."""
    def operation(seed):
        run = build(seed)
        simulator = weakref.ref(run.simulator)
        del run
        assert simulator() is None, "something still holds the network"
    return operation


class TestDroppedNetworks:
    @pytest.mark.parametrize("options", [
        {"trace": False}, {"trace": True},
        {"trace": False, "sync_rounds": 2}], ids=["untraced", "traced",
                                                  "synced"])
    def test_block_relay_scenario(self, options):
        assert garbage_of(_dropped(
            lambda seed: run_block_relay_scenario(seed=seed, **options))) \
            == [0]

    def test_propagation_scenario(self):
        assert garbage_of(_dropped(lambda seed: run_propagation_scenario(
            nodes=30, degree=4, blocks=3, block_txns=20, loss=0.05,
            seed=seed))) == [0]

    def test_a_node_outliving_its_simulator_says_so(self):
        node = Node("n0", Simulator())
        with pytest.raises(ParameterError, match="outlived its simulator"):
            node.simulator
        with pytest.raises(ParameterError, match="outlived its simulator"):
            node.mine_block(Block.assemble(
                TransactionGenerator(seed=1).make_batch(3)))


def _own_garbage(garbage: list) -> list:
    """What of ``garbage`` is not the standard library's: a closed
    selector transport keeps a bound method of itself
    (``_read_ready_cb``), a cycle reference counting cannot free, and
    takes its socket and its ``extra`` dict along."""
    ids = {id(obj) for obj in garbage}
    stdlib = {id(obj) for obj in garbage
              if type(obj).__name__ == "_SelectorSocketTransport"}
    frontier = [obj for obj in garbage if id(obj) in stdlib]
    while frontier:
        for ref in gc.get_referents(frontier.pop()):
            if id(ref) in ids and id(ref) not in stdlib:
                stdlib.add(id(ref))
                frontier.append(ref)
    return [obj for obj in garbage if id(obj) not in stdlib]


def test_a_closed_peer_manager_trio_is_freed_when_dropped():
    """One serving and two fetching managers relay a block, close and
    are dropped: nothing of theirs waits for the collector."""
    async def trio(seed):
        server = PeerManager("server")
        fetchers = [PeerManager(f"fetcher{i}", mempool=Mempool())
                    for i in range(2)]
        port = await server.listen()
        for fetcher in fetchers:
            await fetcher.connect("127.0.0.1", port)
        scenario = make_block_scenario(200, 200, 1.0, seed=seed)
        for fetcher in fetchers:
            fetcher.mempool = scenario.receiver_mempool
        server.serve_block(scenario.block)
        results = await asyncio.gather(
            *(fetcher.fetch_next(timeout=60.0) for fetcher in fetchers))
        assert all(result.success for result in results)
        for manager in fetchers + [server]:
            await manager.close()
        return weakref.ref(server)

    asyncio.run(trio(0))
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        server = asyncio.run(trio(1))
        assert server() is None, "something still holds the server"
        gc.collect()
        assert _own_garbage(gc.garbage) == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
