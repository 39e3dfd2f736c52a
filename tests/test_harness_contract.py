"""The frozen benchmark harness calls the program by name.

``benchmarks/e2e/`` may not change in a PR that claims a gain, and the
pipeline runs it against whatever ``src/`` holds.  A rename, a removed
export or a re-ordered parameter there fails the benchmark run -- after
the PR is written.  This test holds the same contract in tier 1: every
``from repro... import name`` (and ``import repro...``) in the harness
resolves, and the call shapes its replays use still bind.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _harness_imports():
    """``(file, module, name-or-None)`` for every ``repro`` import in
    the harness, wherever it sits (module level or inside a function)."""
    found = []
    for path in sorted(HARNESS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                found += [(path.name, node.module, alias.name)
                          for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None)
                          for alias in node.names
                          if alias.name.split(".")[0] == "repro"]
    return found


IMPORTS = _harness_imports()


def test_the_harness_is_where_this_test_looks():
    assert len(IMPORTS) >= 40 and {row[0] for row in IMPORTS} >= {
        "replay.py", "loopback.py", "socketpair.py", "simlossy.py"}


@pytest.mark.parametrize("file,module,name", IMPORTS,
                         ids=[f"{f}:{m}.{n}" for f, m, n in IMPORTS])
def test_every_import_resolves(file, module, name):
    loaded = importlib.import_module(module)
    if name is not None:
        assert hasattr(loaded, name), f"{file} imports {module}.{name}"


def _binds(func, *args, **kwargs):
    inspect.signature(func).bind(*args, **kwargs)


def test_replay_call_shapes_still_bind():
    """One ``bind`` per distinct call in ``replay.py`` / ``loopback.py``
    / ``socketpair.py`` -- positional where they pass positionally,
    by keyword where they pass by keyword."""
    from repro import codec
    from repro.core import protocol1, protocol2, protocol3
    from repro.core.engine import (GrapheneReceiverEngine,
                                   GrapheneSenderEngine)
    from repro.core.params import GrapheneConfig
    from repro.core.sizing import CostBreakdown, getdata_bytes
    from repro.net.transport import LoopbackTransport
    from repro.pds.bloom import BloomFilter
    from repro.pds.iblt import IBLT
    from repro.pds.riblt import RIBLTDecoder, RIBLTEncoder

    x = object()
    # Protocol 3, as `Replayer._protocol3` / `_build_p3` call it.
    _binds(protocol3.build_protocol3, x, x, x)
    _binds(protocol3.begin_protocol3, x, x, x)
    _binds(protocol3.ingest_symbols, x, x)
    _binds(protocol3.finish_protocol3, x, x, validate_block=None)
    _binds(protocol3.next_batch_size, x)
    _binds(protocol3.first_batch_size, x)
    _binds(protocol3.SymbolBatch, x, x, x, x)
    # The Protocol 1 / 2 quartet.
    _binds(protocol1.build_protocol1, x, x, x)
    _binds(protocol1.receive_protocol1, x, x, x, validate_block=None)
    _binds(protocol2.build_protocol2_request, x, x, x, x)
    _binds(protocol2.respond_protocol2, x, x, x, x)
    _binds(protocol2.finish_protocol2, x, x, x, x, validate_block=None)
    # The CODEC table.
    for name in ("protocol1_payload", "protocol3_payload"):
        _binds(getattr(codec, "decode_" + name), x, 80)
        _binds(getattr(codec, "encode_" + name), x)
    _binds(codec.decode_block_header, x)
    _binds(codec.decode_protocol2_request, x, 4)
    _binds(codec.decode_protocol2_response, x)
    _binds(codec.decode_protocol3_request, x)
    _binds(codec.decode_symbol_batch, x)
    _binds(codec.decode_tx_list, x)
    _binds(codec.encode_protocol2_request, x)
    _binds(codec.encode_protocol2_response, x)
    _binds(codec.encode_protocol3_request, x, x)
    _binds(codec.encode_symbol_batch, x)
    _binds(codec.encode_tx_list, x)
    # The pds leaves.
    _binds(BloomFilter.from_fpr, x, x, seed=x)
    _binds(BloomFilter.update, x, x)
    _binds(BloomFilter.contains_many, x, x)
    _binds(IBLT, x, k=x, seed=x, cell_bytes=x)
    _binds(IBLT.update, x, x)
    _binds(IBLT.subtract, x, x)
    _binds(IBLT.decode, x)
    _binds(RIBLTEncoder, x, seed=x)
    _binds(RIBLTEncoder.window, x, x, x)
    _binds(RIBLTDecoder, x, seed=x)
    _binds(RIBLTDecoder.add_symbols, x, x, x, x)
    assert isinstance(RIBLTDecoder.complete, property)
    assert {"size", "local", "remote"} <= set(RIBLTDecoder.__slots__)
    # The engines and what the pumps read off them.
    _binds(GrapheneSenderEngine, x, x)
    _binds(GrapheneReceiverEngine, x, x)
    for engine in (GrapheneSenderEngine, GrapheneReceiverEngine):
        _binds(engine.handle, x, "command", b"message")
    _binds(GrapheneReceiverEngine.start, x)
    _binds(LoopbackTransport, x, x)
    _binds(LoopbackTransport.run, x)
    _binds(CostBreakdown.from_events, x)
    _binds(getdata_bytes, 0)
    _binds(GrapheneConfig, protocol=3)
    # `tracing.py` swaps these module attributes for timed shims.
    import repro.net.peer.peer as peer_module
    import repro.net.peer.transport as transport_module
    for module in (peer_module, transport_module):
        _binds(module.encode_frame, "command", b"payload")


def test_replay_return_shapes():
    """What the replays unpack: a 2-tuple from ``build_protocol3``, the
    ``[:2]`` and ``[0]`` of the two prefix parsers, and the state fields
    the continuation loop reads."""
    from repro.chain.scenarios import make_block_scenario
    from repro.codec import (decode_protocol3_request, decode_symbol_batch,
                             encode_protocol3_request, encode_symbol_batch)
    from repro.core.params import GrapheneConfig
    from repro.core.protocol3 import (SymbolBatch, begin_protocol3,
                                      build_protocol3, finish_protocol3)

    config = GrapheneConfig(protocol=3)
    sc = make_block_scenario(n=60, extra=60, fraction=0.9, seed=1)
    payload, stream = build_protocol3(list(sc.block.txs),
                                      len(sc.receiver_mempool), config)
    assert payload.plan.recover == payload.recover
    state = begin_protocol3(payload, sc.receiver_mempool, config)
    assert state.symbols == len(payload.symbols) <= state.cap
    assert isinstance(state.decoder.complete, bool)
    window = decode_protocol3_request(encode_protocol3_request(7, 9))[:2]
    assert window == (7, 9)
    assert encode_protocol3_request(*window) == encode_protocol3_request(7, 9)
    batch = SymbolBatch(3, *stream.window(3, 5))
    again = decode_symbol_batch(encode_symbol_batch(batch))[0]
    assert encode_symbol_batch(again) == encode_symbol_batch(batch)
    result = finish_protocol3(state, config, validate_block=None)
    assert hasattr(result, "success")


def test_simulator_workload_shapes():
    """What ``simlossy.py`` passes to the scenario builder and reads off
    the run and its nodes."""
    from repro.core.sizing import CostBreakdown
    from repro.obs.scenario import run_block_relay_scenario

    _binds(run_block_relay_scenario, nodes=20, degree=4, block_size=200,
           extra=200, loss=0.05, seed=1, trace=False)
    run = run_block_relay_scenario(nodes=4, degree=2, block_size=20,
                                   extra=20, loss=0.05, seed=1, trace=True)
    assert run.block.header.merkle_root == run.root
    assert run.covered == len(run.nodes) == 4
    assert all(isinstance(mark.name, str) for mark in run.tracer.marks)
    assert run.simulator.events_processed > 0
    streams = run.relay_streams()
    assert {root for _, root in streams} == {run.root}
    for events in streams.values():
        assert CostBreakdown.from_events(events).total() > 0
        assert all(hasattr(event, "outcome") and hasattr(event, "phase")
                   for event in events)
    for node in run.nodes:
        assert node.blocks[run.root].header == run.block.header
        assert node.block_arrival[run.root] >= 0.0
        assert node.relay_retries >= 0 and node.relay_timeouts >= 0
    untraced = run_block_relay_scenario(nodes=4, degree=2, block_size=20,
                                        extra=20, loss=0.05, seed=1,
                                        trace=False)
    assert untraced.tracer is None


def test_socket_workload_shapes():
    """What ``socketpair.py`` calls on its three managers, the result
    fields it reads, and the one thing it does to retire a served block:
    ``server.blocks.pop(root, None)``.  That call alone must leave the
    block unreachable (a late request for it goes unanswered) and
    unretained (no serving state pins the ``Block`` past the next one)."""
    import asyncio
    import gc
    import weakref

    from repro.chain.mempool import Mempool
    from repro.chain.scenarios import make_block_scenario
    from repro.core.engine import GrapheneReceiverEngine
    from repro.core.params import GrapheneConfig
    from repro.net.peer import (PeerConnection, PeerFetchResult, PeerManager,
                                encode_keyed, split_keyed)

    x = object()
    _binds(PeerManager, "server", config=x)
    _binds(PeerManager, "fetcher0", mempool=x, config=x)
    _binds(PeerManager.listen, x)
    _binds(PeerManager.connect, x, "127.0.0.1", 1)
    _binds(PeerManager.serve_block, x, x)
    _binds(PeerManager.fetch_next, x, timeout=60.0)
    _binds(PeerManager.close, x)
    assert {"success", "root", "block", "cost", "events", "roundtrips",
            "via_fullblock", "wire_overhead", "retries", "failovers"} \
        <= set(PeerFetchResult.__dataclass_fields__)

    config = GrapheneConfig(protocol=1)

    async def run():
        server = PeerManager("server", config=config)
        fetchers = [PeerManager(f"fetcher{i}", mempool=Mempool(),
                                config=config) for i in range(2)]
        port = await server.listen()
        for fetcher in fetchers:
            await fetcher.connect("127.0.0.1", port)
        served, results = [], []
        try:
            for seed in (1, 2, 3):
                sc = make_block_scenario(40, 40, 1.0, seed=seed)
                for fetcher in fetchers:
                    fetcher.mempool = sc.receiver_mempool
                root = server.serve_block(sc.block)
                results += await asyncio.gather(
                    *(fetcher.fetch_next(timeout=60.0)
                      for fetcher in fetchers), return_exceptions=True)
                server.blocks.pop(root, None)
                served.append((root, weakref.ref(sc.block)))
            # A request for a retired root, then one for a live root:
            # replies keep their order, and only the second comes.
            live = server.serve_block(sc.block)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            late = PeerConnection(reader, writer, "late")
            await late.handshake()
            getdata = GrapheneReceiverEngine(sc.receiver_mempool,
                                             config).start().message
            for root in (served[0][0], live):
                late.send("getdata", encode_keyed(root, getdata))
            await late.drain()
            command = "inv"
            while command == "inv":
                command, payload = await asyncio.wait_for(
                    late.read_frame(), 5)
            await late.close()
            del sc
            gc.collect()
            # Read while the server is alive: once it is dropped, the
            # live block goes with it.
            freed = [ref() is None for _, ref in served]
            return (results, served, live, split_keyed(payload)[0],
                    list(server.serving_engines), freed)
        finally:
            for manager in fetchers + [server]:
                await manager.close()

    results, served, live, answered, retained, freed = asyncio.run(run())
    assert [result.success and result.root for result in results] \
        == [root for root, _ in served for _ in range(2)]
    assert answered == live == served[-1][0] and retained == [live]
    assert freed == [True, True, False]


def test_input_records_round_trip():
    """``inputs.py`` builds ``Mempool(list_of_txs)`` from
    ``.transactions()`` and pickles ``(block, mempool)`` /
    ``(block, [mempools])`` records; ``loopback.py`` hands the thawed
    mempool to a receiver engine."""
    import pickle

    from repro.chain.mempool import Mempool
    from repro.chain.scenarios import make_block_scenario
    from repro.core.engine import (GrapheneReceiverEngine,
                                   GrapheneSenderEngine)
    from repro.core.params import GrapheneConfig
    from repro.net.transport import LoopbackTransport

    sc = make_block_scenario(60, 80, 1.0, seed=3)
    pool = sc.receiver_mempool.transactions()
    ring = [Mempool(pool[:60 + extra]) for extra in (20, 80)]
    assert [len(mempool) for mempool in ring] == [80, 140]
    assert ring[1].transactions() == pool
    config = GrapheneConfig()
    for original in (sc.receiver_mempool, *ring):
        block, mempool = pickle.loads(pickle.dumps(
            (sc.block, original), protocol=pickle.HIGHEST_PROTOCOL))
        assert block.header == sc.block.header
        assert block.txids == sc.block.txids
        assert mempool.transactions() == original.transactions()
        assert mempool.columns().ids == original.columns().ids
        final = LoopbackTransport(
            GrapheneSenderEngine(block, config),
            GrapheneReceiverEngine(mempool, config)).run()
        assert [tx.txid for tx in final.block.txs] == sc.block.txids
    thawed = pickle.loads(pickle.dumps((sc.block, ring)))[1]
    assert [len(mempool) for mempool in thawed] == [80, 140]
