"""One simulated-network runner, its run object, and three presets.

A block that encodes smaller propagates faster, and a block that
propagates faster causes fewer forks (paper sections 1-2.2).  Every
simulated run that measures this goes through :func:`_run_network`: it
builds the nodes, wires the topology, fills the mempools, mines, runs
the simulator and returns one :class:`NetworkRun`, whose statistics
are computed when first read, never inside the run.  The presets --
:func:`run_block_relay_scenario`, :func:`measure_propagation_delay`,
:func:`run_propagation_scenario` -- draw exactly what they drew before
they shared the runner (``tests/test_node_layer.py::GOLDEN``,
``tests/test_scenario_pins.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.scenarios import make_block_scenario
from repro.chain.transaction import TransactionGenerator
from repro.errors import ParameterError
from repro.net import (
    CycleStats,
    GeoLinkModel,
    Node,
    RelayProtocol,
    Simulator,
    connect_random_regular,
    connect_scale_free,
)
from repro.obs.metrics import MetricsRegistry, collect_run_metrics
from repro.obs.trace import Tracer

#: Event budget of one ``interval`` cycle of a propagation run: a cycle
#: that spends it raises rather than truncate the statistics.
MAX_EVENTS_PER_CYCLE = 5_000_000

#: Seconds a propagation run keeps cycling after its last block is
#: mined, so the relays racing it finish.
DRAIN = 30.0

#: Most ``interval`` cycles one propagation run may ask for.
MAX_CYCLES = 1_000_000

#: Histogram bounds (seconds) for block propagation delay at scale.
PROPAGATION_BUCKETS = (0.05, 0.1, 0.15, 0.25, 0.4, 0.6, 1.0, 1.5,
                       2.5, 4.0, 6.0, 10.0, 20.0, 60.0)


@dataclass
class BlockRecord:
    """One mined block of a run."""

    root: bytes
    miner: str        #: node_id of the miner
    mined_at: float   #: simulator clock at mine time
    #: True when the miner lacked the previous block at mine time --
    #: the fork/stale-rate proxy (it would have extended a stale tip).
    fork: bool


@dataclass
class NetworkRun:
    """A finished simulated network: the fields are what the runner
    built, everything else a view computed when first read."""

    simulator: Simulator
    nodes: List[Node]
    tracer: Optional[Tracer]
    records: List[BlockRecord]
    #: One entry per ``interval`` cycle (empty for a one-block run).
    cycles: List[CycleStats] = field(default_factory=list)

    def _only(self) -> BlockRecord:
        if len(self.records) != 1:
            raise ParameterError(
                f"a {len(self.records)}-block run has no single block")
        return self.records[0]

    @property
    def root(self) -> bytes:
        """A one-block run's Merkle root."""
        return self._only().root

    @property
    def block(self) -> Block:
        """A one-block run's block, as its miner holds it."""
        record = self._only()
        return next(node.blocks[record.root] for node in self.nodes
                    if node.node_id == record.miner)

    @property
    def covered(self) -> int:
        """Nodes holding every mined block at the end of the run."""
        roots = [record.root for record in self.records]
        return sum(1 for node in self.nodes
                   if all(root in node.blocks for root in roots))

    @property
    def covered_at(self) -> float:
        """When the last delivery of a mined block landed (simulated
        seconds); the run's horizon, ``simulator.now``, is later."""
        return max(node.block_arrival.get(record.root, 0.0)
                   for node in self.nodes for record in self.records)

    @cached_property
    def delays(self) -> List[float]:
        """Sorted per-(block, node) propagation delays, miners excluded."""
        return sorted(node.block_arrival[record.root] - record.mined_at
                      for record in self.records for node in self.nodes
                      if node.node_id != record.miner
                      and record.root in node.block_arrival)

    def delay_quantile(self, q: float) -> float:
        """Exact propagation-delay quantile over all deliveries."""
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile must be in [0, 1], got {q}")
        delays = self.delays
        if not delays:
            return 0.0
        return delays[min(len(delays) - 1, int(q * len(delays)))]

    @property
    def coverage(self) -> float:
        """Fraction of (block, non-miner node) deliveries that landed."""
        expected = len(self.records) * (len(self.nodes) - 1)
        return len(self.delays) / expected if expected else 1.0

    @property
    def forks(self) -> int:
        return sum(1 for record in self.records if record.fork)

    @property
    def fork_rate(self) -> float:
        """Fraction of non-genesis blocks mined on a stale tip."""
        eligible = len(self.records) - 1
        return self.forks / eligible if eligible > 0 else 0.0

    @property
    def total_bytes(self) -> int:
        """Wire bytes every node put on its links, drops included."""
        return sum(node.total_bytes_sent() for node in self.nodes)

    def relay_streams(self) -> dict:
        """Every per-relay telemetry stream, keyed by (node_id, root)."""
        return {(node.node_id, root): events
                for node in self.nodes
                for root, events in node.relay_telemetry.items()}

    @cached_property
    def registry(self) -> MetricsRegistry:
        """The run folded into metrics: the per-protocol series of
        :func:`~repro.obs.metrics.collect_run_metrics` (span latencies
        too when traced), then the ``net_propagation_seconds``
        histogram, ``net_blocks_mined`` / ``net_forks`` counters and
        ``net_fork_rate`` / ``net_block_coverage`` gauges."""
        registry = collect_run_metrics(self.nodes, tracer=self.tracer)
        histogram = registry.histogram("net_propagation_seconds",
                                       buckets=PROPAGATION_BUCKETS)
        for delay in self.delays:
            histogram.observe(delay)
        registry.counter("net_blocks_mined").inc(len(self.records))
        registry.counter("net_forks").inc(self.forks)
        registry.gauge("net_fork_rate").set(self.fork_rate)
        registry.gauge("net_block_coverage").set(self.coverage)
        return registry


def _run_network(fill: str, *, ids: str, nodes: int, degree: int,
                 block_txns: int, seed: int, protocol: RelayProtocol,
                 trace: bool, extra: int = 0, blocks: int = 1,
                 interval: float = 1.0, topology: str = "random_regular",
                 loss: float = 0.0, until: Optional[float] = None,
                 sync_rounds: int = 0, **links) -> NetworkRun:
    """Build, fill and run one simulated network.

    Node ``i`` is named ``ids.format(i)``: the names seed every lossy
    link's loss stream (``derive_loss_seed``), so each preset keeps the
    names its pinned runs were drawn with.

    ``fill`` is ``"scenario"`` (``make_block_scenario``: every node but
    the miner, node 0, holds the block plus ``extra``), ``"pool"`` (a
    ``TransactionGenerator(seed)`` block plus ``extra`` in every
    mempool, node 0's too) or ``"ingest"`` (every ``interval`` seconds
    a fresh batch lands in every mempool and a seeded miner mines it).
    A one-block fill runs to ``until`` (None: until the queue drains),
    ``"ingest"`` ``blocks`` cycles plus
    :data:`DRAIN` seconds; then ``sync_rounds`` mempool syncs.
    ``links`` (``latency`` / ``bandwidth``) go to
    :func:`~repro.net.topology.connect_random_regular`, whose own
    defaults hold otherwise; scale-free links come from a
    ``GeoLinkModel``.
    """
    for ok, problem in (
            (nodes >= 2, f"need at least 2 nodes, got {nodes}"),
            (block_txns >= 1, f"block_txns must be >= 1, got {block_txns}"),
            (blocks >= 1, f"need at least 1 block, got {blocks}"),
            (topology in ("scale_free", "random_regular"),
             f"topology must be 'scale_free' or 'random_regular', got "
             f"{topology!r}"),
            (until is None or until >= 0, f"until must be >= 0, got {until}"),
            (sync_rounds >= 0,
             f"sync_rounds must be >= 0, got {sync_rounds}"),
            (fill != "ingest" or math.isfinite(interval) and interval > 0,
             f"interval must be finite and > 0, got {interval}")):
        if not ok:
            raise ParameterError(problem)
    if fill == "ingest" and blocks + DRAIN / interval + 1 > MAX_CYCLES:
        raise ParameterError(f"{blocks} blocks every {interval:g}s need "
                             f"more than {MAX_CYCLES:,} cycles")

    simulator = Simulator()
    peers = [Node(ids.format(i), simulator, protocol=protocol)
             for i in range(nodes)]
    rng = random.Random(seed)
    if topology == "scale_free":
        connect_scale_free(peers, m=max(1, degree // 2), rng=rng,
                           link_model=GeoLinkModel(loss_rate=loss))
    else:
        connect_random_regular(peers, degree=degree, rng=rng,
                               loss_rate=loss, **links)
    tracer = Tracer(simulator).attach(*peers) if trace else None
    records: List[BlockRecord] = []
    cycles: List[CycleStats] = []

    def mine(miner: Node, block: Block) -> None:
        records.append(BlockRecord(
            root=block.header.merkle_root, miner=miner.node_id,
            mined_at=simulator.now,
            fork=bool(records) and records[-1].root not in miner.blocks))
        miner.mine_block(block)

    if fill == "ingest":
        gen = TransactionGenerator(seed=seed)
        miner_rng = random.Random(seed ^ 0x9E3779B9)

        def ingest(height: int) -> None:
            batch = gen.make_batch(block_txns)
            for node in peers:
                node.mempool.add_many(batch)
            miner = peers[miner_rng.randrange(nodes)]
            prev = records[-1].root if records else bytes(32)
            mine(miner, Block.assemble(batch, prev_hash=prev,
                                       timestamp=height))

        for height in range(blocks):
            simulator.schedule_at(height * interval,
                                  lambda h=height: ingest(h))
        simulator.run_cycles(cycle=interval,
                             cycles=blocks + int(DRAIN / interval) + 1,
                             max_events_per_cycle=MAX_EVENTS_PER_CYCLE,
                             on_cycle=cycles.append)
    else:
        if fill == "scenario":
            scenario = make_block_scenario(n=block_txns, extra=extra,
                                           fraction=1.0, seed=seed % 997)
            block, pool = scenario.block, scenario.receiver_mempool
            holders = peers[1:]
        else:
            gen = TransactionGenerator(seed=seed)
            txs = gen.make_batch(block_txns)
            pool = Mempool(txs)
            pool.add_many(gen.make_batch(extra))
            block, holders = Block.assemble(txs), peers
        # Every holder gets the same pool: pack it once, and each copy
        # shares that snapshot until its own set changes.
        pool.columns()
        for node in holders:
            node.mempool = pool.copy()
        mine(peers[0], block)
        simulator.run(until=until)

    for i in range(sync_rounds):
        initiator = peers[(2 * i + 1) % len(peers)]
        responder = next(iter(initiator.peers))
        initiator.initiate_mempool_sync(responder)
        simulator.run(until=simulator.now + 60.0)
    return NetworkRun(simulator=simulator, nodes=peers, tracer=tracer,
                      records=records, cycles=cycles)


def run_block_relay_scenario(nodes: int = 20, degree: int = 4,
                             block_size: int = 200, extra: int = 200,
                             loss: float = 0.05, seed: int = 2024,
                             protocol: RelayProtocol = RelayProtocol.GRAPHENE,
                             trace: bool = True,
                             until: Optional[float] = 120.0,
                             sync_rounds: int = 0) -> NetworkRun:
    """One block across a lossy random-regular network: the smoke
    test's chaos scenario (20 nodes, degree 4, 5% loss on the forward
    direction of each peering -- see ``Node.connect``), so the recovery
    ladder's timeouts, retries and failovers show.  ``sync_rounds``
    post-relay mempool syncs between the first node pairs follow.
    Seeded: the same arguments give the same run, traced or not."""
    return _run_network("scenario", ids="n{:02d}", nodes=nodes,
                        degree=degree, block_txns=block_size, extra=extra,
                        loss=loss, seed=seed, protocol=protocol, trace=trace,
                        until=until, sync_rounds=sync_rounds)


def measure_propagation_delay(
        protocol: RelayProtocol, block_txns: int,
        nodes: int = 12, degree: int = 4,
        latency: float = 0.05, bandwidth: float = 250_000.0,
        extra_mempool: Optional[int] = None,
        seed: int = 0, trace: bool = False) -> NetworkRun:
    """One block through a reliable random-regular network, every
    mempool (the miner's too) holding its ``block_txns`` and
    ``extra_mempool`` more (default: as many again); ``covered_at`` is
    when the last node got it.  Raises if a node never did."""
    run = _run_network("pool", ids="n{}", nodes=nodes, degree=degree,
                       block_txns=block_txns,
                       extra=(block_txns if extra_mempool is None
                              else extra_mempool),
                       latency=latency, bandwidth=bandwidth, seed=seed,
                       protocol=protocol, trace=trace)
    if run.covered < nodes:
        raise ParameterError(
            f"propagation incomplete: {nodes - run.covered} nodes never "
            "got the block (protocol failure)")
    return run


def run_propagation_scenario(
        nodes: int = 1000, degree: int = 8, blocks: int = 200,
        block_txns: int = 24, interval: float = 2.0,
        topology: str = "scale_free", loss: float = 0.0, seed: int = 2026,
        protocol: RelayProtocol = RelayProtocol.GRAPHENE,
        trace: bool = False) -> NetworkRun:
    """A block every ``interval`` seconds over sustained tx ingest.

    Ingest is direct: each batch lands in every mempool at mine time
    (perfect gossip, as in :func:`~repro.net.mining.run_mining_experiment`),
    since per-transaction gossip at 1000 nodes would cost ~35x the
    events of the block relays under study.  A block is a fork when its
    miner lacked the previous block at mine time (it would extend a
    stale tip), so slower relay shows a higher fork rate (paper 2.2).
    Streams keep every interned event at any node count.
    """
    return _run_network("ingest", ids="n{:04d}", nodes=nodes,
                        degree=degree, blocks=blocks, block_txns=block_txns,
                        interval=interval, topology=topology, loss=loss,
                        seed=seed, protocol=protocol, trace=trace)
