"""One simulated-network runner, its run object, and four presets.

A block that encodes smaller propagates faster, and a block that
propagates faster causes fewer forks (paper sections 1-2.2).  Every
simulated run that measures this goes through :func:`_run_network`: it
builds the nodes, wires the topology, fills the mempools, mines, runs
the simulator and returns one :class:`NetworkRun`, whose statistics
are computed when first read, never inside the run.  Every node keeps a
ledger and a miner assembles on its own tip, so a run's forks are the
stale blocks of a reference node's ledger (:attr:`NetworkRun.forks`),
whichever preset mined them.  The presets --
:func:`run_block_relay_scenario`, :func:`measure_propagation_delay`,
:func:`run_propagation_scenario`, :func:`run_mining_scenario` -- each
keep their own draws; the first three are pinned
(``tests/test_node_layer.py::GOLDEN``, ``tests/test_scenario_pins.py``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

from repro.chain.block import Block
from repro.chain.ledger import Blockchain, assemble_child
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

    @cached_property
    def ledger(self) -> Blockchain:
        """The reference ledger: the chain of the node holding the most
        blocks, the first such node on ties."""
        return max(self.nodes, key=lambda node: len(node.chain)).chain

    @property
    def forks(self) -> int:
        """Stale blocks in :attr:`ledger`: blocks that lost a race."""
        return len(self.ledger.stale_blocks())

    @property
    def fork_rate(self) -> float:
        """Stale blocks as a fraction of :attr:`ledger`'s non-genesis
        blocks."""
        return self.ledger.fork_rate()

    @property
    def reorgs(self) -> int:
        """Reorganizations :attr:`ledger` went through."""
        return len(self.ledger.reorgs)

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
    mempool, node 0's too), ``"ingest"`` (every ``interval`` seconds a
    fresh batch lands in every mempool and a seeded pick of node mines
    it) or ``"poisson"`` (as ``"ingest"``, but the gaps between blocks
    are exponential with mean ``interval``, drawn from a stream of their
    own: ``nodes`` miners of equal hash rate are one Poisson clock that
    picks its miner uniformly).  Every miner assembles on its own
    ledger's tip.  A one-block fill runs to ``until`` (None: until the
    queue drains), a clocked fill in ``interval`` cycles until
    :data:`DRAIN` seconds after its last block; then ``sync_rounds``
    mempool syncs.  ``links`` (``latency`` / ``bandwidth``) go to
    :func:`~repro.net.topology.connect_random_regular`, whose own
    defaults hold otherwise; scale-free links come from a
    ``GeoLinkModel``.
    """
    clocked = fill in ("ingest", "poisson")
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
            (not clocked or math.isfinite(interval) and interval > 0,
             f"interval must be finite and > 0, got {interval}")):
        if not ok:
            raise ParameterError(problem)
    last = blocks - 1  # the cycle of the last block ("ingest")
    if fill == "poisson":
        gaps = random.Random(seed ^ 0x5851F42D)
        times = list(itertools.accumulate(
            gaps.expovariate(1.0 / interval) for _ in range(blocks)))
        last = times[-1] / interval
    if clocked and last + 2 + DRAIN / interval > MAX_CYCLES:
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

    def mine(miner: Node, txs, timestamp: int) -> None:
        block = assemble_child(miner.chain.tip, txs, timestamp=timestamp)
        records.append(BlockRecord(root=block.header.merkle_root,
                                   miner=miner.node_id,
                                   mined_at=simulator.now))
        miner.mine_block(block)

    if clocked:
        gen = TransactionGenerator(seed=seed)
        miner_rng = random.Random(seed ^ 0x9E3779B9)
        if fill == "ingest":
            times = [height * interval for height in range(blocks)]

        def ingest(height: int) -> None:
            batch = gen.make_batch(block_txns)
            for node in peers:
                node.mempool.add_many(batch)
            mine(peers[miner_rng.randrange(nodes)], batch, timestamp=height)

        for height, at in enumerate(times):
            simulator.schedule_at(at, lambda h=height: ingest(h))
        simulator.run_cycles(cycle=interval,
                             cycles=int(last) + 2 + int(DRAIN / interval),
                             max_events_per_cycle=MAX_EVENTS_PER_CYCLE,
                             on_cycle=cycles.append)
    else:
        if fill == "scenario":
            scenario = make_block_scenario(n=block_txns, extra=extra,
                                           fraction=1.0, seed=seed % 997)
            txs, pool = scenario.block, scenario.receiver_mempool
            holders = peers[1:]
        else:
            gen = TransactionGenerator(seed=seed)
            txs = gen.make_batch(block_txns)
            pool = Mempool(txs)
            pool.add_many(gen.make_batch(extra))
            holders = peers
        # Every holder gets the same pool: pack it once, and each copy
        # shares that snapshot until its own set changes.
        pool.columns()
        for node in holders:
            node.mempool = pool.copy()
        mine(peers[0], txs, 0)
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
    (perfect gossip), since per-transaction gossip at 1000 nodes would
    cost ~35x the events of the block relays under study.  A seeded pick
    of node mines each block on its own ledger's tip, so a miner that
    still lacks the previous block forks, and slower relay shows more
    stale blocks (paper 2.2; :attr:`NetworkRun.forks`).
    Streams keep every interned event at any node count.
    """
    return _run_network("ingest", ids="n{:04d}", nodes=nodes,
                        degree=degree, blocks=blocks, block_txns=block_txns,
                        interval=interval, topology=topology, loss=loss,
                        seed=seed, protocol=protocol, trace=trace)


def run_mining_scenario(protocol: RelayProtocol, blocks: int, miners: int,
                        interval: float, block_txns: int, latency: float,
                        bandwidth: float, seed: int) -> NetworkRun:
    """Poisson mining: ``blocks`` blocks found at exponential gaps of mean
    ``interval`` by ``miners`` nodes of equal hash rate, every node a
    miner.

    The miners (``miner0`` ...) peer in a random-regular overlay of
    degree ``min(3, miners - 1)`` over ``latency`` / ``bandwidth``
    links.  A fresh batch of ``block_txns`` lands in every mempool at
    each find (perfect tx gossip), so relay cost -- and hence the fork
    rate -- is governed by ``protocol``: when relay is slow next to the
    interval, two miners extend the same tip and one block goes stale
    (paper 1).  The run drains :data:`DRAIN` seconds after the last
    find; ``forks``, ``fork_rate`` and ``reorgs`` read the reference
    ledger.
    """
    return _run_network("poisson", ids="miner{}", nodes=miners,
                        degree=min(3, miners - 1), blocks=blocks,
                        block_txns=block_txns, interval=interval,
                        latency=latency, bandwidth=bandwidth, seed=seed,
                        protocol=protocol, trace=False)
