"""Canned observed simulation runs shared by the CLI and smoke tests.

``python -m repro trace`` / ``report`` and the smoke test's chaos stage
all need the same thing: a reproducible multi-node lossy run with a
:class:`~repro.obs.trace.Tracer` attached and the per-node telemetry
retained for folding.  This module is that one scenario builder, so the
timeline a user reads and the invariants CI checks come from identical
runs.

:func:`run_propagation_scenario` is the scale counterpart: many blocks
mined at intervals over sustained transaction ingest across hundreds to
thousands of nodes, reporting propagation-delay percentiles and a
fork-rate proxy through the metrics registry (the regime of the paper's
Figures 14-18, which a single-block 20-node run cannot show).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.chain.block import Block
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

#: Histogram bounds (seconds) for block propagation delay at scale.
PROPAGATION_BUCKETS = (0.05, 0.1, 0.15, 0.25, 0.4, 0.6, 1.0, 1.5,
                       2.5, 4.0, 6.0, 10.0, 20.0, 60.0)


@dataclass
class ObservedRun:
    """A finished simulation plus everything observability needs."""

    simulator: Simulator
    nodes: List[Node]
    tracer: Optional[Tracer]
    block: object
    root: bytes

    @property
    def covered(self) -> int:
        """Nodes holding the block at the end of the run."""
        return sum(1 for node in self.nodes if self.root in node.blocks)

    @property
    def covered_at(self) -> float:
        """When the last node holding the block got it (simulated
        seconds); the run's horizon, ``simulator.now``, is later."""
        return max(node.block_arrival.get(self.root, 0.0)
                   for node in self.nodes)

    def relay_streams(self) -> dict:
        """Every per-relay telemetry stream, keyed by (node_id, root)."""
        return {(node.node_id, root): events
                for node in self.nodes
                for root, events in node.relay_telemetry.items()}


def run_block_relay_scenario(nodes: int = 20, degree: int = 4,
                             block_size: int = 200, extra: int = 200,
                             loss: float = 0.05, seed: int = 2024,
                             protocol: RelayProtocol = RelayProtocol.GRAPHENE,
                             trace: bool = True,
                             until: Optional[float] = 120.0,
                             sync_rounds: int = 0) -> ObservedRun:
    """Propagate one block across a lossy random-regular topology.

    The default parameters reproduce the smoke test's chaos scenario
    (20 Graphene nodes, degree 4, 5% loss on the forward direction of
    each peering -- see ``Node.connect``) so the recovery ladder is
    genuinely exercised and traces show timeouts, retries
    and failovers.  ``sync_rounds`` additionally runs that many
    post-relay mempool syncs between the first node pairs, so sync
    spans appear in the trace too.  Everything is seeded: the same
    arguments always produce the same run, traced or not.
    """
    simulator = Simulator()
    peers = [Node(f"n{i:02d}", simulator, protocol=protocol)
             for i in range(nodes)]
    connect_random_regular(peers, degree=degree, rng=random.Random(seed),
                           loss_rate=loss)
    tracer = Tracer(simulator).attach(*peers) if trace else None
    scenario = make_block_scenario(n=block_size, extra=extra, fraction=1.0,
                                   seed=seed % 997)
    # Every receiver holds the same pool: pack it once, and each copy
    # shares that snapshot until its own set changes.
    scenario.receiver_mempool.columns()
    for node in peers[1:]:
        node.mempool = scenario.receiver_mempool.copy()
    peers[0].mine_block(scenario.block)
    simulator.run(until=until)
    for i in range(sync_rounds):
        initiator = peers[(2 * i + 1) % len(peers)]
        responder = next(iter(initiator.peers))
        initiator.initiate_mempool_sync(responder)
        simulator.run(until=simulator.now + 60.0)
    return ObservedRun(simulator=simulator, nodes=peers, tracer=tracer,
                       block=scenario.block,
                       root=scenario.block.header.merkle_root)


@dataclass
class BlockRecord:
    """One mined block of a propagation run."""

    height: int
    root: bytes
    miner: str        #: node_id of the miner
    mined_at: float   #: simulator clock at mine time
    #: True when the miner lacked the previous block at mine time --
    #: the fork/stale-rate proxy (it would have extended a stale tip).
    fork: bool


@dataclass
class PropagationRun:
    """A finished multi-block propagation run plus its statistics."""

    simulator: Simulator
    nodes: List[Node]
    records: List[BlockRecord]
    registry: MetricsRegistry
    cycles: List[CycleStats]
    params: dict
    _delays: Optional[List[float]] = field(default=None, repr=False)

    @property
    def delays(self) -> List[float]:
        """Sorted per-(block, node) propagation delays, miners excluded."""
        if self._delays is None:
            delays = []
            for record in self.records:
                root, mined_at, miner = (record.root, record.mined_at,
                                         record.miner)
                for node in self.nodes:
                    if node.node_id == miner:
                        continue
                    arrived = node.block_arrival.get(root)
                    if arrived is not None:
                        delays.append(arrived - mined_at)
            delays.sort()
            self._delays = delays
        return self._delays

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


def run_propagation_scenario(
        nodes: int = 1000, degree: int = 8, blocks: int = 200,
        block_txns: int = 24, interval: float = 2.0,
        topology: str = "scale_free", loss: float = 0.0, seed: int = 2026,
        protocol: RelayProtocol = RelayProtocol.GRAPHENE,
        drain: float = 30.0,
        on_cycle: Optional[Callable[[CycleStats], None]] = None
) -> PropagationRun:
    """Relay ``blocks`` blocks over sustained tx ingest at scale.

    Every ``interval`` seconds a seeded miner assembles the freshest
    transaction batch into a block and announces it; relay then races
    the next block.  Transaction ingest is *direct* (each batch lands
    in every mempool at mine time -- the perfect-gossip regime, like
    :func:`~repro.net.mining.run_mining_experiment`): at 1000 nodes,
    simulating per-transaction gossip would cost ~35x more events than
    the block relays under study, without changing what Figures 14-18
    measure.

    The fork proxy: a block is counted as a fork when its miner had
    not yet received the previous block at mine time (it would have
    extended a stale tip).  Slower relay protocols therefore show
    higher fork rates, the paper's section 2.2 motivation.

    Every relay keeps its full per-message stream at any node count.
    Streams hold shared, interned events
    (:func:`~repro.core.telemetry.message_event`), so a message that
    repeats across peers and blocks costs one list slot.

    Results fold into ``registry``: the ``net_propagation_seconds``
    histogram, ``net_blocks_mined`` / ``net_forks`` counters,
    ``net_fork_rate`` / ``net_block_coverage`` gauges, plus the
    standard per-protocol byte counters of
    :func:`~repro.obs.metrics.collect_run_metrics`.
    """
    if nodes < 2:
        raise ParameterError(f"need at least 2 nodes, got {nodes}")
    if blocks < 1:
        raise ParameterError(f"need at least 1 block, got {blocks}")
    if interval <= 0:
        raise ParameterError(f"interval must be > 0, got {interval}")
    if topology not in ("scale_free", "random_regular"):
        raise ParameterError(
            f"topology must be 'scale_free' or 'random_regular', "
            f"got {topology!r}")

    simulator = Simulator()
    peers = [Node(f"n{i:04d}", simulator, protocol=protocol)
             for i in range(nodes)]
    rng = random.Random(seed)
    if topology == "scale_free":
        connect_scale_free(peers, m=max(1, degree // 2), rng=rng,
                           link_model=GeoLinkModel(loss_rate=loss))
    else:
        connect_random_regular(peers, degree=degree, rng=rng,
                               loss_rate=loss)

    gen = TransactionGenerator(seed=seed)
    miner_rng = random.Random(seed ^ 0x9E3779B9)
    records: List[BlockRecord] = []

    def mine(height: int) -> None:
        batch = gen.make_batch(block_txns)
        for node in peers:
            node.mempool.add_many(batch)
        miner = peers[miner_rng.randrange(nodes)]
        fork = bool(records) and records[-1].root not in miner.blocks
        prev = records[-1].root if records else bytes(32)
        block = Block.assemble(batch, prev_hash=prev, timestamp=height)
        records.append(BlockRecord(
            height=height, root=block.header.merkle_root,
            miner=miner.node_id, mined_at=simulator.now, fork=fork))
        miner.mine_block(block)

    for height in range(blocks):
        simulator.schedule_at(height * interval,
                              lambda h=height: mine(h))

    cycles: List[CycleStats] = []

    def note_cycle(stats: CycleStats) -> None:
        cycles.append(stats)
        if on_cycle is not None:
            on_cycle(stats)

    total_cycles = blocks + max(0, int(drain / interval)) + 1
    simulator.run_cycles(cycle=interval, cycles=total_cycles,
                         max_events_per_cycle=MAX_EVENTS_PER_CYCLE,
                         on_cycle=note_cycle)

    registry = collect_run_metrics(peers)
    run = PropagationRun(
        simulator=simulator, nodes=peers, records=records,
        registry=registry, cycles=cycles,
        params={"nodes": nodes, "degree": degree, "blocks": blocks,
                "block_txns": block_txns, "interval": interval,
                "topology": topology, "loss": loss, "seed": seed,
                "protocol": protocol.value})
    histogram = registry.histogram("net_propagation_seconds",
                                   buckets=PROPAGATION_BUCKETS)
    for delay in run.delays:
        histogram.observe(delay)
    registry.counter("net_blocks_mined").inc(len(records))
    registry.counter("net_forks").inc(run.forks)
    registry.gauge("net_fork_rate").set(run.fork_rate)
    registry.gauge("net_block_coverage").set(run.coverage)
    return run
