"""Poisson miners over the network simulator: empirical fork rates.

The analytic fork model (:mod:`repro.analysis.forks`) predicts
``1 - exp(-D/T)``; this module *measures* forks instead.  Miners find
blocks as a Poisson process split by hash-rate share, assemble blocks
from their mempool on their current best tip, and relay them with the
configured protocol.  Stale blocks (losers of fork races) fall directly
out of each node's :class:`~repro.chain.ledger.Blockchain`.

Transaction propagation is assumed perfect (a shared traffic source
feeds every mempool), matching the synchronized-mempool regime the
paper's Protocol 1 evaluation targets -- so the measured fork rate
isolates *block relay* performance, the quantity under study.
"""

from __future__ import annotations

import logging
import random
import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.chain.block import Block
from repro.chain.ledger import Blockchain, assemble_child
from repro.chain.transaction import TransactionGenerator
from repro.errors import ParameterError
from repro.net.node import Node, RelayProtocol
from repro.net.simulator import Simulator
from repro.net.topology import connect_random_regular


logger = logging.getLogger(__name__)

#: Peers per miner in :func:`run_mining_experiment`'s overlay (fewer
#: when there are fewer other miners).
MINER_DEGREE = 3


class MinerNode(Node):
    """A peer that also mines: chain state plus a Poisson block clock."""

    def __init__(self, node_id: str, simulator: Simulator,
                 protocol: RelayProtocol = RelayProtocol.GRAPHENE,
                 genesis: Optional[Block] = None,
                 hashrate_share: float = 0.0,
                 block_interval: float = 600.0,
                 max_block_txns: int = 1000,
                 rng: Optional[random.Random] = None):
        super().__init__(node_id, simulator, protocol=protocol)
        if not 0.0 <= hashrate_share <= 1.0:
            raise ParameterError(
                f"hashrate_share must be in [0, 1], got {hashrate_share}")
        self.chain = Blockchain(genesis)
        self.blocks[self.chain.genesis.header.merkle_root] = \
            self.chain.genesis
        self.hashrate_share = hashrate_share
        self.block_interval = block_interval
        self.max_block_txns = max_block_txns
        # crc32, not the per-process salted hash(), so a miner built
        # without ``rng`` finds its blocks at the same times in every run.
        self.rng = rng or random.Random(zlib.crc32(node_id.encode()) & 0xFFFF)
        self._txgen = TransactionGenerator(seed=self.rng.getrandbits(32))
        self.mined: list = []
        self._mining = False

    # ------------------------------------------------------------------
    # Mining clock
    # ------------------------------------------------------------------

    def start_mining(self) -> None:
        """Begin finding blocks, until :meth:`stop_mining`."""
        if self.hashrate_share <= 0.0:
            raise ParameterError(
                f"{self.node_id} has no hash rate; cannot mine")
        self._mining = True
        self._schedule_next_find()

    def stop_mining(self) -> None:
        self._mining = False

    def _schedule_next_find(self) -> None:
        delay = self.rng.expovariate(
            self.hashrate_share / self.block_interval)
        self.simulator.schedule(delay, self._on_block_found)

    def _on_block_found(self) -> None:
        if not self._mining:
            return
        now = self.simulator.now
        # A fresh coinbase makes every block unique -- the reason two
        # fork-racing blocks over the same mempool still differ.
        txs = ([self._txgen.make_coinbase()]
               + self.mempool.transactions()[: self.max_block_txns])
        block = assemble_child(self.chain.tip, txs,
                               timestamp=int(now * 1000),
                               nonce=self.rng.getrandbits(32))
        self.mined.append(block)
        logger.debug("%s mined block %d (height %d, %d txns) at t=%.2f",
                     self.node_id, len(self.mined), self.chain.height + 1,
                     block.n, now)
        self._accept_block(block, origin=None)
        if self._mining:
            self._schedule_next_find()

    # ------------------------------------------------------------------
    # Chain-aware block acceptance
    # ------------------------------------------------------------------

    def _accept_block(self, block: Block, origin) -> None:
        root = block.header.merkle_root
        already = root in self.blocks
        super()._accept_block(block, origin)
        if not already:
            self.chain.add_block(block)


@dataclass
class MiningReport:
    """Outcome of one mining experiment."""

    protocol: RelayProtocol
    blocks_mined: int
    stale_blocks: int
    reorgs: int
    fork_rate: float
    duration: float
    main_chain_height: int
    per_miner_blocks: dict = field(default_factory=dict)


def run_mining_experiment(
        protocol: RelayProtocol, blocks: int = 40,
        miners: int = 5,
        block_interval: float = 600.0, block_txns: int = 500,
        latency: float = 0.2, bandwidth: float = 50_000.0,
        seed: int = 0) -> MiningReport:
    """Mine ``blocks`` blocks across a miner clique-ish network.

    Every miner holds an equal hash-rate share.  A shared traffic source
    keeps ``block_txns`` fresh transactions in every mempool per block
    interval (perfect tx gossip), so relay cost -- and hence fork rate --
    is governed by the chosen block relay protocol.
    """
    if blocks < 1 or miners < 2:
        raise ParameterError("need blocks >= 1 and miners >= 2")
    master = random.Random(seed)
    sim = Simulator()
    genesis = Block.assemble([])
    nodes = [
        MinerNode(f"miner{i}", sim, protocol=protocol,
                  genesis=genesis, hashrate_share=1.0 / miners,
                  block_interval=block_interval,
                  max_block_txns=block_txns,
                  rng=random.Random(master.getrandbits(32)))
        for i in range(miners)
    ]
    connect_random_regular(nodes, degree=min(MINER_DEGREE, miners - 1),
                           latency=latency, bandwidth=bandwidth,
                           rng=master)

    gen = TransactionGenerator(seed=seed)

    def refill() -> None:
        fresh = gen.make_batch(block_txns)
        for node in nodes:
            node.mempool.add_many(fresh)
        # Refill roughly once per expected block.
        if total_mined() < blocks:
            sim.schedule(block_interval, refill)

    def total_mined() -> int:
        return sum(len(node.mined) for node in nodes)

    refill()
    for node in nodes:
        node.start_mining()

    # Run until the network has produced the block budget, then drain
    # in-flight relays so every fork resolves.
    horizon = block_interval * blocks * 4
    while total_mined() < blocks and sim.now < horizon:
        sim.run(until=sim.now + block_interval)
    for node in nodes:
        node.stop_mining()
    sim.run(until=sim.now + block_interval)

    # Judge forks from the most complete chain view.
    reference = max(nodes, key=lambda node: len(node.chain))
    chain = reference.chain
    return MiningReport(
        protocol=protocol,
        blocks_mined=total_mined(),
        stale_blocks=len(chain.stale_blocks()),
        reorgs=len(chain.reorgs),
        fork_rate=chain.fork_rate(),
        duration=sim.now,
        main_chain_height=chain.height,
        per_miner_blocks={node.node_id: len(node.mined)
                          for node in nodes})
