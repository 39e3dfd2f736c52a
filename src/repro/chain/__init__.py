"""Blockchain substrate: transactions, blocks, Merkle trees, mempools.

Graphene is evaluated in the paper as a block-propagation protocol for
Bitcoin Cash / Ethereum-like chains.  This package provides the pieces of
such a chain that the protocols touch: transactions with cryptographic
IDs, blocks with headers whose Merkle root lets a receiver verify a
decoded transaction set exactly, mempools, canonical transaction
ordering (CTOR, paper 6.2) and its cost model, and workload generators
for every experimental scenario in section 5.
"""

from repro.chain.transaction import Transaction, TransactionGenerator
from repro.chain.merkle import merkle_root
from repro.chain.block import Block, BlockHeader, BLOCK_HEADER_BYTES
from repro.chain.mempool import Mempool
from repro.chain.ordering import ordering_info_bytes
from repro.chain.scenarios import (
    BlockScenario,
    MempoolSyncScenario,
    make_block_scenario,
    make_sync_scenario,
)

__all__ = [
    "Transaction",
    "TransactionGenerator",
    "merkle_root",
    "Block",
    "BlockHeader",
    "BLOCK_HEADER_BYTES",
    "Mempool",
    "ordering_info_bytes",
    "BlockScenario",
    "MempoolSyncScenario",
    "make_block_scenario",
    "make_sync_scenario",
]
