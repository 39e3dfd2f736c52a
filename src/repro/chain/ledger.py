"""Chain state: a block tree with longest-chain fork choice.

The paper's motivation is ultimately about *forks*: two miners
extending the same parent because a block propagated too slowly.  To
observe that end to end, nodes need real chain state -- not just a bag
of blocks.  :class:`Blockchain` keeps the header tree, tracks heights,
picks the best tip (longest chain, first-seen tie-break like Bitcoin),
reports reorgs, and counts stale blocks, which is exactly the fork-rate
numerator the mining experiments measure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.chain.block import Block
from repro.errors import ParameterError
from repro.utils.hashing import sha256


def block_hash(block: Block) -> bytes:
    """The block's identity: double-SHA256 of its 80-byte header."""
    return sha256(sha256(block.header.serialize()))


class ChainEvent(enum.Enum):
    """What adding a block did to the chain."""

    EXTENDED_TIP = "extended_tip"   # grew the best chain
    CREATED_FORK = "created_fork"   # a competing branch appeared/grew
    REORGANIZED = "reorganized"     # a competing branch became best
    DUPLICATE = "duplicate"         # already known
    ORPHAN = "orphan"               # parent unknown; held aside


@dataclass
class _Entry:
    block: Block
    hash: bytes
    parent: bytes
    height: int
    arrival_index: int


@dataclass
class ReorgInfo:
    """Details of one reorganization."""

    old_tip: bytes
    new_tip: bytes
    disconnected: list = field(default_factory=list)  # hashes, old branch
    connected: list = field(default_factory=list)     # hashes, new branch


class Blockchain:
    """A block tree rooted at a genesis block."""

    def __init__(self, genesis: Optional[Block] = None):
        self.genesis = genesis if genesis is not None else Block.assemble([])
        genesis_hash = block_hash(self.genesis)
        self._entries: dict = {
            genesis_hash: _Entry(block=self.genesis, hash=genesis_hash,
                                 parent=b"", height=0, arrival_index=0)
        }
        self._children: dict = {genesis_hash: []}
        self._orphans: dict = {}  # parent hash -> list of blocks
        self._arrivals = 0
        self.tip_hash = genesis_hash
        self.reorgs: list = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def tip(self) -> Block:
        return self._entries[self.tip_hash].block

    @property
    def height(self) -> int:
        return self._entries[self.tip_hash].height

    def __contains__(self, bhash: bytes) -> bool:
        return bhash in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def main_chain_hashes(self) -> set:
        hashes = set()
        cursor = self.tip_hash
        while cursor:
            hashes.add(cursor)
            cursor = self._entries[cursor].parent
        return hashes

    def stale_blocks(self) -> list:
        """Blocks that lost a fork race (not on the best chain)."""
        on_main = self.main_chain_hashes()
        return [entry.block for bhash, entry in self._entries.items()
                if bhash not in on_main]

    def fork_rate(self) -> float:
        """Stale blocks as a fraction of all non-genesis blocks."""
        total = len(self._entries) - 1
        if total <= 0:
            return 0.0
        return len(self.stale_blocks()) / total

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------

    def add_block(self, block: Block,
                  parent_hash: Optional[bytes] = None) -> ChainEvent:
        """Insert ``block`` under ``parent_hash`` (default: current tip).

        Orphans (unknown parent) are retained and connected when their
        parent arrives.  Returns what happened to the best chain.
        """
        bhash = block_hash(block)
        if bhash in self._entries:
            return ChainEvent.DUPLICATE
        parent = parent_hash if parent_hash is not None \
            else bytes(block.header.prev_hash)
        if parent not in self._entries:
            self._orphans.setdefault(parent, []).append(block)
            return ChainEvent.ORPHAN
        event = self._connect(block, bhash, parent)
        self._adopt_orphans(bhash)
        return event

    def _connect(self, block: Block, bhash: bytes,
                 parent: bytes) -> ChainEvent:
        self._arrivals += 1
        entry = _Entry(block=block, hash=bhash, parent=parent,
                       height=self._entries[parent].height + 1,
                       arrival_index=self._arrivals)
        self._entries[bhash] = entry
        self._children.setdefault(parent, []).append(bhash)
        self._children.setdefault(bhash, [])

        old_tip = self.tip_hash
        # Longest chain wins; first-seen breaks ties (no reorg on equal
        # height, like Bitcoin's first-seen rule).
        if entry.height > self._entries[old_tip].height:
            if parent == old_tip:
                self.tip_hash = bhash
                return ChainEvent.EXTENDED_TIP
            info = self._describe_reorg(old_tip, bhash)
            self.tip_hash = bhash
            self.reorgs.append(info)
            return ChainEvent.REORGANIZED
        return ChainEvent.CREATED_FORK

    def _adopt_orphans(self, parent: bytes) -> None:
        pending = self._orphans.pop(parent, [])
        for block in pending:
            self.add_block(block, parent_hash=parent)

    def _ancestors(self, bhash: bytes) -> list:
        path = []
        cursor = bhash
        while cursor:
            path.append(cursor)
            cursor = self._entries[cursor].parent
        return path

    def _describe_reorg(self, old_tip: bytes, new_tip: bytes) -> ReorgInfo:
        old_path = self._ancestors(old_tip)
        new_path = self._ancestors(new_tip)
        old_set = set(old_path)
        fork_point = next(h for h in new_path if h in old_set)
        disconnected = old_path[:old_path.index(fork_point)]
        connected = new_path[:new_path.index(fork_point)]
        return ReorgInfo(old_tip=old_tip, new_tip=new_tip,
                         disconnected=disconnected,
                         connected=list(reversed(connected)))

    def __repr__(self) -> str:
        return (f"Blockchain(height={self.height}, blocks={len(self)}, "
                f"stale={len(self.stale_blocks())}, "
                f"reorgs={len(self.reorgs)})")


def assemble_child(parent: Block, txs, timestamp: int = 0,
                   nonce: int = 0) -> Block:
    """Build a block whose header commits to ``parent``."""
    if parent is None:
        raise ParameterError("parent block required")
    return Block.assemble(txs, prev_hash=block_hash(parent),
                          timestamp=timestamp, nonce=nonce)
