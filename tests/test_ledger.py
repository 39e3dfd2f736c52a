"""Tests for the block tree / fork choice."""

from __future__ import annotations

import pytest

from repro.chain.block import Block
from repro.chain.ledger import (
    GENESIS,
    Blockchain,
    ChainEvent,
    assemble_child,
    block_hash,
)
from repro.chain.transaction import TransactionGenerator


@pytest.fixture
def gen():
    return TransactionGenerator(seed=99)


def _child(parent, gen, count=2):
    return assemble_child(parent, gen.make_batch(count))


class TestLinearGrowth:
    def test_genesis_only(self):
        chain = Blockchain()
        assert chain.height == 0
        assert len(chain) == 1
        assert chain.fork_rate() == 0.0

    def test_extend_tip(self, gen):
        chain = Blockchain()
        b1 = _child(chain.tip, gen)
        assert chain.add_block(b1) is ChainEvent.EXTENDED_TIP
        assert chain.height == 1
        assert chain.tip is b1

    def test_main_chain_hashes(self, gen):
        chain = Blockchain()
        blocks = [GENESIS]
        for _ in range(5):
            block = _child(chain.tip, gen)
            chain.add_block(block)
            blocks.append(block)
        assert chain.main_chain_hashes() == {block_hash(b) for b in blocks}

    def test_duplicate_detected(self, gen):
        chain = Blockchain()
        block = _child(chain.tip, gen)
        chain.add_block(block)
        assert chain.add_block(block) is ChainEvent.DUPLICATE


class TestForks:
    def test_equal_height_keeps_first_seen(self, gen):
        chain = Blockchain()
        base = _child(chain.tip, gen)
        chain.add_block(base)
        left = assemble_child(base, gen.make_batch(2))
        right = assemble_child(base, gen.make_batch(2))
        assert chain.add_block(left) is ChainEvent.EXTENDED_TIP
        assert chain.add_block(right) is ChainEvent.CREATED_FORK
        assert chain.tip is left  # first seen wins
        assert len(chain.stale_blocks()) == 1
        assert chain.fork_rate() == pytest.approx(1 / 3)

    def test_longer_branch_reorganizes(self, gen):
        chain = Blockchain()
        base = _child(chain.tip, gen)
        chain.add_block(base)
        left = assemble_child(base, gen.make_batch(2))
        chain.add_block(left)
        right = assemble_child(base, gen.make_batch(2))
        chain.add_block(right)                      # losing fork...
        right2 = assemble_child(right, gen.make_batch(2))
        event = chain.add_block(right2)             # ...now longer
        assert event is ChainEvent.REORGANIZED
        assert chain.tip is right2
        assert len(chain.reorgs) == 1
        info = chain.reorgs[0]
        assert info.disconnected == [block_hash(left)]
        assert info.connected == [block_hash(right), block_hash(right2)]

    def test_stale_blocks_after_reorg(self, gen):
        chain = Blockchain()
        base = _child(chain.tip, gen)
        chain.add_block(base)
        left = assemble_child(base, gen.make_batch(2))
        chain.add_block(left)
        right = assemble_child(base, gen.make_batch(2))
        chain.add_block(right)
        chain.add_block(assemble_child(right, gen.make_batch(2)))
        stale = chain.stale_blocks()
        assert len(stale) == 1 and stale[0] is left


class TestOrphans:
    def test_orphan_held_then_adopted(self, gen):
        chain = Blockchain()
        b1 = _child(chain.tip, gen)
        b2 = assemble_child(b1, gen.make_batch(2))
        assert chain.add_block(b2) is ChainEvent.ORPHAN
        assert chain.height == 0
        chain.add_block(b1)
        # b2 auto-connected once its parent arrived.
        assert chain.height == 2
        assert chain.tip is b2

    def test_orphan_chain_of_two(self, gen):
        chain = Blockchain()
        b1 = _child(chain.tip, gen)
        b2 = assemble_child(b1, gen.make_batch(1))
        b3 = assemble_child(b2, gen.make_batch(1))
        chain.add_block(b3)
        chain.add_block(b2)
        assert chain.height == 0
        chain.add_block(b1)
        assert chain.height == 3

    def test_long_chain_delivered_backwards_connects(self, gen):
        chain = Blockchain()
        blocks, tip = [], chain.tip
        for height in range(1, 2001):
            tip = assemble_child(tip, [], timestamp=height)
            blocks.append(tip)
        for block in reversed(blocks[1:]):
            assert chain.add_block(block) is ChainEvent.ORPHAN
        assert chain.add_block(blocks[0]) is ChainEvent.EXTENDED_TIP
        assert chain.height == 2000
        assert chain.tip is blocks[-1]
        assert not chain._orphans


class TestHashing:
    def test_block_hash_depends_on_header(self, gen):
        a = Block.assemble(gen.make_batch(2), timestamp=1)
        b = Block.assemble(list(a.txs), timestamp=2)
        assert a.header.merkle_root == b.header.merkle_root
        assert block_hash(a) != block_hash(b)

    def test_coinbase_differentiates_same_mempool_blocks(self, gen):
        txs = gen.make_batch(5)
        a = Block.assemble(txs + [gen.make_coinbase()])
        b = Block.assemble(txs + [gen.make_coinbase()])
        assert a.header.merkle_root != b.header.merkle_root
