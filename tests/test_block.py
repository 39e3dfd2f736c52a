"""Tests for blocks, headers, and Merkle validation of candidates."""

from __future__ import annotations

import pytest

from repro.chain.block import BLOCK_HEADER_BYTES, Block, BlockHeader
from repro.errors import ParameterError


def _is_canonical(txs) -> bool:
    ids = [tx.txid for tx in txs]
    return ids == sorted(ids)


class TestBlockHeader:
    def test_serializes_to_80_bytes(self):
        assert len(BlockHeader().serialize()) == BLOCK_HEADER_BYTES

    def test_rejects_bad_hash_widths(self):
        with pytest.raises(ParameterError):
            BlockHeader(prev_hash=b"x")
        with pytest.raises(ParameterError):
            BlockHeader(merkle_root=b"x")

    def test_fields_survive_serialization_layout(self):
        header = BlockHeader(version=2, timestamp=1234, nonce=99)
        blob = header.serialize()
        assert blob[:4] == (2).to_bytes(4, "little")
        assert blob[-4:] == (99).to_bytes(4, "little")


class TestBlockAssembly:
    def test_assemble_orders_canonically(self, txgen):
        block = Block.assemble(txgen.make_batch(50))
        assert _is_canonical(block.txs)

    def test_n_and_txids(self, txgen):
        txs = txgen.make_batch(10)
        block = Block.assemble(txs)
        assert block.n == 10
        assert set(block.txids) == {tx.txid for tx in txs}

    def test_serialized_size_counts_payloads(self, txgen):
        txs = txgen.make_batch(5)
        block = Block.assemble(txs)
        assert block.serialized_size() == (
            BLOCK_HEADER_BYTES + sum(tx.size for tx in txs))

    def test_same_txs_same_root_regardless_of_input_order(self, txgen):
        txs = txgen.make_batch(20)
        a = Block.assemble(txs)
        b = Block.assemble(list(reversed(txs)))
        assert a.header.merkle_root == b.header.merkle_root


class TestCandidateValidation:
    def test_exact_set_validates(self, txgen):
        txs = txgen.make_batch(20)
        block = Block.assemble(txs)
        assert block.validate_candidate(list(reversed(txs)))

    def test_superset_fails(self, txgen):
        txs = txgen.make_batch(20)
        block = Block.assemble(txs)
        assert not block.validate_candidate(txs + [txgen.make()])

    def test_subset_fails(self, txgen):
        txs = txgen.make_batch(20)
        block = Block.assemble(txs)
        assert not block.validate_candidate(txs[:-1])

    def test_substitution_fails(self, txgen):
        txs = txgen.make_batch(20)
        block = Block.assemble(txs)
        swapped = txs[:-1] + [txgen.make()]
        assert not block.validate_candidate(swapped)

    def test_validated_order_is_canonical(self, txgen):
        txs = txgen.make_batch(20)
        block = Block.assemble(txs)
        ordered = block.validated_order(list(reversed(txs)))
        assert _is_canonical(ordered)

    def test_validated_order_is_none_on_mismatch(self, txgen):
        block = Block.assemble(txgen.make_batch(5))
        assert block.validated_order([txgen.make()]) is None

    def test_empty_block_validates_empty(self):
        block = Block.assemble([])
        assert block.validate_candidate([])
