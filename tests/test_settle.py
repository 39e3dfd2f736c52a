"""How a complete decode settles, for Protocol 1 and Protocol 3 alike.

Both receivers end the same way: strip the decoded false positives from
Z, hold the arithmetic to the announced ``n``, report what is missing,
and order + Merkle-check what is left.  One table drives both protocols
through the four endings; the inputs are the scenarios the per-protocol
suites already use (``small_scenario`` / ``missing_scenario`` of
``conftest.py``, the replayed-I' forgery of ``tests/test_iblt.py``, the
zeroed stream of ``tests/test_protocol3.py``).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chain.block import Block
from repro.chain.scenarios import make_block_scenario
from repro.core.candidates import CandidateSet
from repro.core.params import GrapheneConfig
from repro.core.protocol1 import build_protocol1, receive_protocol1
from repro.core.protocol3 import (
    SEED_R,
    SymbolBatch,
    begin_protocol3,
    build_protocol3,
    finish_protocol3,
    ingest_symbols,
    next_batch_size,
)
from repro.pds.iblt import IBLT
from repro.pds.riblt import RIBLTEncoder

CONFIG = GrapheneConfig()


def _forge(payload, **body):
    """``payload`` with its reconciliation body swapped out."""
    fields = {name: getattr(payload, name) for name in
              ("n", "bloom_s", "recover", "plan", "prefilled")}
    return type(payload)(**fields, **body)


def _own_short_ids(payload, mempool):
    """The short IDs of the receiver's own candidate set Z."""
    return CandidateSet(payload.prefilled, mempool, payload.bloom_s,
                        CONFIG.short_id_bytes).sids


def _settle_p1(scenario, validate_block, replay):
    payload = build_protocol1(scenario.block.txs, scenario.m, CONFIG)
    if replay:
        # I := I', so the subtract cancels to an all-zero table.
        own = IBLT(payload.iblt_i.cells, k=payload.iblt_i.k,
                   seed=payload.iblt_i.seed)
        own.update(_own_short_ids(payload, scenario.receiver_mempool))
        payload = _forge(payload, iblt_i=own)
    return receive_protocol1(payload, scenario.receiver_mempool, CONFIG,
                             validate_block=validate_block)


def _settle_p3(scenario, validate_block, replay):
    payload, stream = build_protocol3(scenario.block.txs, scenario.m,
                                      CONFIG)
    if replay:
        # The receiver's own symbols played back: every one cancels.
        stream = RIBLTEncoder(
            _own_short_ids(payload, scenario.receiver_mempool),
            seed=CONFIG.seed ^ SEED_R)
        payload = _forge(payload, symbols=SymbolBatch(
            0, *stream.window(0, len(payload.symbols))))
    state = begin_protocol3(payload, scenario.receiver_mempool, CONFIG)
    while not state.decoder.complete:
        start = state.symbols
        count = next_batch_size(start)
        ingest_symbols(state, SymbolBatch(start,
                                          *stream.window(start, count)))
    return finish_protocol3(state, CONFIG, validate_block=validate_block)


def _wrong_root(block: Block) -> Block:
    return Block(header=replace(block.header, merkle_root=bytes(32)),
                 txs=())


SYNCED = dict(n=100, extra=100, fraction=1.0, seed=99)    # small_scenario
MISSING = dict(n=100, extra=100, fraction=0.98, seed=77)
REPLAYED = dict(n=60, extra=30, fraction=0.8, seed=41)    # test_iblt's


@pytest.mark.parametrize("settle", [_settle_p1, _settle_p3],
                         ids=["p1", "p3"])
class TestSettle:
    def test_success_orders_and_validates(self, settle):
        sc = make_block_scenario(**SYNCED)
        result = settle(sc, sc.block, replay=False)
        assert result.success and result.decode_complete
        assert result.merkle_ok
        assert [tx.txid for tx in result.txs] == sc.block.txids
        assert not result.missing_short_ids
        assert {tx.txid for tx in result.reconciled} \
            == set(sc.block.txids)

    def test_mempool_mode_skips_the_merkle_check(self, settle):
        sc = make_block_scenario(**SYNCED)
        result = settle(sc, None, replay=False)
        assert result.success and not result.merkle_ok
        assert [tx.txid for tx in result.txs] == sorted(sc.block.txids)

    def test_missing_transactions_are_named_not_repaired(self, settle):
        sc = make_block_scenario(**MISSING)
        assert sc.missing, "scenario must leave the receiver short"
        result = settle(sc, sc.block, replay=False)
        assert not result.success and result.decode_complete
        assert result.txs is None
        assert result.missing_short_ids \
            == frozenset(tx.short_id() for tx in sc.missing)
        assert isinstance(result.missing_short_ids, frozenset)
        held = set(sc.block.txids) - {tx.txid for tx in sc.missing}
        assert {tx.txid for tx in result.reconciled} == held

    def test_all_zero_replay_is_a_decode_failure(self, settle):
        sc = make_block_scenario(**REPLAYED)
        result = settle(sc, sc.block, replay=True)
        assert not result.success
        assert result.decode_complete is False
        assert result.txs is None and not result.reconciled
        assert not result.missing_short_ids

    def test_merkle_mismatch_fails_but_keeps_the_survivors(self, settle):
        sc = make_block_scenario(**SYNCED)
        result = settle(sc, _wrong_root(sc.block), replay=False)
        assert result.success is False
        assert result.decode_complete and not result.merkle_ok
        assert result.txs is None
        assert {tx.txid for tx in result.reconciled} \
            == set(sc.block.txids)
