"""The columnar candidate set against the per-object construction it replaced.

``_oracle_receive`` is the receive path as Protocols 1 and 3 wrote it
before :class:`~repro.core.candidates.CandidateSet`: a dict filled one
``Transaction`` at a time, Python lists of short IDs, ``sorted`` and a
list-built Merkle root.  ``_oracle_finish_p2`` is Protocol 2's step 5 as
it was written before it settled through ``settle``: the same dicts, a
``short_id`` call per candidate and per-key maps to bring local keys
back.  They stay here as the references the packed paths are compared
with.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block
from repro.chain.merkle import merkle_root
from repro.chain.mempool import Mempool
from repro.chain.scenarios import make_block_scenario, make_sync_scenario
from repro.chain.transaction import Transaction, TransactionGenerator
from repro.core.candidates import CandidateSet
from repro.core.params import GrapheneConfig
from repro.core.protocol1 import build_protocol1, receive_protocol1
from repro.core.protocol2 import (
    build_protocol2_request,
    finish_protocol2,
    respond_protocol2,
)
from repro.core.protocol3 import (
    SEED_R,
    SymbolBatch,
    begin_protocol3,
    build_protocol3,
    finish_protocol3,
    ingest_symbols,
    next_batch_size,
)
from repro.errors import MalformedIBLTError
from repro.pds.bloom import BloomFilter
from repro.pds.iblt import IBLT
from repro.pds.pingpong import pingpong_decode
from repro.pds.riblt import RIBLTDecoder


def _txs(z: CandidateSet) -> list:
    """Z's transactions, in candidate order."""
    return z.source.gather(z.rows)


def _oracle_receive(payload, mempool, width, decode, block):
    candidates: dict = {}
    for tx in payload.prefilled:
        if tx.txid not in candidates:
            candidates[tx.txid] = tx
    pool = [tx for tx in mempool if tx.txid not in candidates]
    for tx, hit in zip(pool, payload.bloom_s.contains_many(
            [tx.txid for tx in pool])):
        if hit:
            candidates[tx.txid] = tx
    cand_txs = list(candidates.values())
    cand_sids = [tx.short_id(width) for tx in cand_txs]
    out = {"candidates": candidates, "sids": cand_sids, "success": False,
           "txs": None, "missing": frozenset()}
    complete, local, remote = decode(cand_sids)
    if not complete:
        return out
    surviving = [tx for tx, sid in zip(cand_txs, cand_sids)
                 if sid not in remote]
    if payload.n != len(surviving) + len(local):
        return out
    if local:
        out["missing"] = frozenset(local)
        return out
    ordered = sorted(surviving, key=lambda tx: tx.txid)
    if merkle_root([tx.txid for tx in ordered]) == block.header.merkle_root:
        out.update(success=True, txs=ordered)
    return out


def _oracle_finish_p2(response, candidates, p1_diff, special_case, n,
                      mempool, width, block):
    """Step 5 over ``candidates`` (Z, ``txid -> Transaction``); ``block``
    None is mempool mode.  The one rule it did not have is settle's: a
    decode whose count does not reconcile with ``n`` is incomplete."""
    dropped: dict = {}
    if response.bloom_f is not None:
        hits = response.bloom_f.contains_many(candidates)
        dropped = {txid: tx for (txid, tx), hit
                   in zip(candidates.items(), hits) if not hit}
        candidates = {txid: tx for txid, tx in candidates.items()
                      if txid not in dropped}
    candidates = dict(candidates)
    for tx in response.missing_txs:
        candidates[tx.txid] = tx
    j = response.iblt_j
    prime = IBLT(j.cells, k=j.k, seed=j.seed, cell_bytes=j.cell_bytes)
    prime.update([tx.short_id(width) for tx in candidates.values()])
    diff = j.subtract(prime)
    decode = diff.decode()
    pingpong = False
    if not decode.complete and p1_diff is not None and not special_case:
        aligned = p1_diff.copy()
        for tx in response.missing_txs:
            aligned.peel(tx.short_id(width), +1)
        decode = pingpong_decode(diff, aligned)
        pingpong = True
    out = {"txs": None, "missing": frozenset(), "complete": decode.complete,
           "pingpong": pingpong, "reconciled": []}
    if not decode.complete:
        return out
    surviving = {txid: tx for txid, tx in candidates.items()
                 if tx.short_id(width) not in decode.remote}
    if n != len(surviving) + len(decode.local):
        out["complete"] = False
        return out
    held: dict = {}
    for tx in [*dropped.values(), *mempool]:
        held.setdefault(tx.short_id(width), tx)
    missing = set()
    for key in decode.local:
        if key in held:
            surviving[held[key].txid] = held[key]
        else:
            missing.add(key)
    out["reconciled"] = list(surviving)
    if missing:
        out["missing"] = frozenset(missing)
        return out
    ordered = sorted(surviving.values(), key=lambda tx: tx.txid)
    if block is None or merkle_root([tx.txid for tx in ordered]) \
            == block.header.merkle_root:
        out["txs"] = ordered
    return out


def _check_p1(block, mempool, config, prefill=None):
    payload = build_protocol1(block.columns, len(mempool), config,
                              prefill=prefill)

    def decode(sids):
        prime = IBLT(payload.iblt_i.cells, k=payload.iblt_i.k,
                     seed=payload.iblt_i.seed)
        prime.update(sids)
        return payload.iblt_i.subtract(prime).decode()

    want = _oracle_receive(payload, mempool, config.short_id_bytes, decode,
                           block)
    got = receive_protocol1(payload, mempool, config, validate_block=block)
    assert got.candidate_set.sids.tolist() == want["sids"]
    assert _txs(got.candidate_set) == list(want["candidates"].values())
    assert (got.success, got.z, got.txs, got.missing_short_ids) == (
        want["success"], len(want["candidates"]), want["txs"],
        want["missing"])
    return got


def _check_p3(block, mempool, config, prefill=None):
    payload, stream = build_protocol3(block.columns, len(mempool), config,
                                      prefill=prefill)

    def windows(decoder_size, complete):
        """The continuation windows a receiver asks for, opening first."""
        yield payload.symbols
        while not complete():
            start = decoder_size()
            yield SymbolBatch(start, *stream.window(
                start, next_batch_size(start)))

    def decode(sids):
        decoder = RIBLTDecoder(sids, seed=config.seed ^ SEED_R)
        for batch in windows(lambda: decoder.size, lambda: decoder.complete):
            decoder.add_symbols(batch.counts, batch.key_sums,
                                batch.check_sums)
        return True, decoder.local, decoder.remote

    def receive():
        state = begin_protocol3(payload, mempool, config)
        batches = windows(lambda: state.symbols,
                          lambda: state.decoder.complete)
        next(batches)                  # begin_protocol3 ingested the opening
        for batch in batches:
            ingest_symbols(state, batch)
        return state, finish_protocol3(state, config, validate_block=block)

    try:
        want = _oracle_receive(payload, mempool, config.short_id_bytes,
                               decode, block)
    except MalformedIBLTError:
        # A key peeled twice (rare, any hash family): same stream, same
        # keys, so the packed path must trip on it too.
        with pytest.raises(MalformedIBLTError):
            receive()
        return None
    state, got = receive()
    assert state.candidate_set.sids.tolist() == want["sids"]
    assert _txs(state.candidate_set) == list(want["candidates"].values())
    assert (got.success, got.txs, got.missing_short_ids) == (
        want["success"], want["txs"], want["missing"])
    return got


def _check_p2(block, mempool, config, prefill=None, validate=True):
    """Protocol 2 on whatever Protocol 1 left -- run even where Protocol 1
    decoded, so every case reaches step 5.  ``validate=False`` is
    mempool mode."""
    target = block if validate else None
    width, m = config.short_id_bytes, len(mempool)
    payload = build_protocol1(block.columns, m, config, prefill=prefill)
    p1 = receive_protocol1(payload, mempool, config, validate_block=target)
    request, state = build_protocol2_request(p1, payload, m, config)
    response = respond_protocol2(request, block.columns, m, config)
    z = _oracle_receive(payload, mempool, width,
                        lambda sids: (False, (), ()), block)["candidates"]
    want = _oracle_finish_p2(response, z, p1.iblt_diff, request.special_case,
                             payload.n, mempool, width, target)
    got = finish_protocol2(response, state, mempool, config,
                           validate_block=target)
    assert (got.txs, got.missing_short_ids, got.decode_complete,
            got.used_pingpong, [tx.txid for tx in got.reconciled]) == (
        want["txs"], want["missing"], want["complete"], want["pingpong"],
        want["reconciled"])
    assert got.success is (want["txs"] is not None)
    return got


CHECKS = pytest.mark.parametrize("check", [_check_p1, _check_p2, _check_p3])


class TestAgainstThePerObjectOracle:
    @CHECKS
    def test_prefilled_transaction_also_in_the_mempool(self, check, config):
        sc = make_block_scenario(n=60, extra=90, fraction=1.0, seed=11)
        held = sc.block.txs[7]
        assert held.txid in sc.receiver_mempool
        # Twice in the prefill list too: the first occurrence counts.
        got = check(sc.block, sc.receiver_mempool, config,
                    prefill=[held, sc.block.txs[3], held])
        assert got.success

    @CHECKS
    def test_coinbase_is_prefilled_and_nowhere_in_the_mempool(
            self, check, config):
        gen = TransactionGenerator(seed=12)
        txs = gen.make_batch(40)
        block = Block.assemble(txs + [gen.make_coinbase()])
        mempool = Mempool(txs + gen.make_batch(50))
        assert check(block, mempool, config).success

    @CHECKS
    def test_short_id_collision_pair_in_z(self, check, config):
        # Paper 6.1: two transactions sharing their first 8 bytes, one
        # in the block, both in the mempool and both through S (m ~ n
        # makes S degenerate).  Whatever the decode makes of the pair,
        # the packed path makes the same of it.
        gen = TransactionGenerator(seed=13)
        txs = gen.make_batch(30)
        twin = Transaction(txid=txs[0].txid[:8] + bytes(range(24)))
        block = Block.assemble(txs)
        mempool = Mempool(txs + [twin])
        got = check(block, mempool, config)
        # Only Protocol 2's filter F can tell the pair apart: it drops
        # the twin, and the rest settles.
        assert got.success is (check is _check_p2)

    @CHECKS
    def test_degenerate_filter_passes_the_whole_mempool(self, check, config):
        sc = make_block_scenario(n=50, extra=0, fraction=1.0, seed=14)
        got = check(sc.block, sc.receiver_mempool, config)
        assert got.success

    @CHECKS
    def test_empty_mempool(self, check, config):
        sc = make_block_scenario(n=20, extra=0, fraction=1.0, seed=15)
        # Protocol 2 pushes the whole block as T.
        got = check(sc.block, Mempool(), config)
        assert got.success is (check is _check_p2)

    @CHECKS
    def test_six_byte_short_ids(self, check):
        config = GrapheneConfig(short_id_bytes=6)
        sc = make_block_scenario(n=80, extra=160, fraction=1.0, seed=16)
        assert check(sc.block, sc.receiver_mempool, config).success
        sc = make_block_scenario(n=80, extra=160, fraction=0.9, seed=16)
        assert not check(sc.block, sc.receiver_mempool, config).success

    @CHECKS
    @given(n=st.integers(0, 70), extra=st.integers(0, 120),
           fraction=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
           seed=st.integers(0, 10**6), prefill=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_same_outcome_on_random_scenarios(self, check, n, extra,
                                              fraction, seed, prefill):
        sc = make_block_scenario(n, extra, fraction, seed=seed)
        check(sc.block, sc.receiver_mempool, GrapheneConfig(),
              prefill=sc.block.txs[:prefill])


class TestProtocol2AgainstItsOracle:
    """The step-5 paths only Protocol 2 has: F, T, ping-pong, a fetch."""

    def test_standard_case(self, config):
        sc = make_block_scenario(n=200, extra=200, fraction=0.9, seed=46)
        assert _check_p2(sc.block, sc.receiver_mempool, config).decode_complete

    def test_special_case_narrows_z_by_filter_f(self, config):
        # m = n: the special case, so the answer carries F.
        sc = make_block_scenario(n=150, extra=0, fraction=0.6, seed=47)
        assert _check_p2(sc.block, sc.receiver_mempool, config).decode_complete

    def test_pingpong_rescue_then_short_id_fetch(self, config):
        sc = make_block_scenario(n=120, extra=120, fraction=0.4, seed=2736)
        got = _check_p2(sc.block, sc.receiver_mempool, config)
        assert got.used_pingpong and got.decode_complete
        assert got.missing_short_ids and not got.success

    def test_mempool_mode(self, config):
        sc = make_sync_scenario(n=300, fraction_common=0.5, seed=48)
        block = Block.assemble(sc.sender_mempool.transactions())
        got = _check_p2(block, sc.receiver_mempool, config, validate=False)
        assert got.decode_complete


class TestCandidateSet:
    def test_degenerate_filter_is_the_whole_pool_in_order(self, txgen):
        pool = Mempool(txgen.make_batch(15))
        everything = BloomFilter.from_fpr(10, 1.0, seed=1)
        assert everything.nbits == 0
        z = CandidateSet((), pool, everything, 8)
        assert len(z) == 15
        assert _txs(z) == list(pool)
        assert z.ids() == pool.columns().ids

    def test_without_strips_by_short_id_and_keeps_order(self, txgen):
        txs = txgen.make_batch(12)
        head = txgen.make_coinbase()
        z = CandidateSet((head,), Mempool(txs),
                         BloomFilter.from_fpr(10, 1.0, seed=1), 8)
        assert z.sids.tolist() == [tx.short_id() for tx in [head] + txs]
        kept = z.source.take(
            z.rows_without({head.short_id(), txs[4].short_id(), 12345}))
        assert kept.txs == txs[:4] + txs[5:]
        assert kept.ids == b"".join(tx.txid for tx in kept.txs)
        assert z.source.take(z.rows_without(frozenset())).txs \
            == [head] + txs

    def test_view_is_built_once(self, txgen):
        # Z indexes the mempool's one snapshot, and a narrowed Z (filter
        # F's) indexes the same one: no view of it is ever rebuilt.
        pool = Mempool(txgen.make_batch(5))
        z = CandidateSet((), pool, BloomFilter.from_fpr(10, 1.0, seed=1), 8)
        assert z.source is pool.columns()
        mask = z.sids % 2 == 0
        kept = z.where(mask)
        assert kept.source is z.source
        assert kept.rows.tolist() == z.rows[mask].tolist()
        assert kept.sids.tolist() == z.sids[mask].tolist()


class TestNoPerItemPass:
    """One P1 build and one P1 receive never walk transactions in Python.

    Counting wrappers stand in for ``Transaction.short_id`` and
    ``Mempool.__iter__``; the budget is a constant, so it is the same at
    twice the size (in the style of ``TestNoPerItemSha``).
    """

    @staticmethod
    def _calls(monkeypatch, n) -> dict:
        sc = make_block_scenario(n, n, 1.0, seed=17)
        calls = {"short_id": 0, "mempool_iter": 0}
        real_short_id, real_iter = Transaction.short_id, Mempool.__iter__

        def short_id(self, nbytes=8):
            calls["short_id"] += 1
            return real_short_id(self, nbytes)

        def mempool_iter(self):
            calls["mempool_iter"] += 1
            return real_iter(self)

        with monkeypatch.context() as patch:
            patch.setattr(Transaction, "short_id", short_id)
            patch.setattr(Mempool, "__iter__", mempool_iter)
            payload = build_protocol1(sc.block.columns, sc.m)
            result = receive_protocol1(payload, sc.receiver_mempool,
                                       validate_block=sc.block)
        assert result.success and result.z >= n
        return calls

    def test_calls_do_not_grow_with_the_sets(self, monkeypatch):
        calls = self._calls(monkeypatch, 2000)
        assert calls == {"short_id": 0, "mempool_iter": 0}
        assert self._calls(monkeypatch, 1000) == calls

    @pytest.mark.parametrize("n", [2000, 1000])
    def test_protocol2_fallback_does_not_walk_z(self, monkeypatch, n):
        # A tenth of the block missing: P1 fails and P2 pushes T.  The
        # whole chain never iterates a mempool, and step 5 may name T's
        # short IDs (|T| calls at most), never Z's.
        sc = make_block_scenario(n, n, 0.9, seed=17)
        calls = {"short_id": 0, "mempool_iter": 0}
        real_short_id, real_iter = Transaction.short_id, Mempool.__iter__
        counting = {"on": False}

        def short_id(self, nbytes=8):
            calls["short_id"] += counting["on"]
            return real_short_id(self, nbytes)

        def mempool_iter(self):
            calls["mempool_iter"] += 1
            return real_iter(self)

        with monkeypatch.context() as patch:
            patch.setattr(Transaction, "short_id", short_id)
            patch.setattr(Mempool, "__iter__", mempool_iter)
            payload = build_protocol1(sc.block.columns, sc.m)
            p1 = receive_protocol1(payload, sc.receiver_mempool,
                                   validate_block=sc.block)
            assert not p1.success
            request, state = build_protocol2_request(p1, payload, sc.m)
            response = respond_protocol2(request, sc.block.columns, sc.m)
            counting["on"] = True
            result = finish_protocol2(response, state, sc.receiver_mempool,
                                      validate_block=sc.block)
        assert result.decode_complete and response.missing_txs
        assert calls["mempool_iter"] == 0
        assert calls["short_id"] <= len(response.missing_txs)
