"""Compact Blocks and XThin: one set of steps, two drivers.

The loopback relays (``CompactBlocksRelay`` / ``XThinRelay``, the
figures' sizes) and the simulated nodes run the same pure steps of
:mod:`repro.baselines`.  Here both drivers relay the same block to the
same mempool and must agree on the outcome, the repair or push count
and the round trips; the simulated bytes must equal the loopback bytes
plus exactly the envelope rule of :data:`PAYLOAD_PRICED`.
"""

from __future__ import annotations

import pytest

from repro.baselines.compact_blocks import CompactBlocksRelay
from repro.baselines.full_block import FullBlockRelay
from repro.baselines.xthin import XThinRelay
from repro.chain.block import Block
from repro.chain.mempool import Mempool
from repro.chain.scenarios import make_block_scenario
from repro.chain.transaction import TransactionGenerator
from repro.core.sizing import MSG_HEADER_BYTES, getdata_bytes
from repro.net import Node, RelayProtocol, Simulator
from repro.net.simulator import FaultInjector, Link
from repro.security.collision_attack import craft_colliding_pair
from repro.utils.serialization import compact_size_len

LOOPBACK = {
    RelayProtocol.COMPACT_BLOCKS: CompactBlocksRelay,
    RelayProtocol.XTHIN: XThinRelay,
    RelayProtocol.FULL_BLOCK: FullBlockRelay,
}

#: Messages the loopback relays price by payload alone, which the
#: simulator charges ``MSG_HEADER_BYTES`` on top of (inv and the
#: getdata-shaped requests are priced with their envelope by both).
PAYLOAD_PRICED = frozenset({"cmpctblock", "blocktxn", "xthinblock", "block"})


def _relay(protocol, block, sender_txs, receiver_txs):
    """Mine ``block`` at a, relay it to b; return (a, b, every message
    delivered, in order)."""
    sim = Simulator()
    a = Node("a", sim, protocol=protocol)
    b = Node("b", sim, protocol=protocol)
    a.connect(b, Link(latency=0.01, bandwidth=10_000_000))
    a.mempool.add_many(sender_txs)
    b.mempool.add_many(receiver_txs)
    seen = []
    for node in (a, b):
        def receive(sender, message, _real=node.receive):
            seen.append(message)
            _real(sender, message)
        node.receive = receive
    a.mine_block(block)
    sim.run()
    return a, b, seen


def _block_with_coinbase(n, fraction, seed):
    sc = make_block_scenario(n - 1, n // 2, fraction, seed=seed)
    coinbase = TransactionGenerator(seed=seed + 77).make_coinbase()
    return sc, Block.assemble(list(sc.block.txs) + [coinbase])


@pytest.mark.parametrize("protocol", sorted(LOOPBACK, key=lambda p: p.value),
                         ids=lambda p: p.value)
@pytest.mark.parametrize("n", [50, 255, 256, 257, 2000])
def test_simulated_relay_is_the_loopback_relay(protocol, n):
    for fraction in (1.0, 0.9, 0.6):
        for seed in range(3):
            sc, block = _block_with_coinbase(n, fraction, seed)
            pool = sc.receiver_mempool
            loop = LOOPBACK[protocol]().relay(block, pool)
            a, b, seen = _relay(protocol, block,
                                sc.sender_mempool.transactions(),
                                pool.transactions())
            by_command = {m.command: m for m in seen}
            root = block.header.merkle_root
            # The block: reconstructed, or the fallback taken.
            assert b.blocks[root].txids == block.txids
            assert b.relay_failures == (0 if loop.success else 1)
            # The missing or pushed count.
            if protocol is RelayProtocol.COMPACT_BLOCKS:
                request = by_command.get("getblocktxn")
                assert (len(request.payload[1]) if request else 0) \
                    == loop.missing_count
            if protocol is RelayProtocol.XTHIN:
                assert len(by_command["xthinblock"].payload[3]) \
                    == loop.pushed_count
            # Bytes: loopback + one envelope per payload-priced message
            # + the mempool count the shared block getdata carries.
            expected = (loop.total_bytes
                        + getattr(loop, "repair_tx_bytes", 0)
                        + getattr(loop, "pushed_tx_bytes", 0)
                        + MSG_HEADER_BYTES * sum(
                            m.command in PAYLOAD_PRICED for m in seen)
                        + (compact_size_len(len(pool)) - compact_size_len(0)
                           if protocol is not RelayProtocol.XTHIN else 0))
            if not loop.success:
                # Fallback: a full-block getdata and the block itself.
                assert protocol is RelayProtocol.XTHIN
                expected += getdata_bytes(0) + block.serialized_size()
            assert a.total_bytes_sent() + b.total_bytes_sent() == expected
            if loop.success:
                # Round trips: half of one for the inv, one per request.
                assert 0.5 + b.peers[a].messages_sent == loop.roundtrips


class TestShortIdCollision:
    """t2 shares t1's 8-byte short ID; the block holds t1, the mempool
    both.  A short ID two mempool transactions share is a missing slot,
    whichever arrived last."""

    @staticmethod
    def _case(order):
        t1, t2 = craft_colliding_pair(seed=5)
        honest = TransactionGenerator(seed=5).make_batch(99)
        block = Block.assemble(honest + [t1])
        pool = Mempool(honest)
        for tx in (t1, t2) if order == "t1_first" else (t2, t1):
            pool.add(tx)
        return block, pool

    @pytest.mark.parametrize("order", ["t1_first", "t2_first"])
    def test_compact_blocks_repairs_the_slot(self, order):
        block, pool = self._case(order)
        outcome = CompactBlocksRelay().relay(block, pool)
        assert outcome.success
        assert outcome.missing_count == 1
        assert outcome.roundtrips == 2.5
        assert outcome.collisions == 1
        a, b, seen = _relay(RelayProtocol.COMPACT_BLOCKS, block,
                            block.txs, pool.transactions())
        assert block.header.merkle_root in b.blocks
        assert b.relay_failures == 0
        [request] = [m for m in seen if m.command == "getblocktxn"]
        assert len(request.payload[1]) == 1

    @pytest.mark.parametrize("order", ["t1_first", "t2_first"])
    def test_xthin_falls_back(self, order):
        block, pool = self._case(order)
        outcome = XThinRelay().relay(block, pool)
        assert not outcome.success
        assert outcome.collisions == 1
        a, b, _ = _relay(RelayProtocol.XTHIN, block, block.txs,
                         pool.transactions())
        assert b.blocks[block.header.merkle_root].txids == block.txids
        assert b.relay_failures == 1


class TestEnvelopeChargedOnce:
    def test_escalated_graphene_link_equals_its_stream(self):
        sc = make_block_scenario(n=200, extra=200, fraction=1.0, seed=3)
        sim = Simulator()
        a, b = Node("a", sim), Node("b", sim)
        a.connect(b)
        a.inject_fault(b, FaultInjector(
            drop_commands=frozenset({"graphene_block"})))
        b.mempool.add_many(sc.receiver_mempool.transactions())
        a.mine_block(sc.block)
        sim.run()
        root = sc.block.header.merkle_root
        assert root in b.blocks
        assert b.relay_timeouts > b.recovery.max_retries  # escalated
        stream = b.relay_telemetry[root]
        sent = sum(e.wire_bytes for e in stream if e.direction == "sent")
        assert b.peers[a].bytes_sent == sent == 318

    def test_compact_blocks_repair_request_bytes(self):
        sc = make_block_scenario(n=200, extra=200, fraction=0.9, seed=3)
        loop = CompactBlocksRelay().relay(sc.block, sc.receiver_mempool)
        a, b, _ = _relay(RelayProtocol.COMPACT_BLOCKS, sc.block,
                         sc.sender_mempool.transactions(),
                         sc.receiver_mempool.transactions())
        assert b.peers[a].bytes_sent == (
            getdata_bytes(len(sc.receiver_mempool))
            + loop.repair_request_bytes) == 109
