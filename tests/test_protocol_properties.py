"""Property-based tests over whole-protocol invariants.

Hypothesis drives randomized scenarios through the full stack and
checks the invariants the paper's correctness rests on: a successful
relay always reproduces the block *exactly*; candidate sets shrink only
by removing non-block transactions; reconciliation is symmetric in
what it recovers.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.scenarios import make_block_scenario, make_sync_scenario
from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
)
from repro.core.params import GrapheneConfig
from repro.core.session import BlockRelaySession
from repro.core.mempool_sync import synchronize_mempools

SCENARIO = st.tuples(
    st.integers(min_value=10, max_value=250),   # n
    st.integers(min_value=0, max_value=300),    # extra
    st.floats(min_value=0.5, max_value=1.0),    # fraction
    st.integers(min_value=0, max_value=10**6),  # seed
)


class TestRelayExactness:
    @given(SCENARIO)
    @settings(max_examples=25, deadline=None)
    def test_successful_relay_is_exact(self, params):
        n, extra, fraction, seed = params
        scenario = make_block_scenario(n=n, extra=extra, fraction=fraction,
                                       seed=seed)
        outcome = BlockRelaySession().relay(scenario.block,
                                            scenario.receiver_mempool)
        if outcome.success:
            assert [t.txid for t in outcome.txs] == scenario.block.txids
        # Success is the overwhelmingly common case; either way the
        # session must never hand back a wrong block.

    @given(SCENARIO)
    @settings(max_examples=15, deadline=None)
    def test_engine_and_session_agree_on_content(self, params):
        n, extra, fraction, seed = params
        scenario = make_block_scenario(n=n, extra=extra, fraction=fraction,
                                       seed=seed)
        sender = GrapheneSenderEngine(scenario.block)
        receiver = GrapheneReceiverEngine(scenario.receiver_mempool)
        action = receiver.start()
        action = receiver.on_p1_payload(sender.on_getdata(action.message).message)
        if action.kind is ActionKind.SEND:
            action = receiver.on_p2_response(
                sender.on_p2_request(action.message).message)
        if action.kind is ActionKind.SEND:
            action = receiver.on_tx_list(
                sender.on_shortid_request(action.message).message)
        if action.kind is ActionKind.DONE:
            assert [t.txid for t in action.txs] == scenario.block.txids
            assert action.block.header.merkle_root == \
                scenario.block.header.merkle_root

    @given(st.integers(min_value=10, max_value=200),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_sync_reaches_union_when_successful(self, n, common, seed):
        scenario = make_sync_scenario(n=n, fraction_common=common, seed=seed)
        union = ({t.txid for t in scenario.sender_mempool}
                 | {t.txid for t in scenario.receiver_mempool})
        result = synchronize_mempools(scenario.sender_mempool,
                                      scenario.receiver_mempool)
        if result.success and result.synchronized:
            assert {t.txid for t in scenario.sender_mempool} == union
            assert {t.txid for t in scenario.receiver_mempool} == union


class TestCostInvariants:
    @given(SCENARIO)
    @settings(max_examples=15, deadline=None)
    def test_costs_are_consistent(self, params):
        n, extra, fraction, seed = params
        scenario = make_block_scenario(n=n, extra=extra, fraction=fraction,
                                       seed=seed)
        outcome = BlockRelaySession().relay(scenario.block,
                                            scenario.receiver_mempool)
        cost = outcome.cost
        assert cost.total() >= 0
        assert cost.total(include_txs=True) >= cost.total()
        # Parts are individually non-negative.
        assert all(v >= 0 for v in cost.as_dict().values())
        if outcome.protocol_used == 1:
            assert cost.bloom_r == cost.iblt_j == cost.bloom_f == 0

    @given(st.integers(min_value=50, max_value=300),
           st.integers(min_value=50, max_value=600),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_graphene_never_bigger_than_shortid_list(self, n, extra, seed):
        # Protocol 1's whole point: beat the 8n-byte short-ID list for
        # synced receivers (modest n can tie; allow small slack).
        scenario = make_block_scenario(n=n, extra=extra, fraction=1.0,
                                       seed=seed)
        outcome = BlockRelaySession().relay(scenario.block,
                                            scenario.receiver_mempool)
        cost = outcome.cost
        assert (cost.bloom_s + cost.iblt_i + cost.bloom_r + cost.iblt_j
                + cost.bloom_f + cost.riblt) <= 8 * n + 200


class TestConfigMonotonicity:
    @given(st.integers(min_value=100, max_value=400),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_wider_cells_never_shrink_iblt_bytes_per_cell(self, n, seed):
        scenario = make_block_scenario(n=n, extra=n, fraction=1.0, seed=seed)
        narrow = BlockRelaySession(GrapheneConfig(cell_bytes=11)).relay(
            scenario.block, scenario.receiver_mempool)
        wide = BlockRelaySession(GrapheneConfig(cell_bytes=18)).relay(
            scenario.block, scenario.receiver_mempool)
        assert narrow.success and wide.success
