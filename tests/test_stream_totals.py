"""One fold of the event stream, read by every consumer.

``StreamTotals`` is the only code that sums an event's parts: a recorder
keeps one as events are appended, and ``StreamTotals.of`` hands that
back or folds any other iterable -- a slice, a plain list -- through
the same ``add``.  ``CostBreakdown.from_events``, ``total_wire_bytes``
and the ``repro.obs`` metrics fold all read it, so they cannot disagree
whichever kind of stream they are given.
"""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sizing import CostBreakdown
from repro.core.telemetry import (
    DIRECTIONS,
    OUTCOMES,
    PHASES,
    ROLES,
    AggregateRecorder,
    EventRecorder,
    MessageEvent,
    StreamTotals,
    total_wire_bytes,
)
from repro.errors import ParameterError
from repro.net.node import Node
from repro.net.simulator import Simulator
from repro.obs import Tracer, collect_run_metrics

PARTS = [spec.name for spec in fields(CostBreakdown)]

events = st.builds(
    MessageEvent,
    command=st.sampled_from(["inv", "getdata", "graphene_block",
                             "graphene_p3_symbols", "block_txs"]),
    direction=st.sampled_from(DIRECTIONS),
    role=st.sampled_from(ROLES),
    phase=st.sampled_from(PHASES),
    roundtrip=st.integers(0, 4),
    parts=st.dictionaries(st.sampled_from(PARTS),
                          st.integers(0, 1 << 20), max_size=4),
    outcome=st.sampled_from(OUTCOMES))


def _recorded(kind, stream_events):
    stream = kind()
    for event in stream_events:
        stream.append(event)
    return stream


def _metrics(stream) -> dict:
    """The ``relay_*`` counters ``collect_run_metrics`` folds out of one
    node holding ``stream`` as its only relay."""
    node = Node("n0", Simulator())
    node.relay_telemetry[b"root"] = stream
    counters = collect_run_metrics([node]).snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith(("relay_messages", "relay_bytes",
                                "relay_part_bytes", "relay_outcome"))}


class TestStreamTotals:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(events, max_size=12), st.data())
    def test_of_a_list_or_a_slice_equals_the_running_totals(self, drawn,
                                                            data):
        stream = _recorded(EventRecorder, drawn)
        assert StreamTotals.of(stream) is stream.totals
        assert StreamTotals.of(list(stream)) == stream.totals
        assert StreamTotals.of(iter(drawn)) == stream.totals
        cut = data.draw(st.integers(0, len(drawn)))
        assert StreamTotals.of(stream[cut:]) \
            == _recorded(EventRecorder, drawn[cut:]).totals

    @settings(max_examples=40, deadline=None)
    @given(st.lists(events, max_size=12))
    def test_every_consumer_agrees_on_every_kind_of_stream(self, drawn):
        tracer = Tracer(Simulator())
        streams = [_recorded(EventRecorder, drawn),
                   _recorded(AggregateRecorder, drawn),
                   _recorded(lambda: tracer.stream("n0", "relay", b"k"),
                             drawn),
                   list(drawn)]
        costs = [CostBreakdown.from_events(s).as_dict() for s in streams]
        assert all(cost == costs[0] for cost in costs)
        for include_txs in (False, True):
            totals = [total_wire_bytes(s, include_txs) for s in streams]
            assert all(total == totals[0] for total in totals)
            assert totals[0] == CostBreakdown(**costs[0]).total(include_txs)
        metrics = [_metrics(s) for s in streams]
        assert all(found == metrics[0] for found in metrics)
        assert sum(value for name, value in metrics[0].items()
                   if name.startswith("relay_part_bytes")) \
            == total_wire_bytes(drawn, include_txs=True)

    def test_add_sums_each_of_the_five_views(self):
        totals = StreamTotals()
        totals.add(MessageEvent("graphene_block", "received", "receiver",
                                "p1", 1, {"bloom_s": 40, "iblt_i": 100},
                                "decoded"))
        totals.add(MessageEvent("getdata", "sent", "receiver", "p1", 1,
                                {"getdata": 64}))
        assert totals.part_totals == {"bloom_s": 40, "iblt_i": 100,
                                      "getdata": 64}
        assert totals.direction_counts == {"received": 1, "sent": 1}
        assert totals.phase_bytes == {"p1": 204}
        assert totals.outcome_counts == {"decoded": 1}
        assert totals.outcome_bytes == {"decoded": 140}

    @pytest.mark.parametrize("kind", [EventRecorder, AggregateRecorder,
                                      list])
    def test_unknown_part_is_refused_by_the_cost_fold(self, kind):
        stream = kind()
        stream.append(MessageEvent("getdata", "sent", "receiver", "p1", 1,
                                   {"not_a_costbreakdown_field": 9}))
        with pytest.raises(ParameterError, match="not_a_costbreakdown"):
            CostBreakdown.from_events(stream)
