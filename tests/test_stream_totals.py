"""One fold of the event stream, read by every consumer.

``StreamTotals`` is the only code that sums an event's parts: every
stream is a plain list of shared events (a ``TracedStream`` when a
tracer watches it), and ``StreamTotals.of`` folds whatever it is given
-- a list, a traced stream, a slice, an iterator -- through the same
``add``.  ``CostBreakdown.from_events``, ``total_wire_bytes`` and the
``repro.obs`` metrics fold all read it, so they cannot disagree
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


#: The clock the traced streams read; a tracer holds it weakly.
_SIMULATOR = Simulator()


def _traced(stream_events):
    stream = Tracer(_SIMULATOR).stream("n0", "relay", b"k")
    for event in stream_events:
        stream.append(event)
    return stream


def _sliced(stream_events):
    """``stream_events`` as the tail slice of a longer stream."""
    head = [MessageEvent("inv", "received", "receiver", "inv", 0,
                         {"inv": 37})]
    return (head + list(stream_events))[len(head):]


#: Every kind of stream a consumer may be handed, built from the events
#: it holds; an iterator is single-use, so each call builds a fresh one.
STREAM_KINDS = {
    "list": list,
    "TracedStream": _traced,
    "slice": _sliced,
    "iterator": iter,
}


def _running(stream_events) -> StreamTotals:
    """The totals kept up event by event, through ``add``."""
    totals = StreamTotals()
    for event in stream_events:
        totals.add(event)
    return totals


def _metrics(stream) -> dict:
    """The ``relay_*`` counters ``collect_run_metrics`` folds out of one
    node holding ``stream`` as its only relay."""
    simulator = Simulator()
    node = Node("n0", simulator)
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
        for make in STREAM_KINDS.values():
            assert StreamTotals.of(make(drawn)) == _running(drawn)
        stream = _traced(drawn)
        cut = data.draw(st.integers(0, len(drawn)))
        assert StreamTotals.of(stream[cut:]) == _running(drawn[cut:])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(events, max_size=12))
    def test_every_consumer_agrees_on_every_kind_of_stream(self, drawn):
        makers = STREAM_KINDS.values()
        costs = [CostBreakdown.from_events(make(drawn)).as_dict()
                 for make in makers]
        assert all(cost == costs[0] for cost in costs)
        for include_txs in (False, True):
            totals = [total_wire_bytes(make(drawn), include_txs)
                      for make in makers]
            assert all(total == totals[0] for total in totals)
            assert totals[0] == CostBreakdown(**costs[0]).total(include_txs)
        metrics = [_metrics(make(drawn)) for make in makers]
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

    @pytest.mark.parametrize("kind", list(STREAM_KINDS))
    def test_unknown_part_is_refused_by_the_cost_fold(self, kind):
        stream = STREAM_KINDS[kind]([MessageEvent(
            "getdata", "sent", "receiver", "p1", 1,
            {"not_a_costbreakdown_field": 9})])
        with pytest.raises(ParameterError, match="not_a_costbreakdown"):
            CostBreakdown.from_events(stream)
