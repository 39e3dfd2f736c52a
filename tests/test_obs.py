"""Tests for the observability subsystem (repro.obs).

Covers the three tentpole claims:

* spans assemble correctly from a recorded, timestamped event stream;
* the metrics fold agrees with ``CostBreakdown.from_events`` over the
  same streams, and the run-report invariants trip on injected
  accounting bugs;
* tracing is a pure observer -- a traced run is byte- and
  clock-identical to an untraced one, lossy or not.
"""

from __future__ import annotations

import json

import pytest

from repro.core.sizing import CostBreakdown
from repro.core.telemetry import MessageEvent
from repro.errors import ParameterError
from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    RunReport,
    TraceMark,
    TraceRecord,
    assemble_spans,
    check_cost_parity,
    check_metrics_match_costs,
    check_stream_invariants,
    collect_run_metrics,
    render_byte_table,
    render_outcome_table,
    run_block_relay_scenario,
)


def _event(command="getdata", direction="sent", role="receiver",
           phase="p1", roundtrip=1, parts=None, outcome=""):
    return MessageEvent(command=command, direction=direction, role=role,
                        phase=phase, roundtrip=roundtrip,
                        parts=parts or {"getdata": 64}, outcome=outcome)


def _record(t, seq, event, node="n01", kind="relay", key="abc"):
    return TraceRecord(t=t, seq=seq, node=node, kind=kind, key=key,
                       event=event)


# ---------------------------------------------------------------------------
# Span assembly from a recorded stream
# ---------------------------------------------------------------------------

class TestSpanAssembly:
    def test_one_exchange_groups_into_one_span(self):
        records = [
            _record(1.0, 0, _event("inv", "received", phase="inv",
                                   roundtrip=0, parts={"inv": 61})),
            _record(1.1, 1, _event("getdata", "sent", phase="p1")),
            _record(1.6, 2, _event("graphene_block", "received", phase="p1",
                                   parts={"bloom_s": 500, "iblt_i": 160},
                                   outcome="decoded")),
        ]
        (span,) = assemble_spans(records)
        assert (span.node, span.kind, span.key) == ("n01", "relay", "abc")
        assert span.start == 1.0 and span.end == 1.6
        assert span.messages == 3
        assert span.bytes == 61 + 64 + 660
        assert [p.phase for p in span.phases] == ["inv", "p1"]
        assert span.phases[1].bytes == 724
        assert span.status == "done"          # from the decoded outcome

    def test_distinct_exchanges_make_distinct_spans(self):
        records = [
            _record(1.0, 0, _event(), key="aaa"),
            _record(1.0, 1, _event(), key="bbb"),
            _record(2.0, 2, _event(), node="n02", key="aaa"),
        ]
        spans = assemble_spans(records)
        assert len(spans) == 3
        assert {(s.node, s.key) for s in spans} == {
            ("n01", "aaa"), ("n01", "bbb"), ("n02", "aaa")}

    def test_timeouts_and_retries_are_counted(self):
        records = [
            _record(1.0, 0, _event()),
            _record(3.0, 1, _event(parts={}, outcome="timeout")),
            _record(3.0, 2, _event(outcome="retry")),
        ]
        (span,) = assemble_spans(records)
        assert span.timeouts == 1 and span.retries == 1

    def test_marks_set_status_and_extend_end(self):
        records = [_record(1.0, 0, _event())]
        marks = [TraceMark(t=5.0, seq=1, node="n01", kind="relay",
                           key="abc", name="abandon")]
        (span,) = assemble_spans(records, marks)
        assert span.status == "abandoned"
        assert span.end == 5.0

    def test_mark_precedence_done_beats_event_outcomes(self):
        records = [_record(1.0, 0, _event(outcome="failed"))]
        marks = [TraceMark(t=2.0, seq=1, node="n01", kind="relay",
                           key="abc", name="done")]
        (span,) = assemble_spans(records, marks)
        assert span.status == "done"

    def test_sender_only_stream_reports_served(self):
        records = [_record(1.0, 0, _event("graphene_block", role="sender"))]
        (span,) = assemble_spans(records)
        assert span.status == "served"

    def test_unresolved_receiver_stream_stays_open(self):
        records = [_record(1.0, 0, _event())]
        (span,) = assemble_spans(records)
        assert span.status == "open"

    def test_mark_without_records_is_skipped(self):
        # The miner marks "done" for its own block but never has a
        # receiving telemetry stream; no phantom span may appear.
        marks = [TraceMark(t=1.0, seq=0, node="n00", kind="relay",
                           key="abc", name="done")]
        assert assemble_spans([], marks) == []

    def test_spans_sort_by_start_time(self):
        records = [
            _record(5.0, 0, _event(), key="late"),
            _record(1.0, 1, _event(), key="early"),
        ]
        spans = assemble_spans(records)
        assert [s.key for s in spans] == ["early", "late"]


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_identity_is_name_plus_labels(self):
        registry = MetricsRegistry()
        registry.counter("bytes", node="a").inc(10)
        registry.counter("bytes", node="a").inc(5)
        registry.counter("bytes", node="b").inc(1)
        assert registry.sum("bytes", node="a") == 15
        assert registry.sum("bytes") == 16

    def test_counter_rejects_negative(self):
        with pytest.raises(ParameterError):
            Counter().inc(-1)

    def test_series_subset_matching(self):
        registry = MetricsRegistry()
        registry.counter("bytes", node="a", phase="p1").inc(7)
        registry.counter("bytes", node="a", phase="p2").inc(3)
        found = dict()
        for labels, metric in registry.series("bytes", node="a"):
            found[labels["phase"]] = metric.value
        assert found == {"p1": 7, "p2": 3}

    def test_label_values_sorted_distinct(self):
        registry = MetricsRegistry()
        for node in ("b", "a", "b"):
            registry.counter("bytes", node=node).inc()
        assert registry.label_values("bytes", "node") == ["a", "b"]

    def test_histogram_buckets(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 8.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.counts == [1, 1, 1, 1]
        assert hist.max_seen == 8.0
        assert hist.as_dict()["buckets"]["+Inf"] == 1

    def test_snapshot_is_deterministic_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("bytes", node="b").inc(2)
        registry.counter("bytes", node="a").inc(1)
        registry.gauge("rate").set(0.5)
        registry.histogram("lat", kind="relay").observe(0.1)
        snap = registry.snapshot()
        assert snap == json.loads(json.dumps(snap))
        assert list(snap["counters"]) == ["bytes{node=a}", "bytes{node=b}"]


# ---------------------------------------------------------------------------
# A shared small lossy run (exercises recovery deterministically)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lossy_run():
    return run_block_relay_scenario(nodes=8, degree=4, block_size=80,
                                    extra=80, loss=0.05, seed=2024,
                                    until=120.0, sync_rounds=1)


class TestMetricsMatchCosts:
    def test_metrics_equal_costbreakdown_fold(self, lossy_run):
        registry = collect_run_metrics(lossy_run.nodes,
                                       tracer=lossy_run.tracer)
        streams = lossy_run.relay_streams()
        merged = CostBreakdown()
        for events in streams.values():
            merged = merged.merge(CostBreakdown.from_events(events))
        for part, expected in merged.as_dict().items():
            assert registry.sum("relay_part_bytes", part=part) == expected
        assert (registry.sum("relay_bytes")
                == merged.total(include_txs=True))
        inv = check_metrics_match_costs(registry, streams)
        assert inv.ok, inv.detail

    def test_tables_render_every_receiver_and_agree_on_total(self, lossy_run):
        registry = collect_run_metrics(lossy_run.nodes)
        table = render_byte_table(registry)
        for node in lossy_run.nodes[1:]:
            if node.relay_telemetry:
                assert node.node_id in table
        grand = int(registry.sum("relay_bytes"))
        assert str(grand) in table.splitlines()[-1]
        outcomes = render_outcome_table(registry)
        assert "decoded" in outcomes

    def test_exchange_latency_histogram_collected(self, lossy_run):
        registry = collect_run_metrics(lossy_run.nodes,
                                       tracer=lossy_run.tracer)
        series = list(registry.series("exchange_seconds", kind="relay"))
        assert series and series[0][1].count > 0


# ---------------------------------------------------------------------------
# Run-report invariants trip on injected accounting bugs
# ---------------------------------------------------------------------------

class TestReportInvariants:
    def test_clean_streams_pass(self, lossy_run):
        invariants = check_stream_invariants(lossy_run.relay_streams())
        assert all(inv.ok for inv in invariants)

    def test_unknown_part_name_trips_fold_invariant(self):
        bad = [_event(parts={"not_a_costbreakdown_field": 9})]
        invariants = {inv.name: inv
                      for inv in check_stream_invariants({"k": bad})}
        assert not invariants["relay_parts_fold_to_costbreakdown"].ok

    def test_tampered_retry_parts_trip_retry_invariant(self):
        # The retry claims to recharge 999 bytes no earlier send carried:
        # classic double-charging drift.
        stream = [
            _event("getdata", "sent", parts={"getdata": 64}),
            _event("getdata", "sent", parts={"getdata": 999},
                   outcome="retry"),
        ]
        invariants = {inv.name: inv
                      for inv in check_stream_invariants({"k": stream})}
        assert not invariants["relay_retry_bytes_within_total"].ok
        assert "999" in invariants["relay_retry_bytes_within_total"].detail

    def test_honest_retry_passes_retry_invariant(self):
        stream = [
            _event("getdata", "sent", parts={"getdata": 64}),
            _event("getdata", "sent", parts={"getdata": 64},
                   outcome="retry"),
        ]
        invariants = {inv.name: inv
                      for inv in check_stream_invariants({"k": stream})}
        assert invariants["relay_retry_bytes_within_total"].ok

    def test_tampered_counter_trips_metrics_invariant(self, lossy_run):
        registry = collect_run_metrics(lossy_run.nodes)
        registry.counter("relay_part_bytes", node="evil",
                         part="bloom_s").inc(1)
        inv = check_metrics_match_costs(registry,
                                        lossy_run.relay_streams())
        assert not inv.ok and "bloom_s" in inv.detail

    def test_cost_parity_mismatch_names_the_part(self):
        a = CostBreakdown(bloom_s=100)
        b = CostBreakdown(bloom_s=101)
        inv = check_cost_parity("parity", a, b)
        assert not inv.ok and "bloom_s" in inv.detail
        assert check_cost_parity("parity", a, a).ok

    def test_report_roundtrips_through_json(self, tmp_path):
        report = RunReport(name="t", context={"seed": 1})
        report.check("good", True, "fine")
        report.check("bad", False, "drifted")
        assert not report.ok and len(report.failed) == 1
        path = report.write(tmp_path / "sub" / "report.json")
        loaded = json.loads(path.read_text())
        assert loaded["ok"] is False
        assert {i["name"] for i in loaded["invariants"]} == {"good", "bad"}


# ---------------------------------------------------------------------------
# Tracing must not perturb the run (no heisenberg effect)
# ---------------------------------------------------------------------------

def _run_fingerprint(run):
    return {
        "now": run.simulator.now,
        "bytes": [n.total_bytes_sent() for n in run.nodes],
        "arrivals": [dict(n.block_arrival) for n in run.nodes],
        "timeouts": [n.relay_timeouts for n in run.nodes],
        "retries": [n.relay_retries for n in run.nodes],
    }


class TestTracerTransparency:
    @pytest.mark.parametrize("loss", [0.0, 0.05])
    def test_traced_run_identical_to_untraced(self, loss):
        kwargs = dict(nodes=8, degree=4, block_size=60, extra=60,
                      loss=loss, seed=2024, until=120.0, sync_rounds=1)
        traced = run_block_relay_scenario(trace=True, **kwargs)
        plain = run_block_relay_scenario(trace=False, **kwargs)
        assert _run_fingerprint(traced) == _run_fingerprint(plain)
        assert plain.tracer is None
        assert traced.tracer.records  # and it actually observed things

    def test_trace_replays_to_identical_jsonl(self):
        kwargs = dict(nodes=6, degree=2, block_size=40, extra=40,
                      loss=0.0, seed=7, until=60.0)
        first = run_block_relay_scenario(**kwargs)
        second = run_block_relay_scenario(**kwargs)
        assert (first.tracer.to_jsonl() == second.tracer.to_jsonl())


class TestTracerExport:
    def test_jsonl_one_valid_object_per_span(self, lossy_run):
        tracer = lossy_run.tracer
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == len(tracer.spans())
        for line in lines:
            span = json.loads(line)
            assert {"node", "kind", "key", "status", "phases",
                    "events"} <= set(span)

    def test_jsonl_without_events_is_summary_only(self, lossy_run):
        line = lossy_run.tracer.to_jsonl(include_events=False).splitlines()[0]
        assert "events" not in json.loads(line)

    def test_timeline_mentions_spans_and_marks(self, lossy_run):
        text = lossy_run.tracer.timeline()
        assert "relay" in text and "done" in text
        assert "**" in text    # at least one completion mark rendered

    def test_timeline_kind_filter_and_limit(self, lossy_run):
        text = lossy_run.tracer.timeline(events=False, kind="relay",
                                         limit=2)
        assert "more spans" in text
        assert "sync " not in text

    def test_sync_spans_present_after_sync_round(self, lossy_run):
        kinds = {span.kind for span in lossy_run.tracer.spans()}
        assert "sync" in kinds and "serve" in kinds


# ---------------------------------------------------------------------------
# CLI entry points
# ---------------------------------------------------------------------------

class TestCli:
    def test_report_prints_tables_and_passes(self, capsys):
        from repro.cli import main
        assert main(["report", "--nodes", "8", "--block-size", "60",
                     "--seed", "2024"]) == 0
        out = capsys.readouterr().out
        assert "relay bytes by phase" in out
        assert "relay_metrics_match_costbreakdown" in out
        assert "FAIL" not in out

    def test_trace_writes_jsonl(self, capsys, tmp_path):
        from repro.cli import main
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "--nodes", "6", "--block-size", "40",
                     "--loss", "0", "--summary",
                     "--jsonl", str(path)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        lines = path.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
