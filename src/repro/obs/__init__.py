"""Observability over the relay event stream: traces, metrics, reports.

The relay engines already emit a structured
:class:`~repro.core.telemetry.MessageEvent` per message; this package
layers the three consumers a production deployment needs on top of
that stream without touching protocol logic:

* :mod:`repro.obs.trace` -- a :class:`Tracer` that timestamps events
  with the simulator clock and assembles per-exchange spans (child
  spans per phase), exportable as JSONL or a human-readable timeline;
* :mod:`repro.obs.metrics` -- a dependency-free counter / gauge /
  histogram :class:`MetricsRegistry` aggregated per node and
  simulator-wide, plus :func:`collect_run_metrics`, the canonical fold
  from a finished run into metric series;
* :mod:`repro.obs.report` -- :class:`RunReport` and the accounting
  invariants CI asserts (loopback/simulator byte conservation, honest
  retry charging, metrics == ``CostBreakdown.from_events``).

Attaching observability never perturbs a run: tracing is an observer
on telemetry-list appends and metrics are collected after the fact, so
a traced simulation is byte- and clock-identical to an untraced one.

See ``docs/OBSERVABILITY.md`` for a walkthrough.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_run_metrics,
)
from repro.obs.report import (
    Invariant,
    RunReport,
    check_cost_parity,
    check_metrics_match_costs,
    check_stream_invariants,
    render_byte_table,
    render_helper_line,
    render_memo_table,
    render_outcome_table,
)
from repro.obs.scenario import (
    BlockRecord,
    NetworkRun,
    measure_propagation_delay,
    run_block_relay_scenario,
    run_propagation_scenario,
)
from repro.obs.trace import (
    PhaseSpan,
    Span,
    TraceMark,
    TraceRecord,
    TracedStream,
    Tracer,
    WallClock,
    assemble_spans,
    format_key,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collect_run_metrics",
    "Invariant",
    "RunReport",
    "check_cost_parity",
    "check_metrics_match_costs",
    "check_stream_invariants",
    "render_byte_table",
    "render_helper_line",
    "render_memo_table",
    "render_outcome_table",
    "BlockRecord",
    "NetworkRun",
    "measure_propagation_delay",
    "run_block_relay_scenario",
    "run_propagation_scenario",
    "PhaseSpan",
    "Span",
    "TraceMark",
    "TraceRecord",
    "TracedStream",
    "Tracer",
    "WallClock",
    "assemble_spans",
    "format_key",
]
