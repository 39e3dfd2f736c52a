"""Dependency-free counter/gauge/histogram registry.

The relay stack already emits one :class:`~repro.core.telemetry.MessageEvent`
per message; this module folds those streams (plus the nodes' own
counters) into named metric series that can be sliced per node, per
phase, per outcome, and snapshotted to JSON.  The registry is a pure
observer: collection reads finished state, it never schedules simulator
events or consumes randomness, so attaching it cannot perturb a run.

Metric identity is ``name`` plus a frozen label set, Prometheus-style::

    registry.counter("relay_bytes", node="n03", phase="p1").inc(512)
    registry.sum("relay_bytes", node="n03")     # across phases
    registry.sum("relay_bytes")                 # simulator-wide

:func:`collect_run_metrics` is the one folding rule shared by the CLI
``report`` command, the smoke-test run report, and the tests -- so the
table a human reads and the invariant CI checks are computed from the
same series.  By construction its byte counters agree with
:meth:`CostBreakdown.from_events
<repro.core.sizing.CostBreakdown.from_events>` over the same streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.telemetry import StreamTotals
from repro.errors import ParameterError

#: Default latency buckets (seconds) for exchange-duration histograms --
#: spans a LAN roundtrip up to the recovery ladder's worst case.
LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 120.0)


def _labels_key(labels: dict) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series_name(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing total."""

    value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ParameterError(f"counters only go up, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (set, not accumulated)."""

    value: float = 0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Fixed-bucket histogram with cumulative-style snapshots.

    ``bounds`` are upper bucket edges; observations above the last
    bound land in the implicit ``+Inf`` bucket.
    """

    bounds: Tuple[float, ...] = LATENCY_BUCKETS
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    max_seen: float = 0.0

    def __post_init__(self):
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ParameterError("histogram bounds must be sorted and "
                                 f"non-empty, got {self.bounds}")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1
        self.max_seen = max(self.max_seen, value)

    def as_dict(self) -> dict:
        buckets = {str(bound): self.counts[i]
                   for i, bound in enumerate(self.bounds)}
        buckets["+Inf"] = self.counts[-1]
        return {"count": self.count, "sum": self.total,
                "max": self.max_seen, "buckets": buckets}


class MetricsRegistry:
    """Named, labelled metric series with deterministic snapshots."""

    def __init__(self):
        self._counters: Dict[tuple, Counter] = {}
        self._gauges: Dict[tuple, Gauge] = {}
        self._histograms: Dict[tuple, Histogram] = {}

    # -- get-or-create ---------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _labels_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _labels_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str,
                  buckets: Optional[Iterable[float]] = None,
                  **labels) -> Histogram:
        key = (name, _labels_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(
                bounds=tuple(buckets) if buckets else LATENCY_BUCKETS)
        return metric

    # -- slicing ---------------------------------------------------------

    def series(self, name: str, **labels):
        """Yield ``(labels_dict, metric)`` for every matching series.

        A series matches when its labels are a superset of ``labels``
        (so ``series("relay_bytes", node="n01")`` spans all phases).
        """
        want = set(_labels_key(labels))
        for store in (self._counters, self._gauges, self._histograms):
            for (metric_name, metric_labels), metric in store.items():
                if metric_name == name and want <= set(metric_labels):
                    yield dict(metric_labels), metric

    def sum(self, name: str, **labels) -> float:
        """Total value across all counter/gauge series matching ``labels``."""
        return sum(metric.value for _, metric in self.series(name, **labels)
                   if not isinstance(metric, Histogram))

    def label_values(self, name: str, label: str) -> List[str]:
        """Sorted distinct values ``label`` takes across ``name`` series."""
        values = {found[label] for found, _ in self.series(name)
                  if label in found}
        return sorted(values)

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain, deterministic (sorted-key) dict of every series."""
        return {
            "counters": {
                _series_name(name, labels): metric.value
                for (name, labels), metric in sorted(self._counters.items())
            },
            "gauges": {
                _series_name(name, labels): metric.value
                for (name, labels), metric in sorted(self._gauges.items())
            },
            "histograms": {
                _series_name(name, labels): metric.as_dict()
                for (name, labels), metric in sorted(self._histograms.items())
            },
        }


def _fold_streams(registry: MetricsRegistry, prefix: str, node_id: str,
                  streams) -> None:
    """Emit the one :class:`StreamTotals` of a node's ``streams`` into
    its counters."""
    totals = StreamTotals.of(chain.from_iterable(streams))
    for series, label, sums in (
            ("messages", "direction", totals.direction_counts),
            ("bytes", "phase", totals.phase_bytes),
            ("part_bytes", "part", totals.part_totals),
            ("outcomes", "outcome", totals.outcome_counts),
            ("outcome_bytes", "outcome", totals.outcome_bytes)):
        for value, amount in sums.items():
            registry.counter(f"{prefix}_{series}", node=node_id,
                             **{label: value}).inc(amount)


def collect_run_metrics(nodes, tracer=None) -> MetricsRegistry:
    """Fold a finished simulation into a metrics registry.

    ``nodes`` are :class:`~repro.net.node.Node` objects after
    ``simulator.run()``; ``tracer`` (optional) contributes exchange
    latency histograms from its assembled spans.  Byte counters fold
    the same per-relay telemetry streams ``CostBreakdown.from_events``
    consumes, so totals agree by construction (an invariant
    :func:`repro.obs.report.check_metrics_match_costs` asserts).
    """
    registry = MetricsRegistry()
    for node in nodes:
        node_id = node.node_id
        _fold_streams(registry, "relay", node_id,
                      node.relay_telemetry.values())
        _fold_streams(registry, "sync", node_id,
                      (state.events for state in node.sync_sessions.values()))
        registry.counter("relay_timeouts", node=node_id).inc(
            node.relay_timeouts)
        registry.counter("relay_retries", node=node_id).inc(
            node.relay_retries)
        registry.counter("relay_failures", node=node_id).inc(
            node.relay_failures)
        registry.gauge("mempool_size", node=node_id).set(len(node.mempool))
        registry.gauge("blocks_held", node=node_id).set(len(node.blocks))
        registry.gauge("peer_bytes_sent", node=node_id).set(
            node.total_bytes_sent())
    decoded = registry.sum("relay_outcomes", outcome="decoded")
    resolved = decoded + registry.sum("relay_outcomes", outcome="fallback") \
        + registry.sum("relay_outcomes", outcome="failed")
    registry.gauge("decode_success_rate").set(
        decoded / resolved if resolved else 1.0)
    if tracer is not None:
        for span in tracer.spans():
            if span.status == "open":
                continue
            registry.histogram("exchange_seconds", kind=span.kind).observe(
                span.end - span.start)
    return registry
