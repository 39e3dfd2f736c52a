"""In-memory spans for the traced pass, recorded from the harness only.

A span is ``{id, name, start_ns, end_ns, parent, relay_id}``.  Spans of
one relay share ``relay_id``; ``parent`` is the id of the span that
caused this one (``None`` for a relay's root).  Nothing is written
while a workload runs: :meth:`Trace.write` dumps the list as JSON lines
when the workload has ended.

Two kinds of child span exist, and the trace does not tell them apart
by timestamps alone:

* *live* spans (``relay``, ``engine.*_step``, ``peer.frame_encode``)
  enclose a call made while the relay was running, so they nest inside
  their parent's interval;
* *replay* spans (``pds.*``, ``codec.*``, ``chain.*``, ``core.*``,
  ``peer.frame_decode``, ``telemetry.fold``) time the same layer call
  made again by the harness after the relay finished (see `replay.py`),
  so their interval lies *after* the parent's.  ``parent`` says which
  live call they stand for.

Self time is therefore computed on durations, not intervals: a span's
self time is its duration minus the summed durations of its direct
children.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns

NAME, START, END, PARENT, RELAY = range(5)


class Trace:
    """An append-only list of spans; a span's id is its index."""

    def __init__(self):
        self.spans: list = []

    def open(self, name: str, parent, relay_id: int) -> int:
        self.spans.append([name, perf_counter_ns(), 0, parent, relay_id])
        return len(self.spans) - 1

    def close(self, span_id: int) -> None:
        self.spans[span_id][END] = perf_counter_ns()

    @contextmanager
    def span(self, name: str, parent, relay_id: int):
        span_id = self.open(name, parent, relay_id)
        try:
            yield span_id
        finally:
            self.close(span_id)

    def totals_ms(self) -> dict:
        """Summed duration per span name, in milliseconds."""
        totals: dict = {}
        for span in self.spans:
            totals[span[NAME]] = totals.get(span[NAME], 0) \
                + span[END] - span[START]
        return {name: ns / 1e6 for name, ns in totals.items()}

    def self_ms(self) -> dict:
        """Summed self time per span name, in milliseconds.

        Children are subtracted from the per-name sums and the floor at
        zero applies to the sum: flooring span by span would turn the
        timing noise of thousands of near-zero self times into a
        positive bias.
        """
        below: dict = {}
        for span in self.spans:
            if span[PARENT] is not None:
                parent = self.spans[span[PARENT]][NAME]
                below[parent] = below.get(parent, 0) + span[END] - span[START]
        return {name: max(0.0, total - below.get(name, 0) / 1e6)
                for name, total in self.totals_ms().items()}

    def covered_share(self, root: str) -> float:
        """Self time of every span below the ``root`` spans, over root time.

        What is left of 1.0 is the roots' own residual (the pump, the
        socket layer, the simulator); above 1.0, replayed children ran
        longer than their live parents had room for.
        """
        below_roots = {span[NAME] for span in self.spans
                       if span[PARENT] is not None}
        own = self.self_ms()
        inside = sum(own[name] for name in below_roots)
        roots = self.totals_ms().get(root, 0.0)
        return inside / roots if roots else 0.0

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[NAME] == name)

    def duration_ns(self, span_id: int) -> int:
        return self.spans[span_id][END] - self.spans[span_id][START]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": span_id, "name": span[NAME],
                    "start_ns": span[START], "end_ns": span[END],
                    "parent": span[PARENT], "relay_id": span[RELAY]}))
                handle.write("\n")


def engine_layers(trace: Trace, tally, root: str) -> tuple:
    """The per-layer metrics every traced workload has.

    Returns ``(layers, total, scale)``: the metrics, the trace's summed
    milliseconds per span name, and the factor that turns such a sum
    into speed-normalised milliseconds per completed relay.
    """
    relays = max(1, tally.completed)
    scale = tally.speed_factor / relays
    total = trace.totals_ms()
    sender = total.get("engine.sender_step", 0.0)
    receiver = total.get("engine.receiver_step", 0.0)
    root_ms = total.get(root, 0.0)
    return {
        "engine.sender_step_ms": sender * scale,
        "engine.receiver_step_ms": receiver * scale,
        "engine.steps_per_relay":
            (trace.count("engine.sender_step")
             + trace.count("engine.receiver_step")) / relays,
        "engine.fallback_share": tally.fallback_share,
        "engine.gave_up_share": tally.gave_up_share,
        "engine.outside_ms": (root_ms - sender - receiver) * scale,
        "trace.relay_ms": root_ms * scale,
        "trace.coverage_share": trace.covered_share(root),
    }, total, scale


class Shims:
    """Timing shims for workloads where the program owns the pump.

    On the socket and simulator workloads the harness cannot wrap each
    engine call itself, so a traced operation -- and only a traced
    operation -- runs with timing wrappers swapped in for
    ``Graphene{Sender,Receiver}Engine`` ``handle``/``start`` and, on
    request, for ``encode_frame`` where the peer stack bound it.
    ``src/`` is never edited, and the originals are back in place the
    moment the operation ends, so the harness's own reference relays
    and every untraced pass run the program as shipped.
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        #: Every frame the current operation encoded (decode replay).
        self.frames: list = []
        self._root = None
        self._relay_id = -1
        self._restore: list = []

    @contextmanager
    def operation(self, root_name: str, relay_id: int,
                  framing: bool = False):
        """Run one traced operation under a ``root_name`` root span."""
        self._install_engine()
        if framing:
            self._install_framing()
        self.frames = []
        self._relay_id = relay_id
        self._root = self.trace.open(root_name, None, relay_id)
        try:
            yield self._root
        finally:
            self.trace.close(self._root)
            self._root = None
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed_method(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        shims = self

        def timed(self, *args):
            span_id = shims.trace.open(name, shims._root, shims._relay_id)
            try:
                return original(self, *args)
            finally:
                shims.trace.close(span_id)

        self._swap(owner, attr, timed)

    def _install_engine(self) -> None:
        from repro.core.engine import (GrapheneReceiverEngine,
                                       GrapheneSenderEngine)
        self._timed_method(GrapheneSenderEngine, "handle",
                           "engine.sender_step")
        self._timed_method(GrapheneReceiverEngine, "handle",
                           "engine.receiver_step")
        self._timed_method(GrapheneReceiverEngine, "start",
                           "engine.receiver_step")

    def _install_framing(self) -> None:
        import repro.net.peer.peer as peer_module
        import repro.net.peer.transport as transport_module
        from repro.net.peer.framing import encode_frame

        def timed_encode_frame(command, payload):
            span_id = self.trace.open("peer.frame_encode", self._root,
                                      self._relay_id)
            try:
                frame = encode_frame(command, payload)
            finally:
                self.trace.close(span_id)
            self.frames.append(frame)
            return frame

        # Both modules imported the function by name, so each holds its
        # own reference.
        for module in (peer_module, transport_module):
            self._swap(module, "encode_frame", timed_encode_frame)
