"""The benchmark's layer replayer survives a decoder that trips.

``benchmarks/e2e/replay.py`` calls the bare ``pds`` / ``core``
functions again after a traced relay.  Those raise
:class:`~repro.errors.MalformedIBLTError` where the engines catch it
and give up (a key peeled twice, paper 6.1), and under the replay's own
hash family that happens to about one rateless decode in a few thousand
-- on relays the live engines completed.  A replay that trips must
count one ``skipped``, close every span it opened and leave the worker
able to replay the next relay.

The trip is *forced* here (the decoder the replayer calls raises once)
rather than found by scenario seed, so the property holds under any
hash family.
"""

from __future__ import annotations

from pathlib import Path

from repro.chain.scenarios import make_block_scenario
from repro.core.engine import (
    ActionKind,
    GrapheneReceiverEngine,
    GrapheneSenderEngine,
)
from repro.core.params import GrapheneConfig
from repro.errors import MalformedIBLTError
from repro.pds.riblt import RIBLTDecoder

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def test_replay_survives_a_key_peeled_twice(monkeypatch):
    monkeypatch.syspath_prepend(str(E2E))
    from loopback import pump_traced
    from replay import Replayer
    from tracing import END, START, Trace

    config = GrapheneConfig(protocol=3)
    scenario = make_block_scenario(200, 200, 0.95, seed=17)
    trace = Trace()
    replayer = Replayer(trace, config)
    final, steps, _ = pump_traced(
        trace, 0, GrapheneSenderEngine(scenario.block, config),
        GrapheneReceiverEngine(scenario.receiver_mempool, config))
    assert final.kind is ActionKind.DONE

    add_symbols = RIBLTDecoder.add_symbols
    trips = []

    def trip_once(self, *columns):
        if not trips:
            trips.append(self)
            raise MalformedIBLTError("key 0x2a decoded twice (forced)")
        return add_symbols(self, *columns)

    monkeypatch.setattr(RIBLTDecoder, "add_symbols", trip_once)
    replayer.relay(0, steps, scenario.block, scenario.receiver_mempool, {})
    assert trips and replayer.skipped == 1
    assert all(span[END] >= span[START] for span in trace.spans)  # closed

    # The worker is still standing: the next relay replays in full.
    before = len(trace.spans)
    replayer.relay(1, steps, scenario.block, scenario.receiver_mempool, {})
    assert replayer.skipped == 1
    assert {"core.p3_ingest", "pds.riblt_peel"} \
        <= {span[0] for span in trace.spans[before:]}
