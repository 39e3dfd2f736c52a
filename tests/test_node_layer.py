"""The node layer around the engines: same run, paid once.

``run_block_relay_scenario`` is what ``repro report``, the smoke test
and the ``sim_lossy_20`` benchmark workload run.  Its clock is simulated
and every draw is seeded, so a change to how nodes are populated, how a
block is connected or how a link builds its loss stream must leave
every count of the run where it was (the golden numbers below were
taken at the commit before the bulk mempool operations landed) -- and
must not do per node what can be done once.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.chain.mempool import Mempool
from repro.core.sizing import CostBreakdown
from repro.net import simulator as simulator_module
from repro.obs.scenario import run_block_relay_scenario

_HOP = 0.150785
_TWO, _THREE = 2 * _HOP, 0.45235499999999995

#: seed -> (events, retries, timeouts, bytes, sorted block arrivals)
GOLDEN = {
    2024: (102, 2, 2, 15043,
           [0.0] + [_HOP] * 4 + [_TWO] * 7 + [_THREE] * 6
           + [2.3015699999999994, 2.4523549999999994]),
    20190819: (101, 2, 2, 15043,
               [0.0] + [_HOP] * 4 + [_TWO] * 7 + [_THREE] * 5
               + [0.60314, 2.3015699999999994, 2.4523549999999994]),
    20190820: (96, 0, 0, 14915,
               [0.0] + [_HOP] * 4 + [_TWO] * 9 + [_THREE] * 6),
}


def _run(seed: int, trace: bool = False):
    return run_block_relay_scenario(nodes=20, degree=4, block_size=200,
                                    extra=200, loss=0.05, seed=seed,
                                    trace=trace)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_the_run_is_exactly_the_run_it_was(seed, trace):
    run = _run(seed, trace)
    events, retries, timeouts, total_bytes, arrivals = GOLDEN[seed]
    assert run.covered == 20
    assert run.simulator.events_processed == events
    assert sum(node.relay_retries for node in run.nodes) == retries
    assert sum(node.relay_timeouts for node in run.nodes) == timeouts
    assert sum(CostBreakdown.from_events(stream).total()
               for stream in run.relay_streams().values()) == total_bytes
    assert sorted(node.block_arrival[run.root]
                  for node in run.nodes) == arrivals
    # Connecting the block evicted it from every pool, shared or not.
    assert {len(node.mempool) for node in run.nodes[1:]} == {200}
    assert len({id(node.mempool) for node in run.nodes}) == 20


class TestPaidOnce:
    """Counting wrappers around the three per-node costs (in the style
    of ``test_candidates.py::TestNoPerItemPass``)."""

    @staticmethod
    def _calls(monkeypatch) -> dict:
        calls = {"mempool_add": 0, "rng_seedings": 0, "pool_packs": 0}
        real_add, real_columns = Mempool.add, Mempool.columns

        def add(self, tx):
            calls["mempool_add"] += 1
            return real_add(self, tx)

        class CountedRandom(random.Random):
            def __init__(self, *args):
                calls["rng_seedings"] += 1
                super().__init__(*args)

        def columns(self):
            # No cached snapshot over the full 400-row receiver pool:
            # this call packs one for an opening sweep.
            if self._columns is None and len(self) == 400:
                calls["pool_packs"] += 1
            return real_columns(self)

        with monkeypatch.context() as patch:
            patch.setattr(Mempool, "add", add)
            patch.setattr(Mempool, "columns", columns)
            # Only `Link` reaches `random` through this module's name.
            patch.setattr(simulator_module, "random",
                          SimpleNamespace(Random=CountedRandom))
            run = _run(2024)
        assert run.covered == 20
        lossy = sum(1 for node in run.nodes
                    for link in node.peers.values() if link.loss_rate)
        assert lossy == 40
        return calls

    def test_populate_wire_and_sweep_once(self, monkeypatch):
        assert self._calls(monkeypatch) == {
            "mempool_add": 0, "rng_seedings": 40, "pool_packs": 1}
