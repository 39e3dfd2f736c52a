"""The simulated-network presets draw what they drew when they were pinned.

``measure_propagation_delay`` (``repro netsim`` and the fork-rate
extension) and ``run_propagation_scenario`` (``repro net`` and
BENCH_NET) are each a fixed draw: node ids (which seed every lossy
link), topology, mempool fill, miner pick and run horizon.  These pins
were taken before the presets shared one runner and must hold after
any change to how a run is built.  ``run_block_relay_scenario`` is
pinned the same way by ``tests/test_node_layer.py::GOLDEN``.

The one-block pins read the network through the simulator the preset
built (``Simulator.nodes``), not through its result object: when the
last node got the block, every node's bytes sent, and events.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.forks import measure_propagation_delay
from repro.chain.ledger import block_hash
from repro.net import topology
from repro.net.node import RelayProtocol
from repro.net.simulator import Simulator
from repro.obs import run_propagation_scenario

#: ``repro netsim``'s defaults.
NETSIM = dict(nodes=16, degree=4, latency=0.05, bandwidth=1_000_000.0,
              extra_mempool=0, seed=0)

#: name -> (protocol, block txns, options, (events, bytes, last arrival))
ONE_BLOCK = {
    "netsim-defaults": (RelayProtocol.GRAPHENE, 500, NETSIM,
                        (79, 5239, 0.4506329999999999)),
    "function-defaults": (RelayProtocol.GRAPHENE, 200, {},
                          (59, 10221, 0.45941999999999994)),
    "full-block": (RelayProtocol.FULL_BLOCK, 300,
                   dict(nodes=6, degree=2, seed=2),
                   (17, 428927, 1.4791320000000001)),
}

#: ``repro netsim``'s defaults with every link dropping 5 % of messages:
#: the loss streams are seeded from the node ids.
LOSSY = (80, 5539, 2.450633)

#: options -> (events, wire bytes, (miner, off the reference ledger's
#: main chain) per block,
#: (deliveries, first delay, last delay, sha256 of the sorted delays))
MULTI_BLOCK = [
    (dict(nodes=30, degree=4, blocks=3, block_txns=20, loss=0.05, seed=7),
     (444, 37175, [("n0014", False), ("n0026", False), ("n0007", False)],
      (87, 0.08682097342303141, 4.614450186928672, "de9f200f9b692dcf"))),
    (dict(nodes=24, degree=4, blocks=4, block_txns=12, interval=1.0,
          topology="random_regular", seed=11),
     (480, 31244, [("n0021", False), ("n0004", False), ("n0021", False),
                   ("n0020", False)],
      (92, 0.15020699999999954, 0.6008279999999999, "c027f0e9090e4a05"))),
]


def _network_of(build, monkeypatch) -> Simulator:
    """Call ``build`` and return the one simulator it made."""
    made = []
    real_init = Simulator.__init__

    def init(self):
        real_init(self)
        made.append(self)

    monkeypatch.setattr(Simulator, "__init__", init)
    build()
    (simulator,) = made
    return simulator


def _fingerprint(simulator: Simulator) -> tuple:
    nodes = simulator.nodes
    return (simulator.events_processed,
            sum(node.total_bytes_sent() for node in nodes),
            max(when for node in nodes
                for when in node.block_arrival.values()))


def _digest(delays) -> str:
    return hashlib.sha256(repr(list(delays)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(ONE_BLOCK))
def test_one_block_preset_draws_what_it_drew(name, monkeypatch):
    protocol, block_txns, options, pinned = ONE_BLOCK[name]
    simulator = _network_of(lambda: measure_propagation_delay(
        protocol, block_txns, **options), monkeypatch)
    assert _fingerprint(simulator) == pinned


def test_one_block_preset_draws_its_loss_from_its_node_ids(monkeypatch):
    real_link = topology._link
    monkeypatch.setattr(
        topology, "_link", lambda latency, bandwidth, loss_rate=0.0:
        real_link(latency, bandwidth, 0.05))
    simulator = _network_of(lambda: measure_propagation_delay(
        RelayProtocol.GRAPHENE, 500, **NETSIM), monkeypatch)
    assert _fingerprint(simulator) == LOSSY


@pytest.mark.parametrize("options,pinned", MULTI_BLOCK,
                         ids=["scale-free-lossy", "random-regular"])
def test_multi_block_preset_draws_what_it_drew(options, pinned):
    run = run_propagation_scenario(**options)
    events, wire_bytes, blocks, (count, first, last, digest) = pinned
    assert run.simulator.events_processed == events
    assert sum(node.total_bytes_sent() for node in run.nodes) == wire_bytes
    main = run.ledger.main_chain_hashes()
    miners = {node.node_id: node for node in run.nodes}
    assert [(record.miner,
             block_hash(miners[record.miner].blocks[record.root]) not in main)
            for record in run.records] == blocks
    delays = run.delays
    assert (len(delays), delays[0], delays[-1], _digest(delays)) \
        == (count, first, last, digest)
