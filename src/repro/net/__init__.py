"""Event-driven p2p network substrate.

The paper motivates Graphene with network-level effects: propagation
delay grows linearly with block size, and slow relay causes forks.
This package provides the simulation substrate to observe those
effects end-to-end: an event-driven simulator with latency/bandwidth
links (:mod:`~repro.net.simulator`), peers that relay blocks with a
pluggable protocol (:mod:`~repro.net.node`),
and topology builders (:mod:`~repro.net.topology`).
"""

from repro.net.messages import NetMessage
from repro.net.simulator import (
    CycleStats,
    EventHandle,
    FaultInjector,
    Link,
    Simulator,
)
from repro.net.host import RecoveryPolicy
from repro.net.transport import LoopbackTransport
from repro.net.node import Node, RelayProtocol
from repro.net.topology import (
    GeoLinkModel,
    connect_clique,
    connect_line,
    connect_random_regular,
    connect_scale_free,
)

__all__ = [
    "NetMessage",
    "CycleStats",
    "EventHandle",
    "FaultInjector",
    "Link",
    "Simulator",
    "RecoveryPolicy",
    "LoopbackTransport",
    "Node",
    "RelayProtocol",
    "GeoLinkModel",
    "connect_clique",
    "connect_line",
    "connect_random_regular",
    "connect_scale_free",
]

from repro.net.mining import MinerNode, MiningReport, run_mining_experiment  # noqa: E402
from repro.net.peer import AsyncioTransport, BlockServer, fetch_block  # noqa: E402

__all__ += ["MinerNode", "MiningReport", "run_mining_experiment",
            "AsyncioTransport", "BlockServer", "fetch_block"]
