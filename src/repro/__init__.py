"""Graphene: efficient interactive set reconciliation for blockchains.

A from-scratch Python reproduction of Ozisik et al., SIGCOMM 2019:
the Graphene block-propagation protocols (1 and 2), the probabilistic
data structures they combine (Bloom filters, IBLTs), the IBLT
parameter-search algorithm, ping-pong decoding, every baseline the
paper compares against, and a benchmark harness regenerating every
figure of the evaluation.

Quickstart::

    from repro import BlockRelaySession, make_block_scenario

    scenario = make_block_scenario(n=2000, extra=2000, fraction=1.0)
    outcome = BlockRelaySession().relay(scenario.block,
                                        scenario.receiver_mempool)
    print(outcome.success, outcome.total_bytes)
"""

from repro.chain import (
    Block,
    BlockHeader,
    Mempool,
    Transaction,
    TransactionGenerator,
    make_block_scenario,
    make_sync_scenario,
)
from repro.core import (
    BETA_DEFAULT,
    BlockRelaySession,
    GrapheneConfig,
    RelayOutcome,
    synchronize_mempools,
)
from repro.errors import (
    DecodeFailure,
    MalformedIBLTError,
    ParameterError,
    ProtocolFailure,
    ReproError,
)
from repro.pds import IBLT, BloomFilter, default_param_table, pingpong_decode

__version__ = "1.0.0"

__all__ = [
    "Block",
    "BlockHeader",
    "Mempool",
    "Transaction",
    "TransactionGenerator",
    "make_block_scenario",
    "make_sync_scenario",
    "BETA_DEFAULT",
    "BlockRelaySession",
    "GrapheneConfig",
    "RelayOutcome",
    "synchronize_mempools",
    "DecodeFailure",
    "MalformedIBLTError",
    "ParameterError",
    "ProtocolFailure",
    "ReproError",
    "IBLT",
    "BloomFilter",
    "default_param_table",
    "pingpong_decode",
    "__version__",
]
