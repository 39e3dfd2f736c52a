"""Baseline block-relay protocols Graphene is evaluated against.

* :mod:`~repro.baselines.full_block` -- ship every transaction (the
  Ethereum default in Fig. 13).
* :mod:`~repro.baselines.compact_blocks` -- BIP-152 Compact Blocks
  (deployed in Bitcoin Core/ABC/Unlimited); short-ID list plus an
  index-based repair roundtrip.
* :mod:`~repro.baselines.xthin` -- Xtreme Thinblocks (Bitcoin
  Unlimited): receiver mempool Bloom filter + 8-byte ID list +
  proactive push of missing transactions.
* :mod:`~repro.baselines.bloom_only` -- the strawman of section 3: a
  single Bloom filter at f = 1/(144 (m-n)), the comparison point of
  Theorem 4.
* :mod:`~repro.baselines.difference_digest` -- Eppstein et al.'s
  IBLT-only Difference Digest with a Flajolet-Martin strata estimator
  (the alternative to Protocol 2 discussed in section 5.3.2).
"""

from repro.baselines.full_block import FullBlockRelay, full_block_bytes
from repro.baselines.compact_blocks import (
    CompactBlocksRelay,
    compact_blocks_bytes,
)
from repro.baselines.xthin import XThinRelay, xthin_bytes, xthin_star_bytes
from repro.baselines.bloom_only import bloom_only_bytes
from repro.baselines.difference_digest import (
    DifferenceDigestRelay,
    StrataEstimator,
)

__all__ = [
    "FullBlockRelay",
    "full_block_bytes",
    "CompactBlocksRelay",
    "compact_blocks_bytes",
    "XThinRelay",
    "xthin_bytes",
    "xthin_star_bytes",
    "bloom_only_bytes",
    "DifferenceDigestRelay",
    "StrataEstimator",
]
