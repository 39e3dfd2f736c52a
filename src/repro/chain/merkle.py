"""Bitcoin-style Merkle trees.

The Merkle root in a block header is what turns Graphene from "probably
the right transactions" into an exact protocol: after IBLT decoding, the
receiver orders the candidate set and checks it hashes to the header's
root (Protocol 1 step 4 / Protocol 2 step 5).  Any residual Bloom filter
or IBLT mistake is caught here.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as _np

from repro.errors import ParameterError
from repro.utils.memo import BoundedMemo


#: Memoized roots keyed by the packed (ordered) leaves themselves.  A
#: relay validates the same candidate set repeatedly (sender assembly,
#: per-receiver Merkle checks), and looking the leaves up is one pass of
#: the dict's own hash plus one ``memcmp`` where the tree itself is
#: ~2(n-1) double-SHA calls.  The key is exact -- no fingerprint stands
#: in for the leaves -- so it is bounded by the bytes its keys pin.
_ROOT_CACHE_BYTES = 1 << 20
_ROOT_CACHE = BoundedMemo(_ROOT_CACHE_BYTES, lambda leaves, root: len(leaves))

_DIGEST = type(hashlib.sha256()).digest


def merkle_root(txids: Sequence[bytes]) -> bytes:
    """Compute the Merkle root of an *ordered* list of transaction IDs.

    Packs the list and hashes it with :func:`merkle_root_packed`.
    """
    leaves = [bytes(t) for t in txids]
    for txid in leaves:
        if len(txid) != 32:
            raise ParameterError(f"txids must be 32 bytes, got {len(txid)}")
    return merkle_root_packed(b"".join(leaves))


def merkle_root_packed(ids: bytes) -> bytes:
    """Merkle root of ordered 32-byte leaves laid end to end.

    Follows Bitcoin's convention: an odd node at any level is paired with
    itself.  No leaves yield 32 zero bytes (only possible for an empty
    block, which real chains forbid but tests exercise).  Every level
    is one buffer; viewed as 64-byte ``V64`` rows it lists its node
    pairs as ``bytes`` in one call, and the double SHA-256 of each pair
    runs through ``map`` chains, so no Python frame runs per node.
    """
    if len(ids) % 32:
        raise ParameterError(
            f"packed leaves must be 32-byte rows, got {len(ids)} bytes")
    if not ids:
        return bytes(32)
    ids = bytes(ids)
    cached = _ROOT_CACHE.lookup(ids)
    if cached is not None:
        return cached
    sha256, digest = hashlib.sha256, _DIGEST
    level = ids
    while len(level) > 32:
        if len(level) % 64:
            level += level[-32:]
        pairs = _np.frombuffer(level, dtype="V64").tolist()
        level = b"".join(map(digest, map(sha256, map(digest,
                                                     map(sha256, pairs)))))
    _ROOT_CACHE.remember(ids, level)
    return level
