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


#: Roots this process has certified, keyed by the root, each holding
#: the ordered leaves that hashed to it.  Every hop of a relay checks
#: the same block against the same header: with the root in hand, a
#: repeat check is one ``memcmp`` of the candidate's leaves against the
#: held ones, where the tree is ~2(n-1) double-SHA calls (and a memo
#: keyed by the leaves would hash the whole buffer to find them).  Only
#: leaves that hash to their root get in, so no candidate can plant a
#: value; bounded by the bytes the held leaves pin.
_ROOT_CACHE_BYTES = 1 << 20
_ROOT_CACHE = BoundedMemo(_ROOT_CACHE_BYTES, lambda root, leaves: len(leaves))

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
    sha256, digest = hashlib.sha256, _DIGEST
    level = bytes(ids)
    while len(level) > 32:
        if len(level) % 64:
            level += level[-32:]
        pairs = _np.frombuffer(level, dtype="V64").tolist()
        level = b"".join(map(digest, map(sha256, map(digest,
                                                     map(sha256, pairs)))))
    return level


def certified_root(ids) -> bytes:
    """:func:`merkle_root_packed` of ``ids``, remembered as certified by
    them -- what a block's assembler knows of the root it names."""
    root = merkle_root_packed(ids)
    if root not in _ROOT_CACHE:
        _ROOT_CACHE.remember(root, bytes(ids))
    return root


def matches_root(ids, root: bytes) -> bool:
    """Whether ordered 32-byte leaves ``ids`` hash to ``root``.

    A held root is certified by comparing ``ids`` to the leaves it
    holds.  The tree is computed only on a miss or a mismatch; a
    mismatch may still hash to ``root``, since the tree pairs an odd
    level's last node with itself and doubling that leaf keeps the
    root.  Only leaves that hash to ``root`` on a miss are remembered.
    """
    held = _ROOT_CACHE.lookup(root)
    if held is not None and held == ids:
        return True
    if merkle_root_packed(ids) != root:
        return False
    if held is None:
        _ROOT_CACHE.remember(root, bytes(ids))
    return True
