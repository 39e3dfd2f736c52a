"""One Merkle level step, and the helper process that runs it.

:func:`hash_level` is the tree's one level implementation:
:mod:`repro.chain.merkle` imports it, and this file, run as a script,
is the helper process that hashes half of a large tree beside the
process that asked (see ``merkle.py``).  So it imports only the
standard library: the helper starts as ``python -I -S merkle_helper.py``,
without ``site`` or the package on its path.

The helper's protocol, over its standard input and output: it writes
one ready byte (:data:`READY`) once it is up; each request is a
``<II`` header (levels, byte count) followed by that many bytes of
packed 32-byte nodes, and the answer is those nodes hashed up
``levels`` levels.  End of input ends the helper.
"""

import hashlib
import struct
import sys

#: The byte the helper writes once it can take a request.
READY = b"R"

#: A request's header: the levels to hash up and the bytes that follow.
HEADER = struct.Struct("<II")

_SHA256 = hashlib.sha256
_DIGEST = type(hashlib.sha256()).digest


def hash_level(level: bytes) -> bytes:
    """The level above ``level``, both packed 32-byte nodes.

    Bitcoin's rule: an odd level's last node is paired with itself.
    ``struct`` splits the level into its 64-byte pairs in one call, and
    the double SHA-256 of each pair runs through ``map`` chains, so no
    Python frame runs per node.
    """
    if len(level) % 64:
        level += level[-32:]
    pairs = struct.unpack("64s" * (len(level) // 64), level)
    return b"".join(map(_DIGEST, map(_SHA256, map(_DIGEST,
                                                  map(_SHA256, pairs)))))


def hash_levels(level: bytes, levels: int) -> bytes:
    """``level`` hashed up exactly ``levels`` levels (a lone node is
    paired with itself, as a lone tail node of a wider tree is)."""
    for _ in range(levels):
        level = hash_level(level)
    return level


def serve(source, sink) -> None:
    """Answer requests from the binary stream ``source`` on ``sink``
    until ``source`` ends."""
    sink.write(READY)
    sink.flush()
    while True:
        header = source.read(HEADER.size)
        if len(header) < HEADER.size:
            return
        levels, size = HEADER.unpack(header)
        nodes = source.read(size)
        if len(nodes) < size:
            return
        sink.write(hash_levels(nodes, levels))
        sink.flush()


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout.buffer)
