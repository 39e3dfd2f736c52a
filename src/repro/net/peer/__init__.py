"""Real-socket peer stack: framing, handshake, and one asyncio endpoint.

The deployment face of the relay: the same
:mod:`repro.core.engine` state machines every in-memory layer drives,
behind a length-prefixed frame codec and a version/verack handshake on
real TCP streams.

There is one socket path.  :class:`PeerManager`
(:mod:`repro.net.peer.manager`) runs a listener and a dial list in one
event loop, demultiplexes concurrent exchanges by root key, and is the
asyncio driver of the recovery ladder of :mod:`repro.net.host` --
including alternate-announcer failover (see docs/PEERING.md).
:class:`BlockServer` and :func:`fetch_block` are that manager with a
group of one (a listener serving one block; a one-entry dial list
returning its first fetch), and both report a :class:`PeerFetchResult`
(``MeshFetchResult`` is the same class).  ``repro serve`` /
``repro peer`` are the CLI front ends; ``tests/test_peer_socket.py``
and ``tests/test_peer_mesh.py`` pin socket relays byte-identical to
their loopback twins.
"""

from repro.net.peer.framing import (
    FrameDecoder,
    FrameError,
    encode_frame,
    frame_overhead,
    iter_splits,
    MAGIC,
    MAX_COMMAND,
    MAX_PAYLOAD,
)
from repro.net.peer.manager import (
    BlockServer,
    MeshConnection,
    MeshFetchResult,
    PeerManager,
    fetch_block,
)
from repro.net.peer.peer import (
    HANDSHAKE_TIMEOUT,
    PeerConnection,
    PeerFetchResult,
)
from repro.net.peer.protocol import (
    ENGINE_COMMANDS,
    FRAME_COMMANDS,
    HANDSHAKE_COMMANDS,
    PROTOCOL_VERSION,
    ROOT_BYTES,
    VersionInfo,
    decode_full_block,
    decode_inv,
    decode_version,
    derive_sync_nonce,
    encode_full_block,
    encode_inv,
    encode_keyed,
    encode_version,
    split_keyed,
)
from repro.net.peer.transport import AsyncioTransport

__all__ = [
    "AsyncioTransport",
    "BlockServer",
    "ENGINE_COMMANDS",
    "FRAME_COMMANDS",
    "FrameDecoder",
    "FrameError",
    "HANDSHAKE_COMMANDS",
    "HANDSHAKE_TIMEOUT",
    "MAGIC",
    "MAX_COMMAND",
    "MAX_PAYLOAD",
    "MeshConnection",
    "MeshFetchResult",
    "PROTOCOL_VERSION",
    "PeerManager",
    "PeerConnection",
    "PeerFetchResult",
    "ROOT_BYTES",
    "VersionInfo",
    "decode_full_block",
    "decode_inv",
    "decode_version",
    "derive_sync_nonce",
    "encode_frame",
    "encode_full_block",
    "encode_inv",
    "encode_keyed",
    "encode_version",
    "fetch_block",
    "frame_overhead",
    "iter_splits",
    "split_keyed",
]
