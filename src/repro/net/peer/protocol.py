"""Handshake and payload layouts for the asyncio peer stack.

The frame envelope (:mod:`repro.net.peer.framing`) carries opaque
payloads; this module defines what goes inside them:

* ``version`` / ``verack`` -- the connection handshake.  A ``version``
  payload announces the speaker's protocol version, its node id, and
  its *sync nonce*: the seed its mempool-sync session nonces derive
  from (the same crc32-of-node-id derivation the simulator nodes use),
  so two peers that will later reconcile pools continuously agree on
  session identities up front.  Each side sends ``version``, answers
  the other's with an empty ``verack``, and the connection is up once
  both verack.  Mismatched protocol versions fail the handshake.
* ``inv`` -- a block announcement: the 32-byte Merkle root.
* engine frames -- every Graphene engine message crosses as
  ``root (32B) | engine message``, so one connection can multiplex
  exchanges for several blocks exactly like the simulator's keyed
  :class:`~repro.net.messages.NetMessage` payloads.
* ``getdata_block`` / ``block`` -- the full-block fallback rung of the
  recovery ladder: the request names the root, the response is the
  80-byte header followed by the transaction list encoding.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.chain.block import Block
from repro.codec import (
    decode_block_header,
    decode_tx_list,
    encode_tx_list,
)
from repro.core.engine import RECEIVER_STEPS, SENDER_STEPS
from repro.errors import ProtocolFailure
from repro.utils.serialization import compact_size, read_compact_size

#: Version spoken by this peer stack; a mismatch fails the handshake.
#: 2: the keyed-mixing hash family (PROTOCOL.md 1.1/1.2).  A version-1
#: peer places every key in different cells and bits, so every decode
#: against it would fail silently into a full-block fetch.
#: 3: Protocol 3's continuation may carry filter R and its answer the
#: transactions that miss it (PROTOCOL.md 2.6); both are tails behind
#: the version-2 messages, which stay valid as they are.
PROTOCOL_VERSION = 3

#: Merkle roots are 32 bytes on the wire, prefixed to engine messages.
ROOT_BYTES = 32

#: Commands valid inside a frame.  The engine commands are exactly the
#: dispatch tables the in-memory transports use, so the socket speaks
#: the same vocabulary as every other layer.
HANDSHAKE_COMMANDS = frozenset({"version", "verack"})
ENGINE_COMMANDS = frozenset(RECEIVER_STEPS) | frozenset(SENDER_STEPS)
FRAME_COMMANDS = (HANDSHAKE_COMMANDS | ENGINE_COMMANDS
                  | frozenset({"inv", "getdata_block", "block"}))


def derive_sync_nonce(node_id: str) -> int:
    """The sync-nonce seed a node advertises in its ``version``.

    Matches the simulator nodes' per-node nonce derivation (crc32 of
    the node id), so a socket peer and its simulated twin announce the
    same identity.
    """
    return zlib.crc32(node_id.encode())


@dataclass(frozen=True)
class VersionInfo:
    """Decoded ``version`` payload."""

    version: int
    nonce: int
    node_id: str


def encode_version(node_id: str) -> bytes:
    """``version u32 | nonce u64 | id_len compact | node_id utf-8``, at
    :data:`PROTOCOL_VERSION` with the nonce derived from ``node_id``."""
    ident = node_id.encode("utf-8")
    return (struct.pack("<IQ", PROTOCOL_VERSION, derive_sync_nonce(node_id))
            + compact_size(len(ident)) + ident)


def decode_version(payload) -> VersionInfo:
    """Parse a ``version`` payload; raises on truncation."""
    if len(payload) < 12:
        raise ProtocolFailure(
            f"version payload of {len(payload)} bytes is too short")
    version, nonce = struct.unpack_from("<IQ", payload, 0)
    id_len, offset = read_compact_size(payload, 12)
    if offset + id_len != len(payload):
        raise ProtocolFailure(
            f"version payload length mismatch: node id claims {id_len} "
            f"bytes, {len(payload) - offset} remain")
    try:
        node_id = bytes(payload[offset:offset + id_len]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolFailure(f"version node id is not UTF-8: {exc}") \
            from None
    return VersionInfo(version=version, nonce=nonce, node_id=node_id)


def encode_inv(root: bytes) -> bytes:
    if len(root) != ROOT_BYTES:
        raise ProtocolFailure(f"inv root must be {ROOT_BYTES} bytes, "
                              f"got {len(root)}")
    return bytes(root)


def decode_inv(payload) -> bytes:
    if len(payload) != ROOT_BYTES:
        raise ProtocolFailure(
            f"inv payload must be {ROOT_BYTES} bytes, got {len(payload)}")
    # Copy: the root outlives the receive buffer it arrived in.
    return bytes(payload)


def encode_keyed(root: bytes, message) -> bytes:
    """Prefix an engine message with its exchange key."""
    return bytes(root) + bytes(message)


def split_keyed(payload) -> tuple[bytes, memoryview]:
    """Split ``root | message``; the message stays a zero-copy view."""
    if len(payload) < ROOT_BYTES:
        raise ProtocolFailure(
            f"keyed frame of {len(payload)} bytes has no room for a "
            f"{ROOT_BYTES}-byte root")
    view = memoryview(payload)
    # The root is retained (it keys engine registries); the message is
    # consumed synchronously by the engine step, so a view is safe.
    return bytes(view[:ROOT_BYTES]), view[ROOT_BYTES:]


def encode_full_block(block: Block) -> bytes:
    """``header (80B) | tx list`` -- the full-block fallback body."""
    return block.header.serialize() + encode_tx_list(block.txs)


def decode_full_block(payload) -> Block:
    header = decode_block_header(payload)
    txs, offset = decode_tx_list(payload, 80)
    if offset != len(payload):
        raise ProtocolFailure(
            f"trailing {len(payload) - offset} bytes after block body")
    return Block(header=header, txs=tuple(txs))
