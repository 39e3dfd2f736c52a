"""The simulated wire: messages and what each command does on arrival.

A :class:`NetMessage` pairs a command name with an arbitrary payload
object and an explicit wire size.  Sizes come from the payloads' own
``wire_size()`` / ``serialized_size()`` accounting wherever one exists,
so bytes measured in the network simulator agree with the standalone
protocol benchmarks.

:data:`HANDLERS` is the one list of commands: each maps to a plain
function ``handler(node, sender, payload)`` that the receiving
:class:`~repro.net.node.Node` runs.  Graphene engine frames, mempool
sync, ``inv`` and full blocks go to the node's
:class:`~repro.net.host.RelayHost`; the Compact Blocks / XThin handlers
wrap the pure steps of :mod:`repro.baselines`.  Plain functions keep a
node free of bound methods of itself (and so off the cycle collector).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.baselines import compact_blocks, xthin
from repro.chain.block import Block
from repro.core.engine import RECEIVER_STEPS, SENDER_STEPS
from repro.core.sizing import MSG_HEADER_BYTES
from repro.core.telemetry import MessageEvent
from repro.errors import ParameterError
from repro.net.host import SYNC_COMMANDS, RelayHost


@dataclass(frozen=True, slots=True)
class NetMessage:
    """One message in flight between two peers."""

    command: str
    payload: Any
    size: int
    #: Telemetry record attached by an engine-driven sender; when
    #: present it is the authoritative byte accounting for this message.
    event: Optional[MessageEvent] = None

    def __post_init__(self):
        if self.command not in HANDLERS:
            raise ParameterError(f"unknown command {self.command!r}")
        if self.size < 0:
            raise ParameterError(f"size must be non-negative, got {self.size}")

    @property
    def total_size(self) -> int:
        """Bytes this message is charged on the wire.

        Engine-driven messages carry a telemetry event whose parts are
        the paper's analytic accounting (envelope included exactly
        where the size model includes it); ad-hoc messages fall back to
        payload size plus the fixed envelope.
        """
        if self.event is not None:
            return self.event.wire_bytes
        return self.size + MSG_HEADER_BYTES


def enveloped(command: str, payload, wire_bytes: int) -> NetMessage:
    """A message whose size model (``getdata_bytes``,
    ``getblocktxn_bytes``) already counts the envelope that
    :attr:`NetMessage.total_size` adds to every ad-hoc payload."""
    return NetMessage(command, payload, wire_bytes - MSG_HEADER_BYTES)


def _host_entry(entry, command: str):
    """A handler handing ``command``'s ``(key, message)`` frame to the
    host's ``entry`` (:meth:`RelayHost.on_frame` / ``on_sync_frame``)."""
    def handler(node, sender, payload) -> None:
        entry(node.host, sender.nid, command, *payload)
    return handler


def _on_inv(node, sender, payload) -> None:
    node.host.on_inv(sender.nid, payload[1])


def _on_block(node, sender, block: Block) -> None:
    node.host.on_block(sender.nid, block)


def _on_getdata(node, sender, payload) -> None:
    kind = payload[0]
    if kind == "block":
        block = node.blocks.get(payload[1])
        if block is not None:
            node._relay_block(sender, block, payload[2])
        return
    if kind == "fullblock":
        # Fallback after a failed reconciliation: ship everything.
        block = node.blocks.get(payload[1])
        if block is not None:
            node._send(sender, NetMessage("block", block,
                                          block.serialized_size()))
        return
    raise ParameterError(f"unknown getdata kind {kind!r}")


def _accept_candidate(node, sender, root: bytes, header, txs) -> None:
    """Accept ``txs`` if they hash to ``header``'s root, else fall back."""
    ordered = Block(header=header, txs=()).validated_order(list(txs))
    if ordered is None:
        node.host.decode_failed(sender.nid, root)
        return
    node.host.complete(sender.nid, Block(header=header, txs=tuple(ordered)))


def _on_cmpctblock(node, sender, payload) -> None:
    root, header, sids, prefilled = payload
    if root in node.blocks:
        return
    txs, missing, _ = compact_blocks.match_short_ids(sids, node.mempool)
    txs += prefilled
    if not missing:
        _accept_candidate(node, sender, root, header, txs)
        return
    node._cb_pending[root] = (header, txs)
    node._send(sender, enveloped(
        "getblocktxn", (root, tuple(missing)),
        compact_blocks.getblocktxn_bytes(len(sids) + len(prefilled),
                                         len(missing))))
    # The exchange advanced; give the blocktxn reply a fresh timer
    # (a timeout restarts the whole cmpctblock request).
    node.host.progress(root)


def _on_getblocktxn(node, sender, payload) -> None:
    root, indexes = payload
    block = node.blocks.get(root)
    if block is None:
        return
    txs = compact_blocks.send_blocktxn(block, indexes)
    node._send(sender, NetMessage("blocktxn", (root, txs),
                                  sum(tx.size for tx in txs)))


def _on_blocktxn(node, sender, payload) -> None:
    root, txs = payload
    pending = node._cb_pending.pop(root, None)
    if pending is None:
        return
    header, partial = pending
    _accept_candidate(node, sender, root, header, partial + list(txs))


def _on_xthin_getdata(node, sender, payload) -> None:
    root, bloom = payload
    block = node.blocks.get(root)
    if block is None:
        return
    sids, pushed = xthin.send_xthinblock(block, bloom)
    node._send(sender, NetMessage(
        "xthinblock", (root, block.header, sids, pushed),
        xthin.xthin_star_bytes(block.n) + sum(tx.size for tx in pushed)))


def _on_xthinblock(node, sender, payload) -> None:
    root, header, sids, pushed = payload
    if root in node.blocks:
        return
    txs, missing, _ = compact_blocks.match_short_ids(
        sids, [*node.mempool, *pushed])
    if missing:
        node.host.decode_failed(sender.nid, root)
    else:
        _accept_candidate(node, sender, root, header, txs)


#: Wire command -> ``handler(node, sender, payload)``.  Graphene engine
#: steps go to the host (the plain ``getdata`` stays multiplexed with
#: baseline relay), as do mempool-sync frames.
HANDLERS = {
    **{command: _host_entry(RelayHost.on_frame, command)
       for command in (RECEIVER_STEPS.keys() | SENDER_STEPS.keys())
       - {"getdata"}},
    **{command: _host_entry(RelayHost.on_sync_frame, command)
       for command in SYNC_COMMANDS},
    "inv": _on_inv,
    "getdata": _on_getdata,
    "block": _on_block,
    "cmpctblock": _on_cmpctblock,
    "getblocktxn": _on_getblocktxn,
    "blocktxn": _on_blocktxn,
    "xthin_getdata": _on_xthin_getdata,
    "xthinblock": _on_xthinblock,
}
