"""Bitcoin-style Merkle trees.

The Merkle root in a block header is what turns Graphene from "probably
the right transactions" into an exact protocol: after IBLT decoding, the
receiver orders the candidate set and checks it hashes to the header's
root (Protocol 1 step 4 / Protocol 2 step 5).  Any residual Bloom filter
or IBLT mistake is caught here.

A tree of at least :data:`_SPLIT_MIN` leaves is hashed on two processes:
a helper hashes the first ``h`` complete subtrees of :data:`_SUBTREE_LEVELS`
levels while this process hashes the rest of the leaves up to that
level, and the two halves are joined and finished here.  Each level
below the join holds an even number of the helper's nodes, so an odd
level's last node is paired with itself exactly where the one-process
tree pairs it.  The one-helper rule: a process starts at most one
helper, lazily, on its second large tree (a process that hashes one,
its root memo answering every later check, never pays for a helper)
and only where it may run on two CPUs; it is
``python -I -S merkle_helper.py`` (never a fork of this
interpreter, whose sockets, selectors and threads a fork would copy),
used only once it has said it is ready, by one thread at a time, and
only by the process that started it.  Any other case -- one CPU, a
helper that is busy, not ready, dead or another process's -- hashes
the tree here, to the same root.  The helper ends when this process
exits (``atexit``) or, if this process dies, at the end of its input.
"""

from __future__ import annotations

import atexit
import os
import select
import subprocess
import sys
import threading
from typing import Sequence

from repro.chain import merkle_helper
from repro.chain.merkle_helper import HEADER, READY, hash_level, hash_levels
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

#: Trees of at least this many leaves are split with the helper.
_SPLIT_MIN = 512

#: Height of the subtrees the helper hashes: it takes whole
#: ``2**_SUBTREE_LEVELS``-leaf subtrees, about half of the leaves.
_SUBTREE_LEVELS = 8

#: Bounded wait for the helper to exit after its input is closed.
_EXIT_WAIT_S = 1.0

#: Trees split with the helper; trees hashed here because the helper was
#: busy (another thread's), gone (dead, broken or another process's) or
#: not yet ready (the first, before the helper starts, among them);
#: helpers started.  Read through :func:`helper_stats`.
_COUNTS = dict.fromkeys(("split", "busy", "gone", "not_ready", "starts"), 0)

#: Held (without blocking) by whichever thread starts or uses the helper;
#: every count but ``busy`` changes under it, ``busy`` under its own.
_LOCK = threading.Lock()
_BUSY_LOCK = threading.Lock()

#: The helper: ``None`` until a large tree is hashed, :data:`_DEFERRED`
#: after the first, then (from the second on) a :class:`_Helper`, or
#: :data:`_INLINE` where the process may use one CPU, a pipe cannot be
#: polled or the helper cannot be started.
_HELPER = None
_DEFERRED = "deferred"
_INLINE = "inline"


def helper_stats() -> dict:
    """The helper's counts since the process started, as
    ``{"split", "busy", "gone", "not_ready", "starts"}``."""
    return dict(_COUNTS)


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
    is one buffer hashed by :func:`~repro.chain.merkle_helper.hash_level`;
    a tree of at least :data:`_SPLIT_MIN` leaves is first hashed up
    :data:`_SUBTREE_LEVELS` levels on two processes where the helper
    can take half of it (module docstring).
    """
    if len(ids) % 32:
        raise ParameterError(
            f"packed leaves must be 32-byte rows, got {len(ids)} bytes")
    if not ids:
        return bytes(32)
    level = bytes(ids)
    if len(level) >= _SPLIT_MIN * 32:
        level = _split(level) or level
    while len(level) > 32:
        level = hash_level(level)
    return level


def _split(leaves: bytes):
    """``leaves`` hashed up :data:`_SUBTREE_LEVELS` levels, the helper
    taking the first whole subtrees, about half of them; ``None`` where
    the helper cannot take them now (the caller hashes the tree)."""
    global _HELPER
    if not _LOCK.acquire(blocking=False):
        with _BUSY_LOCK:
            _COUNTS["busy"] += 1
        return None
    try:
        helper = _HELPER
        if helper is None:
            # The first large tree is hashed here, counted not ready: a
            # process that hashes only one never pays for a helper.
            if _cpus() < 2 or not hasattr(select, "poll"):
                _HELPER = _INLINE
            else:
                _HELPER = _DEFERRED
                _COUNTS["not_ready"] += 1
            return None
        if helper is _DEFERRED:
            helper = _HELPER = _start()
        if helper is _INLINE:
            return None
        if helper.owner != os.getpid() or helper.dead:
            _COUNTS["gone"] += 1
            return None
        if not helper.ready():
            _COUNTS["not_ready" if not helper.dead else "gone"] += 1
            return None
        level = helper.hash_subtrees(leaves)
        _COUNTS["split" if level is not None else "gone"] += 1
        return level
    finally:
        _LOCK.release()


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _start():
    """A started :class:`_Helper`, or :data:`_INLINE` where it cannot be
    started."""
    try:
        helper = _Helper()
    except OSError:
        return _INLINE
    _COUNTS["starts"] += 1
    atexit.register(helper.stop)
    return helper


class _Helper:
    """The helper process and the pid of the process that started it."""

    def __init__(self):
        self.owner = os.getpid()
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", merkle_helper.__file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        self.is_ready = False
        self.dead = False

    def ready(self) -> bool:
        """Whether the helper has written its ready byte (never waits)."""
        if not self.is_ready:
            poll = select.poll()
            poll.register(self.proc.stdout, select.POLLIN)
            if not poll.poll(0):
                return False
            if self.proc.stdout.read(1) != READY:
                self.stop()
                return False
            self.is_ready = True
        return True

    def hash_subtrees(self, leaves: bytes):
        """:func:`_split`'s level, or ``None`` (and the helper stopped)
        if the helper fails to answer in full."""
        width = 32 << _SUBTREE_LEVELS
        count = max(1, (len(leaves) + width) // (2 * width))
        cut = count * width
        answered = False
        # Anything short of a whole answer, an interrupt included, stops
        # the helper: a request left half-answered would hand its bytes
        # to the next one.
        try:
            self.proc.stdin.write(HEADER.pack(_SUBTREE_LEVELS, cut))
            self.proc.stdin.write(memoryview(leaves)[:cut])
            self.proc.stdin.flush()
            tail = hash_levels(leaves[cut:], _SUBTREE_LEVELS)
            head = self.proc.stdout.read(count * 32)  # short only at EOF
            answered = len(head) == count * 32
        except OSError:
            pass
        finally:
            if not answered:
                self.stop()
        return head + tail if answered else None

    def stop(self) -> None:
        """Close the helper's input, wait a bounded time, then kill it.
        Only the process that started it does; any other leaves it be."""
        self.dead = True
        if self.owner != os.getpid():
            return
        proc = self.proc
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            proc.wait(_EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


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
