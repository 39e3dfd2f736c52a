"""Tests for the Merkle tree."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import merkle
from repro.chain.merkle import (certified_root, matches_root, merkle_root,
                                merkle_root_packed)
from repro.errors import ParameterError
from repro.utils.hashing import sha256

TXIDS = st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=40)


class TestMerkleRoot:
    def test_empty_is_zero(self):
        assert merkle_root([]) == bytes(32)

    def test_single_leaf_is_itself(self):
        leaf = sha256(b"only")
        assert merkle_root([leaf]) == leaf

    def test_known_pair(self):
        import hashlib
        a, b = sha256(b"a"), sha256(b"b")
        expected = hashlib.sha256(hashlib.sha256(a + b).digest()).digest()
        assert merkle_root([a, b]) == expected

    def test_odd_leaf_duplicated(self):
        a, b, c = (sha256(x) for x in (b"a", b"b", b"c"))
        assert merkle_root([a, b, c]) == merkle_root([a, b, c, c])

    def test_order_matters(self):
        a, b = sha256(b"a"), sha256(b"b")
        assert merkle_root([a, b]) != merkle_root([b, a])

    def test_content_matters(self):
        a, b, c = (sha256(x) for x in (b"a", b"b", b"c"))
        assert merkle_root([a, b]) != merkle_root([a, c])

    def test_rejects_bad_leaf_width(self):
        with pytest.raises(ParameterError):
            merkle_root([b"not-32-bytes"])

    @given(TXIDS)
    @settings(max_examples=50, deadline=None)
    def test_deterministic(self, txids):
        assert merkle_root(txids) == merkle_root(txids)

    @given(TXIDS, st.integers(0, 39))
    @settings(max_examples=50, deadline=None)
    def test_any_mutation_changes_root(self, txids, position):
        position %= len(txids)
        mutated = list(txids)
        mutated[position] = sha256(mutated[position])
        if mutated != txids:
            assert merkle_root(txids) != merkle_root(mutated)


class TestRootMemo:
    """The memo is keyed by the root it certifies, holds the leaves that
    certified it, and is bounded in bytes."""

    @staticmethod
    def _leaves(tag: int, count: int) -> bytes:
        return b"".join(sha256(b"%d/%d" % (tag, i)) for i in range(count))

    @staticmethod
    def _count_trees(monkeypatch) -> list:
        calls: list = []
        tree = merkle.merkle_root_packed

        def counted(ids):
            calls.append(len(ids))
            return tree(ids)
        monkeypatch.setattr(merkle, "merkle_root_packed", counted)
        return calls

    def test_hit_is_the_uncached_root_for_equal_bytes_in_any_buffer(
            self, monkeypatch):
        leaves = self._leaves(1, 37)
        merkle._ROOT_CACHE.clear()
        root = merkle_root_packed(leaves)
        assert not merkle._ROOT_CACHE  # the tree itself remembers nothing
        assert matches_root(leaves, root)
        assert list(merkle._ROOT_CACHE.items()) == [(root, leaves)]
        trees = self._count_trees(monkeypatch)
        for buffer in (bytes(bytearray(leaves)), bytearray(leaves),
                       memoryview(leaves)):
            assert matches_root(buffer, root)
        assert trees == [] and merkle._ROOT_CACHE.hits == 3
        assert len(merkle._ROOT_CACHE) == 1
        merkle._ROOT_CACHE.clear()
        assert matches_root(memoryview(leaves), root) and trees == [len(leaves)]
        assert type(merkle._ROOT_CACHE[root]) is bytes
        merkle._ROOT_CACHE.clear()

    def test_pinned_bytes_stay_within_the_budget(self):
        merkle._ROOT_CACHE.clear()
        count = merkle._ROOT_CACHE_BYTES // (32 * 8)  # 8 entries fill it
        for tag in range(30):
            root = certified_root(self._leaves(tag, count))
            assert sum(map(len, merkle._ROOT_CACHE.values())) \
                == merkle._ROOT_CACHE.pinned <= merkle._ROOT_CACHE_BYTES
        assert merkle._ROOT_CACHE[root] == self._leaves(29, count)
        # Leaves larger than the whole budget are kept alone, and are
        # the first to go at the next insertion.
        huge = self._leaves(99, merkle._ROOT_CACHE_BYTES // 32 + 2)
        huge_root = certified_root(huge)
        assert certified_root(huge) == huge_root
        assert list(merkle._ROOT_CACHE.items()) == [(huge_root, huge)]
        small = self._leaves(29, 2)
        assert matches_root(small, merkle_root_packed(small))
        assert list(merkle._ROOT_CACHE.values()) == [small]
        merkle._ROOT_CACHE.clear()

    def test_ten_thousand_roots_stay_within_the_budget(self):
        merkle._ROOT_CACHE.clear()
        for tag in range(10_000):
            leaves = self._leaves(tag, 16)  # 512 bytes: 2 048 fill it
            assert matches_root(leaves, certified_root(leaves))
            assert merkle._ROOT_CACHE.pinned <= merkle._ROOT_CACHE_BYTES
        assert merkle._ROOT_CACHE.pinned \
            == sum(map(len, merkle._ROOT_CACHE.values()))
        assert merkle._ROOT_CACHE.hits == 10_000
        merkle._ROOT_CACHE.clear()

    def test_held_leaves_that_differ_are_recomputed_and_rejected(
            self, monkeypatch):
        leaves = self._leaves(2, 9)
        merkle._ROOT_CACHE.clear()
        root = certified_root(leaves)
        swapped = leaves[32:64] + leaves[:32] + leaves[64:]
        trees = self._count_trees(monkeypatch)
        assert not matches_root(swapped, root)
        assert trees == [len(swapped)]
        # Bitcoin's odd-level rule: doubling the last leaf of an odd
        # list keeps the root.  Such a twin is recomputed and accepted,
        # and the leaves that certified the root first stay held.
        twin = leaves + leaves[-32:]
        assert matches_root(twin, root) and len(trees) == 2
        assert list(merkle._ROOT_CACHE.items()) == [(root, leaves)]
        merkle._ROOT_CACHE.clear()

    def test_hostile_candidates_never_enter_the_memo(self):
        merkle._ROOT_CACHE.clear()
        honest = self._leaves(3, 12)
        root = merkle_root_packed(honest)
        for hostile in (self._leaves(4, 12), honest[32:], honest[:-32],
                        honest[:32] * 12):
            assert not matches_root(hostile, root)
        assert not merkle._ROOT_CACHE
        assert matches_root(honest, root)
        assert list(merkle._ROOT_CACHE.items()) == [(root, honest)]
        merkle._ROOT_CACHE.clear()


def _ladder(leaves: bytes) -> bytes:
    """The Merkle root by the textbook ladder: a list of nodes per level,
    the last node of an odd level doubled, one ``hashlib`` call each."""
    import hashlib
    level = [leaves[i:i + 32] for i in range(0, len(leaves), 32)]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [hashlib.sha256(hashlib.sha256(a + b).digest()).digest()
                 for a, b in zip(level[::2], level[1::2])]
    return level[0]


def _wait_ready(helper, bound_s: float = 30.0) -> None:
    deadline = time.monotonic() + bound_s
    while not helper.ready():
        assert time.monotonic() < deadline, "helper never became ready"
        time.sleep(0.005)


@pytest.fixture
def fresh_helper(monkeypatch):
    """The helper state of a process that has hashed no large tree yet;
    any helper the test starts is stopped after it."""
    monkeypatch.setattr(merkle, "_HELPER", None)
    monkeypatch.setattr(merkle, "_COUNTS", dict.fromkeys(merkle._COUNTS, 0))
    yield
    if isinstance(merkle._HELPER, merkle._Helper):
        merkle._HELPER.stop()


@pytest.fixture
def ready_helper(fresh_helper):
    """A started helper that has said it is ready."""
    if merkle._cpus() < 2:
        pytest.skip("the helper runs only where two CPUs are usable")
    assert merkle._split(bytes(32 * merkle._SPLIT_MIN)) is None
    helper = merkle._HELPER
    _wait_ready(helper)
    return helper


class TestTwoProcessTree:
    """Large trees are hashed half in a helper process, to the root the
    one-process tree gives, and every way the helper can fail falls back
    to hashing here."""

    @pytest.mark.parametrize("n", sorted({
        1, 2, 3, merkle._SPLIT_MIN - 1, merkle._SPLIT_MIN,
        merkle._SPLIT_MIN + 1, 767, 768, 1023, 1024, 1025, 2000, 2047,
        2048, 2049, 4095, 4096, 4097}))
    def test_root_equals_the_ladder(self, ready_helper, n):
        leaves = b"".join(sha256(b"%d/%d" % (n, i)) for i in range(n))
        assert merkle_root_packed(leaves) == _ladder(leaves)
        split = merkle.helper_stats()["split"]
        assert split == (1 if n >= merkle._SPLIT_MIN else 0)

    def test_small_trees_start_no_helper(self, fresh_helper):
        from repro.obs.scenario import run_block_relay_scenario

        leaves = bytes(32 * (merkle._SPLIT_MIN - 1))
        assert merkle_root_packed(leaves) == _ladder(leaves)
        run = run_block_relay_scenario(nodes=6, block_size=200, extra=20,
                                       trace=False)
        assert run.covered == 6
        assert merkle._HELPER is None
        assert merkle.helper_stats() == dict.fromkeys(merkle._COUNTS, 0)

    def test_killed_helper_falls_back_inline(self, ready_helper):
        leaves = b"".join(sha256(b"k%d" % i) for i in range(2000))
        root = _ladder(leaves)
        assert merkle_root_packed(leaves) == root
        ready_helper.proc.kill()
        ready_helper.proc.wait()
        assert merkle_root_packed(leaves) == root
        assert merkle_root_packed(leaves) == root
        assert ready_helper.dead and ready_helper.proc.stdin.closed
        assert merkle.helper_stats() == dict(
            split=1, busy=0, gone=2, not_ready=1, starts=1)

    def test_another_pid_never_touches_the_pipes(self, ready_helper,
                                                  monkeypatch):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"pipe touched: {name}")

        leaves = b"".join(sha256(b"p%d" % i) for i in range(2000))
        pipes = ready_helper.proc.stdin, ready_helper.proc.stdout
        with monkeypatch.context() as patch:
            patch.setattr(merkle.os, "getpid", lambda: -1)
            patch.setattr(ready_helper.proc, "stdin", Untouchable())
            patch.setattr(ready_helper.proc, "stdout", Untouchable())
            assert merkle_root_packed(leaves) == _ladder(leaves)
            ready_helper.stop()  # what a forked child's atexit would run
        assert merkle.helper_stats()["gone"] == 1
        assert ready_helper.proc.poll() is None
        assert (ready_helper.proc.stdin, ready_helper.proc.stdout) == pipes
        # The owner still gets a whole answer: nothing was left in the
        # pipes for it to misread.  (``dead`` was set on this shared
        # object; a forked child would have set it on its own copy.)
        ready_helper.dead = False
        assert merkle_root_packed(leaves) == _ladder(leaves)
        assert merkle.helper_stats()["split"] == 1

    def test_one_cpu_stays_inline(self, fresh_helper, monkeypatch):
        monkeypatch.setattr(merkle.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        leaves = b"".join(sha256(b"c%d" % i) for i in range(2000))
        for _ in range(3):
            assert merkle_root_packed(leaves) == _ladder(leaves)
        assert merkle._HELPER is merkle._INLINE
        assert merkle.helper_stats() == dict.fromkeys(merkle._COUNTS, 0)

    def test_threads_share_one_helper(self, ready_helper):
        """More threads than CPUs, switching often: every root is the
        ladder's (two threads in the pipes at once would swap answers)
        and every tree is counted once, split or busy."""
        import threading

        trees = [b"".join(sha256(b"t%d/%d" % (n, i)) for i in range(n))
                 for n in (600, 1025, 2000, 2049)]
        roots = [_ladder(leaves) for leaves in trees]
        before = merkle.helper_stats()
        wrong: list = []

        def work():
            for _ in range(20):
                for leaves, root in zip(trees, roots):
                    if merkle_root_packed(leaves) != root:
                        wrong.append(len(leaves))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        after = merkle.helper_stats()
        assert (after["split"] - before["split"]
                + after["busy"] - before["busy"]) == 6 * 20 * len(trees)
        assert after["gone"] == before["gone"] and not ready_helper.dead

    def test_no_helper_outlives_its_process(self):
        script = (
            "import time\n"
            "from repro.chain import merkle\n"
            "leaves = bytes(range(32)) * 2000\n"
            "merkle.merkle_root_packed(leaves)\n"
            "helper = merkle._HELPER\n"
            "while helper is not merkle._INLINE and not helper.ready():\n"
            "    time.sleep(0.005)\n"
            "merkle.merkle_root_packed(leaves)\n"
            "print(0 if helper is merkle._INLINE else helper.proc.pid)\n")
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            merkle.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60, check=True)
        pid = int(done.stdout)
        if not pid:
            pytest.skip("one CPU: no helper was started")
        deadline = time.monotonic() + 10.0
        with pytest.raises(ProcessLookupError):
            while time.monotonic() < deadline:
                os.kill(pid, 0)
                time.sleep(0.01)
