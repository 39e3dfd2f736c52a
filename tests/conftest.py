"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import faulthandler
import os
import random
import sys

import pytest

from repro.chain.scenarios import make_block_scenario, make_sync_scenario
from repro.chain.transaction import TransactionGenerator
from repro.core.params import GrapheneConfig


#: Wall-clock bound of one test, in seconds.  The slowest test takes
#: a few seconds; a lost loop guard would otherwise hang the suite.
TEST_WALL_BOUND_S = 120


@pytest.fixture(scope="session")
def terminal_stderr(pytestconfig):
    """A copy of the run's stderr taken with output capture off: what
    is written to it while a test runs is not lost in the test's
    captured output when the process exits."""
    capture = pytestconfig.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled() if capture is not None \
            else contextlib.nullcontext():
        fd = os.dup(sys.stderr.fileno())
    yield fd
    os.close(fd)


@pytest.fixture(autouse=True)
def wall_clock_bound(terminal_stderr):
    """End the run with every thread's traceback if a test outlives
    :data:`TEST_WALL_BOUND_S`, instead of hanging."""
    faulthandler.dump_traceback_later(TEST_WALL_BOUND_S, exit=True,
                                      file=terminal_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng():
    """A deterministic random source."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def config():
    """Default Graphene configuration (paper parameters)."""
    return GrapheneConfig()


@pytest.fixture
def txgen():
    """A deterministic transaction factory."""
    return TransactionGenerator(seed=1234)


@pytest.fixture
def small_scenario():
    """A fully synchronized 100-txn block scenario (Protocol 1 regime)."""
    return make_block_scenario(n=100, extra=100, fraction=1.0, seed=99)


@pytest.fixture
def missing_scenario():
    """A scenario where the receiver misses 10% of the block (Protocol 2)."""
    return make_block_scenario(n=100, extra=100, fraction=0.9, seed=77)


@pytest.fixture
def sync_scenario():
    """Two mempools of equal size sharing half their content."""
    return make_sync_scenario(n=200, fraction_common=0.5, seed=55)
