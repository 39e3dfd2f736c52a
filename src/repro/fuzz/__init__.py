"""Deterministic structure-aware differential fuzzing.

Three engines hammer the layers most prone to silent drift:

* ``codec`` -- wire round-trips, behaviour parity of decoded
  structures, hostile-input robustness (mutations and truncations);
* ``pds`` -- columnar Bloom/IBLT batch paths against the scalar
  references and their own scalar paths;
* ``relay`` -- random lossy topologies with fault injection through
  the real node stack, asserting convergence-or-clean-abandon and the
  RunReport invariants.

``python -m repro fuzz --seed 0 --cases 500`` runs a campaign;
failures are minimized and archived in ``tests/corpus/`` where
``tests/test_fuzz_corpus.py`` replays them forever.  See
``docs/FUZZING.md``.
"""

from repro.fuzz.engines import ENGINES, CodecEngine, FuzzFailure, \
    PDSEngine, RelayEngine
from repro.fuzz.runner import DEFAULT_CORPUS, FuzzStats, load_artifact, \
    replay_artifact, run_fuzz, write_artifact
from repro.fuzz.shrink import shrink

__all__ = [
    "ENGINES",
    "CodecEngine",
    "PDSEngine",
    "RelayEngine",
    "FuzzFailure",
    "FuzzStats",
    "DEFAULT_CORPUS",
    "run_fuzz",
    "write_artifact",
    "load_artifact",
    "replay_artifact",
    "shrink",
]
