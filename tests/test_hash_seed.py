"""Seeds and names derived from strings are the same in every process.

Python salts ``hash()`` of a ``str`` per process (``PYTHONHASHSEED``),
so a seed or a file name taken from it, or an order read off a set of
strings, changes from one run to the next.  A Poisson mining run (its
finds, miner picks and every delivery) and a fuzz artifact's name must
not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

_SCRIPT = """if True:
    import json, sys, tempfile
    from repro.fuzz.engines import FuzzFailure
    from repro.fuzz.runner import write_artifact
    from repro.net.node import RelayProtocol
    from repro.obs import run_mining_scenario

    run = run_mining_scenario(RelayProtocol.GRAPHENE, blocks=3, miners=3,
                              interval=10.0, block_txns=20, latency=0.05,
                              bandwidth=500_000.0, seed=0)
    found = [(record.miner, record.mined_at,
              [node.block_arrival[record.root] for node in run.nodes])
             for record in run.records]
    failure = FuzzFailure(engine="codec", check="tx-roundtrip",
                          detail="synthetic",
                          params={"kind": "transaction", "seed": 11, "n": 3})
    with tempfile.TemporaryDirectory() as corpus:
        name = write_artifact(failure, corpus).name
    print(json.dumps({"found": found, "artifact": name}))
"""


def _run(hash_seed: str) -> dict:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-c", _SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return json.loads(done.stdout)


def test_default_miner_rng_and_artifact_name_ignore_hash_salt():
    first, second = _run("1"), _run("2")
    assert len(first["found"]) == 3
    assert first == second
