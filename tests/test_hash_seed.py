"""Seeds and names derived from strings are the same in every process.

Python salts ``hash()`` of a ``str`` per process (``PYTHONHASHSEED``),
so a seed or a file name taken from it changes from one run to the
next.  Both sites below use a stable digest instead.
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
    from repro.net.mining import MinerNode
    from repro.net.simulator import Simulator

    sim = Simulator()
    miner = MinerNode("m", sim, hashrate_share=1.0, block_interval=10.0)
    miner.start_mining()
    while len(miner.mined) < 3:
        sim.run(max_events=1)
    miner.stop_mining()
    sim.run()
    found = [miner.block_arrival[block.header.merkle_root]
             for block in miner.mined]
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
