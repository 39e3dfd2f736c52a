"""Smoke test of the relay benchmark: the spec files and a --quick run.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/e2e/test_e2e_smoke.py``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = json.loads((HERE / "metrics.json").read_text())


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for spec in BENCHMARK["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
        names.append(spec["name"])
    for spec in BENCHMARK["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
        names.append(spec["name"])
    for spec in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(spec["unit"]), spec
        assert spec["better"] in ("lower", "higher"), spec
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [spec for spec in BENCHMARK["end_to_end"]
             if spec["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(spec["bound"]
                                    for spec in BENCHMARK["end_to_end"])


def test_workloads_match_the_table():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_every_layer_metric_says_what_it_should_move():
    end_to_end = {spec["name"] for spec in BENCHMARK["end_to_end"]}
    by_name = {layer["name"]: layer for layer in METRICS["per_layer"]}
    assert list(by_name) == [spec["name"] for spec in BENCHMARK["per_layer"]]
    for spec in BENCHMARK["per_layer"]:
        layer = by_name[spec["name"]]
        assert (layer["unit"], layer["better"]) == (spec["unit"],
                                                    spec["better"])
        if layer.get("diagnostic"):
            continue  # describes the measurement itself, not a layer
        assert layer["moves"], f"{layer['name']} predicts nothing"
        for move in layer["moves"]:
            assert move["workload"] in WORKLOADS, move
            assert move["metric"] in end_to_end | {"relay_p90_ms"}, move
    assert set(METRICS["exact"]) <= end_to_end
    assert METRICS["seeds"]["default"] != METRICS["seeds"]["held_out"]


def test_replay_survives_a_key_peeled_twice():
    """The bare pds/core functions raise where the engines give up; a
    replay that trips must count a skip, not take the worker down.
    Scenario seed (2 << 20) + 710 trips the replay's hash family while
    the live relay under the program's own family completes."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.chain.scenarios import make_block_scenario
    from repro.core.engine import (ActionKind, GrapheneReceiverEngine,
                                   GrapheneSenderEngine)
    from repro.core.params import GrapheneConfig

    from loopback import pump_traced
    from replay import Replayer
    from tracing import Trace

    workload = WORKLOADS["rateless_p3_2000"]
    config = GrapheneConfig(protocol=workload.protocol)
    scenario = make_block_scenario(workload.n, workload.extra,
                                   workload.fraction, seed=(2 << 20) + 710)
    trace = Trace()
    replayer = Replayer(trace, config)
    final, steps, _ = pump_traced(
        trace, 0, GrapheneSenderEngine(scenario.block, config),
        GrapheneReceiverEngine(scenario.receiver_mempool, config))
    assert final.kind is ActionKind.DONE
    replayer.relay(0, steps, scenario.block, scenario.receiver_mempool, {})
    assert replayer.skipped == 1
    assert all(span[2] >= span[1] for span in trace.spans)  # all closed


def test_quick_run_checks_every_oracle():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    written = re.search(r"wrote (\S+\.json)", done.stdout)
    assert written, done.stdout
    result = json.loads((ROOT / written.group(1)).read_text())
    assert "not a real link" in done.stdout
    assert list(result["workloads"]) == list(WORKLOADS)
    for name, entry in result["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] > 0, name
        for spec in BENCHMARK["end_to_end"]:
            assert entry["end_to_end"][0][spec["name"]] > 0, (name, spec)
        assert set(entry["per_layer"]) == {
            spec["name"] for spec in BENCHMARK["per_layer"]}, name
        assert (HERE / "results" / f"trace-{name}.jsonl").stat().st_size
