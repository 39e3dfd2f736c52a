"""Self-tests for the fuzzing harness: determinism, shrinking, replay."""

from __future__ import annotations

import json

import pytest

from repro.fuzz import (
    ENGINES,
    FuzzFailure,
    load_artifact,
    replay_artifact,
    run_fuzz,
    shrink,
    write_artifact,
)
from repro.fuzz.engines import Engine
from repro.fuzz.gen import MUTATION_OPS, mutate, rng_from
from repro.fuzz.runner import _wrap_check


class TestDeterminism:
    def test_rng_from_is_stable_across_processes(self):
        # String seeding hashes through SHA-512 inside random, not
        # hash(), so the stream cannot depend on PYTHONHASHSEED.
        assert rng_from("draw", 0, "codec", 7).getrandbits(64) \
            == rng_from("draw", 0, "codec", 7).getrandbits(64)
        assert rng_from("draw", 0, "codec", 7).getrandbits(64) \
            != rng_from("draw", 0, "codec", 8).getrandbits(64)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_draws_are_reproducible(self, name):
        engine = ENGINES[name]
        first = [engine.draw(rng_from("d", 3, name, i)) for i in range(20)]
        second = [engine.draw(rng_from("d", 3, name, i)) for i in range(20)]
        assert first == second

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_params_are_json_serializable(self, name):
        engine = ENGINES[name]
        for index in range(20):
            params = engine.draw(rng_from("j", 1, name, index))
            assert json.loads(json.dumps(params)) == params

    def test_same_seed_same_campaign(self):
        a = run_fuzz(seed=42, cases=30, corpus_dir=None)
        b = run_fuzz(seed=42, cases=30, corpus_dir=None)
        assert a.per_engine == b.per_engine
        assert [str(f) for f in a.failures] == [str(f) for f in b.failures]

    def test_every_decoder_gets_hostile_bytes(self):
        # The mutation check hands each corrupted blob to these; a
        # decoder the codec exports and the list lacks is never fuzzed.
        import repro.codec as codec
        from repro.fuzz.engines import _DECODERS
        exported = {name for name in dir(codec)
                    if name.startswith("decode_")}
        assert exported <= {decoder.__name__ for decoder in _DECODERS}

    def test_mutate_is_deterministic(self):
        blob = bytes(range(64))
        assert mutate(blob, rng_from("m", 1), 4) \
            == mutate(blob, rng_from("m", 1), 4)
        assert mutate(blob, rng_from("m", 1), 4) != blob
        assert set(MUTATION_OPS) >= {"bitflip", "truncate", "splice"}


class _ThresholdEngine(Engine):
    """Fails whenever n >= 10; used to exercise the shrinker."""

    name = "threshold"
    shrink_floors = {"n": 0, "extra": 0}

    def draw(self, rng):
        return {"n": rng.randint(0, 1000), "extra": rng.randint(0, 1000)}

    def check(self, params):
        if params["n"] >= 10:
            return self.fail("too-big", f"n={params['n']}", params)
        return None


class TestShrinker:
    def test_shrinks_to_the_boundary(self):
        engine = _ThresholdEngine()
        failure = engine.check({"n": 937, "extra": 512})
        minimized, rounds = shrink(engine, failure)
        assert minimized.check == "too-big"
        assert 10 <= minimized.params["n"] <= 16  # halving granularity
        assert minimized.params["extra"] == 0    # irrelevant knob zeroed
        assert rounds >= 1

    def test_preserves_the_original_check(self):
        engine = _ThresholdEngine()
        failure = FuzzFailure(engine="threshold", check="other-bug",
                              detail="", params={"n": 900, "extra": 3})
        minimized, _ = shrink(engine, failure)
        # Candidates all reproduce "too-big", never "other-bug", so
        # nothing is accepted and the original failure survives intact.
        assert minimized.params == failure.params


class TestArtifacts:
    def test_write_load_replay_roundtrip(self, tmp_path):
        failure = FuzzFailure(
            engine="codec", check="tx-roundtrip", detail="synthetic",
            params={"kind": "transaction", "seed": 11, "n": 3})
        path = write_artifact(failure, tmp_path, note="self-test")
        payload = load_artifact(path)
        assert payload["params"] == failure.params
        assert payload["note"] == "self-test"
        assert replay_artifact(path) is None  # healthy code: no failure

    def test_unknown_engine_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"engine": "nope", "params": {}}))
        with pytest.raises(ValueError, match="unknown engine"):
            load_artifact(path)

    def test_unhandled_exceptions_become_findings(self):
        class Boom(Engine):
            name = "codec"  # reuse a registered name for the wrapper

            def check(self, params):
                raise RuntimeError("kaboom")

        failure = _wrap_check(Boom(), {"x": 1})
        assert failure is not None
        assert failure.check == "unhandled:RuntimeError"
        assert "kaboom" in failure.detail


class TestRunner:
    def test_budget_and_engine_selection(self):
        stats = run_fuzz(seed=1, cases=20, engines=["codec"],
                         corpus_dir=None)
        assert set(stats.per_engine) == {"codec"}
        assert stats.cases_run == 20
        assert stats.ok
        assert "codec:20" in stats.summary()

    def test_engine_costs_scale_quotas(self):
        stats = run_fuzz(seed=1, cases=50, engines=["pds"],
                         corpus_dir=None)
        assert stats.per_engine["pds"] == 50 // ENGINES["pds"].cost

    def test_unknown_engine_name_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_fuzz(seed=0, cases=1, engines=["quantum"])

    def test_failures_write_minimized_artifacts(self, tmp_path,
                                                monkeypatch):
        # Revert the bloom-load restore in-process: the codec engine
        # must catch it, shrink it, and archive a replayable artifact.
        import repro.codec as codec
        monkeypatch.setattr(codec, "restore_bloom_load",
                            lambda bloom, count: bloom)
        stats = run_fuzz(seed=0, cases=150, engines=["codec"],
                         corpus_dir=tmp_path)
        assert not stats.ok
        checks = {f.check for f in stats.failures}
        assert checks & {"p1-bloom-s-count", "p2-bloom-r-count",
                         "p1-bloom-s-actual-fpr", "p2-bloom-r-actual-fpr"}
        assert stats.artifacts
        monkeypatch.undo()
        for path in stats.artifacts:
            assert replay_artifact(path) is None  # fixed again -> clean
