"""The fuzz campaign driver: budgets, artifacts, replay.

:func:`run_fuzz` drives the engines in :data:`~repro.fuzz.engines.ENGINES`
under a case budget and a wall-clock budget.  Every case is derived from
``(campaign seed, engine name, case index)`` through the string-seeded
PRNG in :mod:`repro.fuzz.gen`, so a campaign is reproducible from its
seed alone and each engine's stream is independent of the others.

Failures are minimized by :func:`repro.fuzz.shrink.shrink` and written
as JSON **artifacts** -- ``{engine, check, detail, params}`` -- into the
corpus directory (``tests/corpus/`` in this repo).  An artifact replays
with :func:`replay_artifact`, which re-derives the exact failing case
from its parameters; the corpus is replayed as pytest regressions in
``tests/test_fuzz_corpus.py``, so every bug the fuzzer ever caught
stays caught.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from repro.fuzz.engines import ENGINES, Engine, FuzzFailure
from repro.fuzz.gen import rng_from
from repro.fuzz.shrink import shrink

#: Default artifact directory, relative to the repository root.
DEFAULT_CORPUS = Path("tests") / "corpus"


@dataclass
class FuzzStats:
    """Outcome of one campaign."""

    seed: int
    cases_run: int = 0
    elapsed: float = 0.0
    per_engine: dict = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        engines = ", ".join(f"{name}:{count}"
                            for name, count in sorted(self.per_engine.items()))
        verdict = ("ok" if self.ok
                   else f"{len(self.failures)} FAILURE(S)")
        return (f"fuzz seed={self.seed} cases={self.cases_run} "
                f"({engines}) in {self.elapsed:.1f}s -> {verdict}")


def _wrap_check(engine: Engine, params: dict) -> Optional[FuzzFailure]:
    """Run one check; unexpected exceptions become findings too."""
    try:
        return engine.check(params)
    except Exception as exc:  # noqa: BLE001 -- converting to a finding
        return FuzzFailure(engine=engine.name,
                           check=f"unhandled:{type(exc).__name__}",
                           detail=str(exc)[:300], params=dict(params))


def write_artifact(failure: FuzzFailure, corpus_dir: Path,
                   note: str = "") -> Path:
    """Persist one minimized failure as a replayable JSON artifact."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    # crc32, not the salted hash(), so a finding keeps its name across
    # processes.
    digest = zlib.crc32(
        json.dumps(failure.params, sort_keys=True).encode()) % 10 ** 8
    name = f"{failure.engine}-{failure.check.replace(':', '_')}-{digest:08d}"
    path = corpus_dir / f"{name}.json"
    payload = {"engine": failure.engine, "check": failure.check,
               "detail": failure.detail, "params": failure.params}
    if note:
        payload["note"] = note
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path) -> dict:
    """Read one artifact; raises ValueError on malformed files."""
    payload = json.loads(Path(path).read_text())
    for key in ("engine", "params"):
        if key not in payload:
            raise ValueError(f"artifact {path} missing key {key!r}")
    if payload["engine"] not in ENGINES:
        raise ValueError(f"artifact {path} names unknown engine "
                         f"{payload['engine']!r}")
    return payload


def replay_artifact(path) -> Optional[FuzzFailure]:
    """Re-run one archived case; None means the bug stays fixed."""
    payload = load_artifact(path)
    engine = ENGINES[payload["engine"]]
    return _wrap_check(engine, payload["params"])


def run_fuzz(seed: int = 0, cases: int = 200,
             budget: Optional[float] = None,
             engines: Optional[List[str]] = None,
             corpus_dir: Optional[Path] = DEFAULT_CORPUS,
             max_failures: int = 5,
             log: Optional[Callable[[str], None]] = None) -> FuzzStats:
    """Run a deterministic fuzzing campaign.

    ``cases`` is the budget for a cost-1 engine; an engine with cost
    ``c`` runs ``max(1, cases // c)`` cases so expensive engines (relay
    simulations) do not starve cheap ones (codec round-trips) of wall
    clock.  ``budget`` (seconds) additionally caps the whole campaign.
    ``corpus_dir=None`` disables artifact writing (replay/smoke mode).
    The campaign stops early after ``max_failures`` distinct findings.
    """
    t0 = time.monotonic()
    chosen = engines or sorted(ENGINES)
    unknown = [name for name in chosen if name not in ENGINES]
    if unknown:
        raise ValueError(f"unknown engine(s): {', '.join(unknown)}")
    stats = FuzzStats(seed=seed)
    seen_checks = set()
    for name in chosen:
        engine = ENGINES[name]
        quota = max(1, cases // engine.cost)
        done = 0
        for index in range(quota):
            if budget is not None and time.monotonic() - t0 > budget:
                break
            if len(stats.failures) >= max_failures:
                break
            params = engine.draw(rng_from("draw", seed, name, index))
            failure = _wrap_check(engine, params)
            done += 1
            if failure is None:
                continue
            key = (failure.engine, failure.check)
            if key in seen_checks:
                continue  # one artifact per distinct check
            seen_checks.add(key)
            minimized, _ = shrink(engine, failure,
                                  max_rounds=max(2, 32 // engine.cost))
            stats.failures.append(minimized)
            if log:
                log(f"FAILURE {minimized}")
            if corpus_dir is not None:
                path = write_artifact(minimized, Path(corpus_dir))
                stats.artifacts.append(str(path))
                if log:
                    log(f"  artifact -> {path}")
        stats.per_engine[name] = done
        stats.cases_run += done
        if log:
            log(f"engine {name}: {done}/{quota} cases")
    stats.elapsed = time.monotonic() - t0
    return stats
