"""The census gate (``scripts/census.py --check``): the committed table
covers every ``src/repro`` function, every root exited 0, no reached or
referenced row has lost its last caller, a test-only one must be
named in DESIGN.md section 1, and a new knob needs a live setter."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load_census():
    spec = importlib.util.spec_from_file_location(
        "census", REPO / "scripts" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _load_census()


@pytest.fixture
def tree(tmp_path):
    """A copy of what the gate reads: ``src/repro``, the live code under
    ``scripts/``, ``benchmarks/`` and ``examples/``, the table, DESIGN.md
    and the Makefile."""
    for folder in ("src/repro", "scripts", "benchmarks", "examples"):
        shutil.copytree(REPO / folder, tmp_path / folder,
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "results", "*.json"))
    (tmp_path / "docs").mkdir()
    for name in (census.TABLE, Path("DESIGN.md"), Path("Makefile")):
        shutil.copy(REPO / name, tmp_path / name)
    return tmp_path


def test_committed_table_passes():
    assert census.check(REPO) == []


def test_a_planted_function_is_unclassified(tree):
    module = tree / "src" / "repro" / "chain" / "ordering.py"
    module.write_text(module.read_text()
                      + "\n\ndef planted_helper():\n    return 1\n")
    problems = census.check(tree)
    assert len(problems) == 1
    assert problems[0].startswith("chain/ordering.py::planted_helper: "
                                  "not in docs/CENSUS.md")


def test_a_test_only_row_needs_a_design_entry(tree):
    key = "chain/scenarios.py::mempool_multiple_to_extra"
    table = tree / census.TABLE
    text = table.read_text()
    row = next(line for line in text.splitlines() if f"`{key}`" in line)
    table.write_text(text.replace(
        row, row.replace("| reached |", "| test-only |")))
    problems = census.check(tree)
    assert len(problems) == 1
    assert problems[0].startswith(f"{key}: test-only, and DESIGN.md §1 "
                                  "does not name it")

    # Naming it in section 1 is one of the three ways out.
    design = tree / "DESIGN.md"
    design.write_text(design.read_text().replace(
        "### 1.1", "`mempool_multiple_to_extra`: §5, Fig. 14.\n\n### 1.1",
        1))
    assert census.check(tree) == []


def test_a_ci_stage_must_be_a_root(tree):
    makefile = tree / "Makefile"
    makefile.write_text(makefile.read_text().replace(
        "\tsmoke-socket smoke-mesh", "\tsmoke-socket smoke-planted smoke-mesh",
        1))
    problems = census.check(tree)
    assert problems == ["make ci stage 'smoke-planted' is not a root of "
                        "docs/CENSUS.md (run `make census`)"]


def test_a_root_must_exit_clean(tree):
    table = tree / census.TABLE
    text = table.read_text()
    table.write_text(text.replace("| `perf-check` | 0 |",
                                  "| `perf-check` | 2 |", 1))
    problems = census.check(tree)
    assert len(problems) == 1
    assert problems[0].startswith("root 'perf-check' exited 2")


def test_a_row_whose_last_caller_is_deleted_fails(tree):
    # The committed table still says reached / referenced; the static
    # half finds neither named by live code once the one example that
    # measures decode rates is gone and `repro trace` no longer exports
    # spans.
    (tree / "examples" / "iblt_tuning.py").unlink()
    cli = tree / "src" / "repro" / "cli.py"
    cli.write_text(cli.read_text().replace(
        "tracer.to_jsonl(kind=args.kind)", "''"))
    problems = census.check(tree)
    for key, status in (
            ("pds/param_search.py::measure_decode_rate", "reached"),
            ("obs/trace.py::Tracer.to_jsonl", "referenced")):
        assert (f"{key}: {status} in docs/CENSUS.md, but no live code "
                "names it any more (run `make census`)") in problems


def _plant_knob(tree):
    """Give ``ordering_info_bytes`` a defaulted parameter; its key."""
    module = tree / "src" / "repro" / "chain" / "ordering.py"
    text = module.read_text()
    assert "def ordering_info_bytes(n: int) -> int:" in text
    module.write_text(text.replace(
        "def ordering_info_bytes(n: int) -> int:",
        "def ordering_info_bytes(n: int, planted: int = 0) -> int:"))
    return "chain/ordering.py::ordering_info_bytes(planted=)"


def test_a_planted_knob_that_nothing_sets_fails(tree):
    key = _plant_knob(tree)
    assert census.knobs(tree)[key] == "nothing"
    assert census.check(tree) == [
        f"{key}: a knob that nothing sets -- make it a constant, delete "
        "it, or give it a live caller"]


def test_the_same_knob_set_from_a_script_passes(tree):
    key = _plant_knob(tree)
    (tree / "scripts" / "planted.py").write_text(
        "from repro.chain.ordering import ordering_info_bytes\n\n"
        "ordering_info_bytes(3, planted=1)\n")
    assert census.knobs(tree)[key] == "scripts/planted.py"
    assert census.check(tree) == []


def test_a_knob_set_only_through_a_forwarding_parameter():
    # run_propagation_scenario passes its own ``loss`` on, so the link
    # model's one field is set wherever that parameter is: the CLI.
    setters = census.knobs(REPO)
    assert setters["obs/scenario.py::run_propagation_scenario(loss=)"] \
        == "src/repro/cli.py"
    assert setters["net/topology.py::GeoLinkModel.loss_rate"] \
        == "src/repro/cli.py"


PLANTED = '''\
def reached(x):
    def helper():
        return x
    if x:
        return 1
    raise ValueError(x)


def never():
    return 2
'''


def test_unexecuted_lines_of_reached_functions(tmp_path):
    # Lines 1-6 carry bytecode in ``reached`` (its nested ``helper``
    # folded in); the dump ran 1, 2, 4 and 5, plus the module-level
    # ``def never`` on line 9, which is no reached function's line.
    src = tmp_path / "repro"
    (src / "pkg").mkdir(parents=True)
    module = src / "pkg" / "planted.py"
    module.write_text(PLANTED)
    (src / "pkg" / "idle.py").write_text("def idle():\n    return 0\n")
    dump = "\n".join(f"{module}\t{line}" for line in (1, 2, 4, 5, 9))
    executed = census.read_lines(dump, src)
    assert executed == {"pkg/planted.py": {1, 2, 4, 5, 9}}
    assert census.unexecuted(src, {"pkg/planted.py::reached"},
                             executed) == {"pkg/planted.py": (6, 2)}
    # Reaching ``never`` too adds its lines: 2 + 1 of them unrun.
    assert census.unexecuted(
        src, {"pkg/planted.py::reached", "pkg/planted.py::never"},
        executed) == {"pkg/planted.py": (8, 3)}
