#!/usr/bin/env python
"""A call census of every ``src/repro`` function against the program's roots.

The roots are the stages of ``make ci`` other than the tier-1 tests:
the perf and figure gates, the smoke runs, the CLI and example runs,
the fuzz smoke, the docs check and the end-to-end benchmark smoke (see
:func:`roots`).  ``perf-net`` stands in at 100 nodes and 4 blocks,
since its 1000-node case walks the same code for two minutes, and
``perf-check`` / ``perf-relay`` run their suites with the wall-clock
comparison off (``--threshold inf``), which the tracing overhead
would trip.  Every root must exit 0.

``make census`` runs each root as ``make <stage>`` with a
``sitecustomize`` module first on ``PYTHONPATH``, so every Python
process a stage starts -- the ``repro serve`` / ``peer`` subprocesses
of the socket smokes included -- records the code objects it calls
(``sys.settrace`` call events; no line tracing) and dumps them at exit.
To the functions reached it adds those referenced by name from live
code: module-level code under ``src/``, anything under ``scripts/``,
``benchmarks/`` and ``examples/`` that is not a test, and the bodies
of functions already live, to a fixpoint.  That keeps dispatch by
name, error and recovery branches no root happened to take, and the
wrappers a script calls.
Every other function is *test-only*, and the generated table
``docs/CENSUS.md`` says which.

``--check`` is the static gate ``make docs-check`` runs (no root is
executed): it fails when a ``src/repro`` function is missing from the
table or a row names one that no longer exists (re-run ``make census``),
when a ``make ci`` stage is not a root here or a root exited nonzero,
when a row marked reached or referenced is no longer live by the
static half alone (its last caller was deleted: re-run ``make
census``), or when a test-only function is not named in DESIGN.md
section 1 with the paper section it reproduces and the CI-run figure
or example that exercises it.  What it cannot see is a function whose
last *root* stopped calling it while live code still names it; only
``make census`` finds that.

Usage::

    python scripts/census.py            # run the roots, rewrite the table
    python scripts/census.py --check    # the static gate
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TABLE = Path("docs") / "CENSUS.md"
#: Hook, dumps and one log per root, rewritten by every run.
WORK = Path("results") / "census"

#: ``make ci`` stages that do not run as themselves: the tier-1 tests
#: are not a root, ``perf-net``'s 1000-node case is replaced by a small
#: run of the same driver, the wall-clock gates compare nothing
#: (traced, they run several times slower than their baselines), and
#: ``docs-check`` leaves out its last step, this script's ``--check``,
#: which calls no ``src/repro`` code and would judge the table being
#: rewritten.  Each stand-in is a list of interpreter argument lists,
#: run in turn.
NOT_ROOTS = ("test",)
STAND_INS = {
    "docs-check": [("scripts/check_docs_snippets.py",)],
    "perf-check": [("scripts/check_perf.py", "--threshold", "inf")],
    "perf-relay": [("scripts/check_perf.py", "--suite", "relay",
                    "--threshold", "inf"),
                   ("benchmarks/profile_relay.py", "--check")],
    "perf-net": [("-c", "import bench_net; bench_net.bench_propagation("
                        "100, 4, interval=1.0, block_txns=16)")],
}

#: Parallel roots.  The stages are single-threaded; two fit this
#: budget without starving the socket smokes' timers.
WORKERS = 2

STATUSES = ("reached", "referenced", "test-only")

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_codes = {}
_src = os.environ["REPRO_CENSUS_SRC"]
_out = os.environ["REPRO_CENSUS_OUT"]


def _call(frame, event, arg):
    code = frame.f_code
    _codes[id(code)] = code


def _dump():
    # Stop tracing first: traced, the dump's own calls would grow
    # _codes while it is being read, and the process would lose all.
    sys.settrace(None)
    threading.settrace(None)
    names = {f"{code.co_filename}\\t{code.co_qualname}"
             for code in list(_codes.values())
             if code.co_filename.startswith(_src)}
    with open(os.path.join(_out, f"{os.getpid()}.hits"), "w") as handle:
        handle.write("\\n".join(sorted(names)))


atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''


# ---------------------------------------------------------------------------
# What exists, and the names live code references
# ---------------------------------------------------------------------------

_BLOCKS = ("body", "orelse", "finalbody", "handlers")


def _parse(src: Path) -> tuple:
    """``(functions, bodies, tops)`` of ``src``: ``"path::Qual.name" ->
    lines`` for every module-level function and method (nested classes
    included, nested functions folded into their parent; path relative
    to ``src``), the def node of each, and ``path -> nodes`` of the code
    outside any def, which runs whenever its module is used."""
    functions: dict = {}
    bodies: dict = {}
    tops: dict = {}

    def visit(body, prefix, rel, top):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno
                                             for d in node.decorator_list])
                key = f"{rel}::{prefix}{node.name}"
                functions[key] = (functions.get(key, 0)
                                  + node.end_lineno - first + 1)
                bodies.setdefault(key, []).append(node)
                # A called decorator (``@_model("xthin")``) runs with the
                # module and is handed the function to register: that
                # names it.
                calls = [d for d in node.decorator_list
                         if isinstance(d, ast.Call)]
                if calls:
                    top.extend(calls)
                    top.append(ast.Name(id=node.name, ctx=ast.Load()))
            elif isinstance(node, ast.ClassDef):
                top.extend([*node.bases, *node.keywords,
                            *node.decorator_list])
                visit(node.body, f"{prefix}{node.name}.", rel, top)
            elif any(getattr(node, field, None) for field in _BLOCKS):
                # if / for / while / with / try / except: the header's
                # expressions run, and the blocks are visited in turn.
                top.extend(child for child in ast.iter_child_nodes(node)
                           if not isinstance(child, (ast.stmt,
                                                     ast.excepthandler)))
                for field in _BLOCKS:
                    visit(getattr(node, field, ()), prefix, rel, top)
            else:
                top.append(node)

    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        tops[rel] = []
        visit(ast.parse(path.read_text(), str(path)).body, "", rel,
              tops[rel])
    return functions, bodies, tops


def src_functions(src: Path) -> dict:
    """``"path::Qual.name" -> lines`` for every function under ``src``."""
    return _parse(src)[0]


def owner(key: str):
    """The class key of a method key (``None`` for a function)."""
    return key.rsplit(".", 1)[0] if "." in key.rsplit("::", 1)[1] else None


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _names(nodes) -> tuple:
    """``(names, prefixes, suffixes)`` referenced by ``nodes``: every
    ``Name`` and attribute, identifier-shaped string constants (dispatch
    tables, ``getattr`` by string), and the fixed ends of f-strings
    passed to ``getattr``.  Imports and ``__all__`` are not uses."""
    names, prefixes, suffixes = set(), set(), set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENT.match(node.value):
                names.add(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], (ast.JoinedStr, ast.BinOp))):
            first, last = _ends(node.args[1])
            if isinstance(first, ast.Constant):
                prefixes.add(first.value)
            if isinstance(last, ast.Constant):
                suffixes.add(last.value)
        stack.extend(ast.iter_child_nodes(node))
    return names, prefixes, suffixes


def _ends(node) -> tuple:
    """The first and last piece of a string built by an f-string or by
    ``+`` (``"_check_" + kind``)."""
    if isinstance(node, ast.JoinedStr):
        return node.values[0], node.values[-1]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _ends(node.left)[0], _ends(node.right)[1]
    return node, node


def _live_files(repo: Path) -> dict:
    """``path -> [module]`` for every non-test file under ``scripts/``,
    ``benchmarks/`` and ``examples/`` (``make docs-check`` runs each
    example), all of whose code counts as live."""
    live = {}
    for folder in ("scripts", "benchmarks", "examples"):
        for path in sorted((repo / folder).rglob("*.py")):
            # This script names code without calling it.
            if (path.name.startswith("test_") or path.name == "conftest.py"
                    or path.name == Path(__file__).name):
                continue
            live[path.relative_to(repo).as_posix()] = [
                ast.parse(path.read_text(), str(path))]
    return live


def classify(src: Path, reached: set) -> dict:
    """``key -> (status, by)`` for every function: ``reached`` (by the
    given keys), ``referenced`` (``by`` names the first live referrer)
    or ``test-only``.  A method counts as referenced only while its
    class is live (named by live code, or one of its methods reached);
    a dunder method, which the language calls, whenever it is."""
    functions, bodies, tops = _parse(src)
    live = {f"src/repro/{rel}": nodes for rel, nodes in tops.items()}
    live.update(_live_files(src.parent.parent))
    referrer: dict = {}
    prefixes: dict = {}
    suffixes: dict = {}
    live_classes = {owner(key) for key in reached}

    def take(label, nodes):
        names, pre, suf = _names(nodes)
        for name in names:
            referrer.setdefault(name, label)
        for fix in pre:
            prefixes.setdefault(fix, label)
        for fix in suf:
            suffixes.setdefault(fix, label)

    def referenced_by(key):
        cls = owner(key)
        name = key.rsplit(".", 1)[-1] if cls else key.rsplit("::", 1)[1]
        if cls is not None:
            cls_name = cls.rsplit("::", 1)[1].rsplit(".", 1)[-1]
            if cls not in live_classes and cls_name not in referrer:
                return None
            if name.startswith("__") and name.endswith("__"):
                return referrer.get(cls_name, "a live method")
        if name in referrer:
            return referrer[name]
        for fix, label in prefixes.items():
            if fix and name.startswith(fix):
                return label
        for fix, label in suffixes.items():
            if fix and name.endswith(fix):
                return label
        return None

    for label, nodes in live.items():
        take(label, nodes)
    status = {}
    for key in functions:
        if key in reached:
            status[key] = ("reached", "")
            take(key, bodies.get(key, ()))
    changed = True
    while changed:
        changed = False
        for key in functions:
            if key in status:
                continue
            by = referenced_by(key)
            if by is not None:
                status[key] = ("referenced", by)
                live_classes.add(owner(key))
                take(key, bodies.get(key, ()))
                changed = True
    return {key: status.get(key, ("test-only", "")) for key in functions}


# ---------------------------------------------------------------------------
# The dynamic pass: run the roots under the call hook
# ---------------------------------------------------------------------------

def ci_stages(makefile: Path) -> list:
    """The prerequisites of the Makefile's ``ci`` target, in order."""
    text = makefile.read_text().replace("\\\n", " ")
    match = re.search(r"^ci:(.*)$", text, re.M)
    return match.group(1).split() if match else []


def roots(repo: Path) -> dict:
    """``name -> [argv]`` for every root: a ``make ci`` stage, or its
    stand-in's commands (run with ``benchmarks/`` importable)."""
    out = {}
    for stage in ci_stages(repo / "Makefile"):
        if stage in NOT_ROOTS:
            continue
        if stage in STAND_INS:
            out[stage] = [(sys.executable, *args)
                          for args in STAND_INS[stage]]
        else:
            out[stage] = [("make", "-s", "--no-print-directory", stage,
                           f"PYTHON={sys.executable}")]
    return out


def run_roots(repo: Path, work: Path) -> tuple:
    """Run every root under the hook, its output in ``work/<root>.log``;
    ``(hits per root, exit codes)`` where hits are ``"path::Qual.name"``
    keys."""
    shutil.rmtree(work, ignore_errors=True)
    hook = work / "hook"
    hook.mkdir(parents=True)
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
    src = repo / "src" / "repro"

    def run(item):
        name, argvs = item
        out = work / name
        out.mkdir()
        env = dict(os.environ,
                   REPRO_CENSUS_SRC=str(src) + os.sep,
                   REPRO_CENSUS_OUT=str(out),
                   PYTHONPATH=os.pathsep.join(
                       [str(hook), str(repo / "src"),
                        str(repo / "benchmarks")]))
        started = time.perf_counter()
        code = 0
        with open(work / f"{name}.log", "w") as log:
            for argv in argvs:
                if argv[0] == "make":
                    # A command-line variable outranks the Makefile's
                    # export.
                    argv = (*argv, f"PYTHONPATH={env['PYTHONPATH']}")
                code = subprocess.call(argv, cwd=repo, env=env, stdout=log,
                                       stderr=subprocess.STDOUT)
                if code:
                    break
        took = time.perf_counter() - started
        hits = set()
        for dump in out.glob("*.hits"):
            for line in dump.read_text().splitlines():
                filename, qualname = line.split("\t")
                rel = Path(filename).relative_to(src).as_posix()
                hits.add(f"{rel}::{qualname.split('.<locals>')[0]}")
        print(f"  {name:14s} exit {code}  {took:6.1f}s  "
              f"{len(hits):5d} functions", flush=True)
        return name, hits, code

    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(run, roots(repo).items()))
    return ({name: hits for name, hits, _ in results},
            {name: code for name, _, code in results})


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

_ROW = re.compile(r"^\| `([^`]+)` \| \d+ \| ([a-z-]+) \| .* \|$", re.M)
_ROOT = re.compile(r"^\| `([a-z0-9-]+)` \| (-?\d+) \| \d+ \|$", re.M)


def render(classes: dict, lines: dict, hits: dict, codes: dict) -> str:
    counts = Counter(status for status, _ in classes.values())
    sizes = {s: sum(lines[k] for k, (st, _) in classes.items() if st == s)
             for s in STATUSES}
    out = [
        "# Census: what the program's roots reach",
        "",
        "Generated by `scripts/census.py` (`make census`); do not edit.",
        "`make docs-check` runs `scripts/census.py --check`, which fails "
        "on a `src/repro` function missing from this table, on a root "
        "that exited nonzero, on a reached or referenced row that no "
        "live code names any more, and on a test-only row that "
        "DESIGN.md §1 does not name.",
        "",
        "A function is *reached* when a root calls it, *referenced* when "
        "live code names it (the first such referrer is given), and "
        "*test-only* otherwise.  A root's exit code is its exit under "
        "the call hook; the wall-clock gates run there with their "
        "comparison off, so a root that stopped early did not reach "
        "everything it calls.",
        "",
        "| root | exit | functions reached |",
        "|---|---|---|",
    ]
    out += [f"| `{name}` | {codes[name]} | {len(hits[name])} |"
            for name in hits]
    out += ["", "| status | functions | lines |", "|---|---|---|"]
    out += [f"| {s} | {counts[s]} | {sizes[s]} |" for s in STATUSES]
    out += ["", "| function | lines | status | by |", "|---|---|---|---|"]
    for key in sorted(classes):
        status, by = classes[key]
        if status == "reached":
            by = f"{sum(1 for h in hits.values() if key in h)} roots"
        elif status == "test-only":
            by = "DESIGN.md §1"
        out.append(f"| `{key}` | {lines[key]} | {status} | {by} |")
    return "\n".join(out) + "\n"


def read_table(path: Path) -> dict:
    """``key -> status`` of every function row of a generated table."""
    return dict(_ROW.findall(path.read_text()))


def read_roots(path: Path) -> dict:
    """``name -> exit code`` of every root of a generated table."""
    return {name: int(code) for name, code in _ROOT.findall(path.read_text())}


def design_section_1(design: Path) -> str:
    text = design.read_text()
    start = text.find("\n## 1.")
    end = text.find("\n## 2.", start)
    return text[start:end]


def check(repo: Path) -> list:
    """Problems with the committed table; empty when the gate passes."""
    problems = []
    table = read_table(repo / TABLE)
    functions = src_functions(repo / "src" / "repro")
    for key in sorted(set(functions) - set(table)):
        problems.append(f"{key}: not in {TABLE} (run `make census`)")
    for key in sorted(set(table) - set(functions)):
        problems.append(f"{key}: in {TABLE} but gone from src/repro "
                        "(run `make census`)")
    known = read_roots(repo / TABLE)
    for stage in ci_stages(repo / "Makefile"):
        if stage not in NOT_ROOTS and stage not in known:
            problems.append(f"make ci stage {stage!r} is not a root of "
                            f"{TABLE} (run `make census`)")
    for name, code in known.items():
        if code != 0:
            problems.append(f"root {name!r} exited {code} under the call "
                            f"hook, so its reach is incomplete (see "
                            f"{WORK}/{name}.log, then run `make census`)")
    # A root reaches a function through code that names it, so a row
    # the static half alone no longer finds live has lost its last
    # caller, whatever the committed table says.
    static = classify(repo / "src" / "repro", set())
    for key, status in sorted(table.items()):
        if status != "test-only" and static.get(key, ("",))[0] == "test-only":
            problems.append(f"{key}: {status} in {TABLE}, but no live code "
                            "names it any more (run `make census`)")
    section = design_section_1(repo / "DESIGN.md")
    for key, status in sorted(table.items()):
        if status != "test-only" or key not in functions:
            continue
        qual = key.rsplit("::", 1)[1]
        if f"`{qual}`" not in section and f"`{key}`" not in section:
            problems.append(
                f"{key}: test-only, and DESIGN.md §1 does not name it -- "
                "delete it, give it a root, or say there which paper "
                "section it reproduces and which CI-run figure or example "
                "exercises it")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="static gate only: table complete, roots "
                             "clean, no row lost its last caller, "
                             "test-only rows named in DESIGN.md section 1")
    args = parser.parse_args(argv)
    if args.check:
        started = time.perf_counter()
        problems = check(REPO)
        for problem in problems:
            print(f"CENSUS: {problem}", file=sys.stderr)
        print(f"census check: {len(read_table(REPO / TABLE))} functions, "
              f"{len(problems)} problem(s) "
              f"({time.perf_counter() - started:.1f}s)")
        return 1 if problems else 0

    src = REPO / "src" / "repro"
    print("running the roots under the call hook:")
    started = time.perf_counter()
    hits, codes = run_roots(REPO, REPO / WORK)
    reached = set().union(*hits.values())
    classes = classify(src, reached)
    (REPO / TABLE).write_text(
        render(classes, src_functions(src), hits, codes))
    counts = Counter(status for status, _ in classes.values())
    print(f"wrote {TABLE}: " + ", ".join(
        f"{counts[s]} {s}" for s in STATUSES)
        + f" ({time.perf_counter() - started:.0f}s)")
    failed = [name for name, code in codes.items() if code != 0]
    if failed:
        print(f"{', '.join(failed)} exited nonzero under the hook, so "
              f"the table is incomplete; see {WORK}/<root>.log",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
