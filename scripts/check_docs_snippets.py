#!/usr/bin/env python
"""Execute every fenced ``python`` snippet in the docs and README, and
every example.

Documentation that cannot run is documentation that has drifted.  This
checker extracts each ` ```python ` fenced block from ``README.md`` and
``docs/*.md`` and executes it, then runs each script under
``examples/`` and requires exit 0.  Blocks within one file share a single
namespace, in document order, so a tutorial can build state across
snippets exactly the way a reader following along would.  Files are
independent of one another.

A block whose opening fence carries ``no-run`` (as in
` ```python no-run `) is syntax-checked with ``compile()`` but not
executed -- for snippets that illustrate an API sketch or would block
(servers, plots).

On failure, prints ``file:line`` of the offending block plus the
exception and exits nonzero.

Usage::

    python scripts/check_docs_snippets.py [files...]   # files: snippets only
"""

from __future__ import annotations

import logging
import re
import sys
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "scripts"))

# Snippets run lossy simulations whose recovery steps log warnings by
# design; only errors matter to a docs check.
logging.disable(logging.WARNING)

FENCE = re.compile(r"^```(\w+)?(.*)$")


def extract_blocks(path: Path):
    """Yield ``(start_line, language, info, source)`` for each block."""
    lines = path.read_text().splitlines()
    block_start, language, info, body = None, None, "", []
    for lineno, line in enumerate(lines, start=1):
        match = FENCE.match(line.strip())
        if match is None:
            if block_start is not None:
                body.append(line)
            continue
        if block_start is None:
            block_start = lineno
            language = (match.group(1) or "").lower()
            info = (match.group(2) or "").strip()
            body = []
        else:
            yield block_start, language, info, "\n".join(body)
            block_start, language, info, body = None, None, "", []


def run_file(path: Path) -> list:
    """Execute the file's python blocks; returns failure descriptions."""
    failures = []
    namespace = {"__name__": f"docs_snippet_{path.stem}"}
    executed = 0
    for start, language, info, source in extract_blocks(path):
        if language != "python":
            continue
        label = f"{path.relative_to(REPO)}:{start}"
        try:
            code = compile(source, str(label), "exec")
        except SyntaxError:
            failures.append(f"{label}: does not compile\n"
                            + traceback.format_exc(limit=0))
            continue
        if "no-run" in info:
            continue
        try:
            exec(code, namespace)
            executed += 1
        except Exception:
            failures.append(f"{label}: raised\n"
                            + traceback.format_exc())
    print(f"  {path.relative_to(REPO)}: {executed} blocks executed, "
          f"{len(failures)} failed")
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        paths = [Path(arg).resolve() for arg in argv]
    else:
        paths = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    print("checking docs snippets:")
    failures = []
    for path in paths:
        failures.extend(run_file(path))
    for failure in failures:
        print(f"\nSNIPPET FAIL: {failure}")
    if failures:
        return 1
    print("docs snippets: all python blocks execute")
    if argv:
        return 0
    from smoke_cli import run_each
    print("running the examples:")
    return run_each([(str(path.relative_to(REPO)),)
                     for path in sorted((REPO / "examples").glob("*.py"))])


if __name__ == "__main__":
    raise SystemExit(main())
