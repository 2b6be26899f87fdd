"""Statements inside the functions of ``src/ising_reram`` that a run never executes.

Traces a run with ``sys.settrace`` (standard library only) and prints each
statement inside a function of the package that no traced frame reached, as
``module:line: source``, then a count per module.  By default the run is the
tier-1 test suite, in this process through ``pytest.main``; code that a test
runs in a subprocess (the demos, the tools, the command-line runs) is not
traced, so its statements count as unexecuted unless another test reaches
them in process.  ``--workload NAME --seed S`` runs one cycle of that
benchmark workload's ``execute`` and ``check`` instead (the workloads of
``perfbench/workloads.py``, imported read-only):

    python3 tools/unexecuted.py
    python3 tools/unexecuted.py --workload anneal-m40 --seed 1

A statement counts as executed when a line event fires on one of its lines;
a compound statement's lines are its header's, up to its first inner
statement.  Docstrings and other bare constants, and ``global`` and
``nonlocal`` declarations, compile to no code and are not listed.  Exit code
1 when a workload operation fails the benchmark's checks.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ising_reram"


def _no_code(node: ast.stmt) -> bool:
    return isinstance(node, (ast.Global, ast.Nonlocal)) or (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    )


def statements(source: str) -> dict[int, range]:
    """Each statement inside a function, by its first line: the lines that run it."""
    found = {}
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if node is func or not isinstance(node, ast.stmt) or _no_code(node):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            inner = [c.lineno for c in ast.walk(node) if c is not node and isinstance(c, ast.stmt)]
            last = max(node.lineno, min(inner) - 1) if inner else node.end_lineno
            found[node.lineno] = range(first, last + 1)
    return found


def unexecuted(found: dict[int, range], executed: set[int]) -> list[int]:
    """The first lines of the statements in ``found`` with no line in ``executed``."""
    return sorted(line for line, span in found.items() if executed.isdisjoint(span))


def trace(paths, run) -> dict:
    """Call ``run()`` and return, for each path, the set of its lines that executed."""
    seen = {path: set() for path in paths}
    by_real = {os.path.realpath(path): lines for path, lines in seen.items()}
    by_name = {}  # co_filename -> its set of lines, or None when not traced

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = by_real.get(os.path.realpath(name))
        lines = by_name[name]
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def report(executed: dict) -> None:
    """Print the unexecuted statements of each traced module, then the counts."""
    counts = []
    for path, lines in sorted(executed.items()):
        source = path.read_text()
        text = source.splitlines()
        found = statements(source)
        missed = unexecuted(found, lines)
        for line in missed:
            print(f"{path.name}:{line}: {text[line - 1].strip()}")
        counts.append(f"{path.name}: {len(missed)} of {len(found)} statements unexecuted")
    print(*counts, sep="\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one cycle of this benchmark workload, not tier-1")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    paths = sorted(PACKAGE.glob("*.py"))
    failed = 0
    if args.workload is None:
        import pytest

        executed = trace(paths, lambda: pytest.main(
            ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")]
        ))
    else:
        from byte_identity import load_workloads

        wl = load_workloads(ROOT).build(args.workload, args.seed)
        summaries = []
        executed = trace(paths, lambda: summaries.extend(
            wl.check(op, wl.execute(op), first_cycle=True) for op in wl.ops
        ))
        failed = sum(bool(s.errors) for s in summaries)
    report(executed)
    if args.workload is None:
        print("not traced: code that tests run in subprocesses (the demos, the tools, the CLI runs)")
    else:
        print(f"{args.workload} seed {args.seed}: {len(summaries)} operations, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
