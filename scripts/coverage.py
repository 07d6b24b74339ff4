#!/usr/bin/env python3
"""List the statements of src/agiecon that the tier-1 tests never run.

    python scripts/coverage.py     # from the repository root

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
that follows only frames of ``src/agiecon``, then prints every statement
none of whose lines ran, outermost first (a function that never ran is one
statement, not one per line).  Code run in a child process, such as
``python -m agiecon``, is not traced.  Exits 1 when a test fails, when a
statement outside ``ALLOWED`` never ran, or when an ``ALLOWED`` entry names
no statement that never ran (its statement was deleted or now runs), else 0.

Tracing slows the suite about threefold, so the run loads its own
Hypothesis profile, with no deadline and no ``too_slow`` health check.
The profile also derandomizes the draws, so the statements that run are
the same on every run; every other setting is tier-1's.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "agiecon"

# the branch of calibration's left-to-right sum for the other Python versions
_OTHER_SUM = "_sum = sum" if sys.version_info >= (3, 12) else "def _sum(values) -> float:"

# (file in src/agiecon, first line of the statement): why no test runs it
ALLOWED = {
    ("calibration.py", _OTHER_SUM): "only one branch of a version check runs",
    ("cli.py", "sys.exit(main())"): "the console script; tests run it in a child process",
    ("__main__.py", "from .cli import run"): "python -m agiecon; tests run it in a child process",
    ("__main__.py", 'if __name__ == "__main__":'): "python -m agiecon, as above",
}


def run_traced() -> tuple[int, set[tuple[str, int]]]:
    """Run the tier-1 suite with the tracer on; return its exit status and the
    (file, line) pairs of src/agiecon that ran."""
    import pytest
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "coverage", deadline=None, suppress_health_check=[HealthCheck.too_slow], derandomize=True
    )
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()
    followed: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        follow = followed.get(filename)
        if follow is None:
            follow = followed[filename] = os.path.realpath(filename).startswith(prefix)
        return local if follow else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(
            ["-q", "--continue-on-collection-errors", "--hypothesis-profile=coverage"]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path = {filename: os.path.realpath(filename) for filename in followed}
    return int(status), {(by_path[filename], line) for filename, line in ran}


def code_lines(code) -> set[int]:
    """The lines that hold bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def never_run(path: Path, ran: set[int]) -> list[ast.stmt]:
    """The outermost statements of ``path`` with bytecode, none of whose lines ran."""
    source = path.read_text(encoding="utf-8")
    has_code = code_lines(compile(source, str(path), "exec"))
    found: list[ast.stmt] = []

    def visit(body: list[ast.stmt]) -> None:
        for stmt in body:
            lines = has_code.intersection(range(stmt.lineno, stmt.end_lineno + 1))
            if lines and not lines & ran:
                found.append(stmt)
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.excepthandler):
                    visit(child.body)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []))

    visit(ast.parse(source).body)
    return found


def main() -> int:
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)  # and for the tests' child processes:
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    status, ran = run_traced()
    unexpected = 0
    stale = set(ALLOWED)
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        ran_here = {line for filename, line in ran if filename == str(path)}
        for stmt in never_run(path, ran_here):
            text = lines[stmt.lineno - 1].strip()
            reason = ALLOWED.get((path.name, text))
            stale.discard((path.name, text))
            unexpected += reason is None
            note = f"allowed: {reason}" if reason else "NOT ALLOWED"
            print(f"{path.relative_to(ROOT)}:{stmt.lineno}: {text}  [{note}]")
    for name, text in sorted(stale):
        print(f"{PACKAGE.relative_to(ROOT) / name}: {text}  [STALE: it ran, or it is gone]")
    print(
        f"pytest exit status {status}; {unexpected} statement(s) never run outside the allowlist;"
        f" {len(stale)} stale allowlist entry(ies)"
    )
    return 1 if status or unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
