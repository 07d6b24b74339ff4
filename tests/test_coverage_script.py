"""``scripts/coverage.py``'s unrun-statement finder, on a module written here."""

import importlib.util

import pytest

from conftest import ROOT

_spec = importlib.util.spec_from_file_location("coverage_script", ROOT / "scripts" / "coverage.py")
coverage_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage_script)

SOURCE = '''\
import math


def unused(x):
    y = x + 1
    return y


def guarded(x):
    try:
        return math.sqrt(x)
    except ValueError:
        return math.nan
'''

# the lines a line trace records for `import module` then `guarded(4.0)`:
# the import, both def lines, and guarded's try and first return
IMPORT_THEN_GUARDED = {1, 4, 9, 10, 11}


@pytest.fixture
def module(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(SOURCE, encoding="utf-8")
    return path


def test_unrun_function_and_except_body(module):
    found = coverage_script.never_run(module, IMPORT_THEN_GUARDED)
    # the function that never ran is one statement, not one per body statement
    assert [(type(stmt).__name__, stmt.lineno) for stmt in found] == [
        ("FunctionDef", 4),
        ("Return", 13),
    ]


def test_fully_run_module_reports_nothing(module):
    every_line = coverage_script.code_lines(compile(SOURCE, str(module), "exec"))
    assert coverage_script.never_run(module, every_line) == []
