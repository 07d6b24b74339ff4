"""The public surface as users see it: ``agiecon.__all__`` and the README."""

import ast
import re
import types
from pathlib import Path

import agiecon

ROOT = Path(__file__).resolve().parent.parent


def test_all_lists_exactly_the_public_names():
    for name in agiecon.__all__:
        assert hasattr(agiecon, name), name
    bound = {
        name
        for name, value in vars(agiecon).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(agiecon.__all__)) == len(agiecon.__all__)
    assert set(agiecon.__all__) == bound
    assert not {"ModelId", "Observable", "OUTPUT", "PowerCurvePoint"} & bound
    assert "PowerCurve" in bound and len(bound) == 46


def test_dir_lists_every_public_name():
    # each public name resolves on first access, so __dir__ adds those not
    # yet in the package namespace
    assert set(agiecon.__all__) <= set(dir(agiecon))


def test_readme_library_example_states_its_values():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.S | re.M).group(1)
    lines = block.splitlines()
    namespace = {}
    stated, computed = [], []
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            # an expression line states its value in a trailing comment
            stated.append(lines[node.lineno - 1].partition("#")[2].strip())
            computed.append(repr(eval(source, namespace)))
        else:
            exec(source, namespace)
    assert stated == ["30.0", "{'L_h': 0.6, 'L_AGI': 21.0}"]
    assert computed == stated
