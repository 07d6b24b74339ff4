"""``scripts/ab.py``: its statistics, and its output comparison on two trees."""

import importlib.util
import json
import shutil

import pytest

from conftest import ROOT

_spec = importlib.util.spec_from_file_location("ab_script", ROOT / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def summary(parent, change, better="lower"):
    return ab.summarize({"parent": parent, "change": change}, better)


def test_equal_runs_give_ratio_one_inside_its_interval():
    values = [0.25, 0.24, 0.26, 0.25, 0.27, 0.25, 0.24, 0.26]
    result = summary(values, list(values))
    assert result["ratio"] == 1.0 and result["ratio_ci95"] == [1.0, 1.0]
    assert result["wins"] == 0 and result["n"] == ab.MIN_CI_PAIRS
    assert result["parent_iqr"] == pytest.approx(0.26 - 0.2425)  # statistics.quantiles' default
    assert not result["beyond_spread"]


@pytest.mark.parametrize("n", [1, 2, ab.MIN_CI_PAIRS - 1])
def test_too_few_pairs_give_no_interval(n):
    # 2 tiny A/A pairs of one commit gave [0.981, 0.989], which excludes 1
    parent = [0.25 + 0.01 * i for i in range(n)]
    result = summary(parent, [0.98 * p for p in parent])
    assert result["ratio_ci95"] is None
    assert result["ratio"] == pytest.approx(0.98) and result["n"] == n


@pytest.mark.parametrize("better,wins", [("lower", 10), ("higher", 0), (None, None)])
def test_a_change_a_tenth_lower_in_every_pair(better, wins):
    parent = [0.25 + 0.001 * i for i in range(10)]
    result = summary(parent, [0.9 * p for p in parent], better)
    assert result["wins"] == wins
    assert result["ratio"] == pytest.approx(0.9)
    low, high = result["ratio_ci95"]
    assert low <= result["ratio"] <= high < 1.0
    assert result["beyond_spread"]
    assert result["pairs"][3] == [parent[3], 0.9 * parent[3]]


def test_the_interval_is_drawn_from_the_seed():
    parent = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.15, 1.0]
    change = [1.1, 1.0, 1.0, 1.3, 0.95, 1.05, 1.0, 1.2]
    result = summary(parent, change)
    assert result == summary(parent, change)
    assert result["ratio_ci95"][0] < result["ratio"] < result["ratio_ci95"][1]


def copied_tree(rev, into):
    """What the script needs of a revision, copied from this checkout."""
    for part in ("src", "perfbench", "configs", "tests/golden"):
        shutil.copytree(ROOT / part, into / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", into)
    if rev == "one-byte-changed":  # eval.csv's header gains one byte
        cli = into / "src" / "agiecon" / "cli.py"
        cli.write_text(cli.read_text().replace('"quantity,value"', '"quantity,values"'))
    return rev


@pytest.mark.parametrize("change,status", [("same", 0), ("one-byte-changed", 1)])
def test_outputs_are_compared_by_digest(tmp_path, monkeypatch, capsys, change, status):
    monkeypatch.setattr(ab, "export", copied_tree)
    out = tmp_path / "ab.json"
    argv = ["same", change, "--workloads", "cli_demo", "--pairs", "0", "--size", "tiny",
            "--out", str(out)]
    assert ab.main(argv) == status
    document = json.loads(out.read_text())
    differ = [e["label"] for e in document["outputs"]["invocations"] if not e["same"]]
    assert differ == ([] if status == 0 else ["eval"])
    assert document["outputs"]["identical"] is (status == 0)
    assert document["failures"] == [f"cli_demo seed 1 {label}: outputs differ" for label in differ]
    assert all(e[side]["exit"] == 0 for e in document["outputs"]["invocations"]
               for side in ab.SIDES)
    if status:
        assert "ab: FAIL cli_demo seed 1 eval: outputs differ" in capsys.readouterr().err
