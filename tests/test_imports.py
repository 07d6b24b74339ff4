"""What other code relies on at import time, checked in fresh interpreters.

Each test runs in a subprocess: one needs a clean ``sys.modules``, the
other patches module attributes.
"""

from conftest import ROOT, run_python

CONFIGS = ROOT / "configs"

IMPORT_PROBE = """
import sys

WATCHED = ("dataclasses", "inspect", "json", "numpy")

def loaded():
    return ",".join(name for name in WATCHED if name in sys.modules) or "-"

import agiecon.cli
from agiecon.config import parse_config_file

print("import", loaded())
out = sys.argv[1]
for path in sys.argv[2:]:
    parse_config_file(path)
print("parse", loaded())
for command, config in (("eval", "eval_model3"), ("sweep", "sweep_default"),
                        ("simulate", "simulate_demo"), ("check", "sweep_default"),
                        ("fit", "fit_demo")):
    code = agiecon.cli.main([command, "--config", f"configs/{config}.ini", "--out", out])
    print(command, code, loaded())
"""


def test_no_command_imports_numpy(tmp_path):
    # dataclasses (with inspect, ast, dis and tokenize under it) costs more
    # start-up than most commands spend computing, and numpy's import more
    # than any command; fit solves its least squares without it.  json is
    # fit's alone: its sample reader scans numbers with it
    configs = sorted(CONFIGS.glob("*.ini"))
    assert configs
    result = run_python(IMPORT_PROBE, tmp_path, *configs)
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stdout.splitlines() if not line.startswith("collapse")]
    assert lines == [
        "import -",
        "parse -",
        "eval 0 -",
        "sweep 0 -",
        "simulate 0 -",
        "check 0 -",
        "fit 0 json",
    ]


TRACER_PROBE = """
import sys
sys.path.insert(0, "perfbench")
import tracer

recorder = tracer.Recorder()
traced_main = tracer.install(recorder)
code = traced_main(["simulate", "--config", "configs/simulate_demo.ini", "--out", sys.argv[1]])
print(code, sorted({span[0] for span in recorder.spans}))
code = traced_main(["fit", "--config", "configs/fit_demo.ini", "--out", sys.argv[1]])
print(code, [span[4] for span in recorder.spans if span[0] == "cli.fit_cobb_douglas"])
"""


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # perfbench/tracer.py looks up agiecon.cli and agiecon.scenario attributes
    # by name; a renamed or dropped import makes install() raise AttributeError.
    # Its fit span counts len(args[0]), the samples fit_cobb_douglas is given.
    result = run_python(TRACER_PROBE, tmp_path)
    assert result.returncode == 0, result.stderr
    simulate, fit = result.stdout.splitlines()[-2:]
    assert simulate.startswith("0 ")
    assert "'cli.run_scenario'" in simulate
    assert fit == "0 [12]"
