"""What other code relies on at import time, checked in fresh interpreters.

Each test runs in a subprocess: most need a clean ``sys.modules``, and the
tracer test patches module attributes.
"""

from conftest import ROOT, run_python

CONFIGS = ROOT / "configs"

# Under -S no site hook (a .pth file, say) has loaded modules before agiecon does.
CLEAN = ("-S",)

PACKAGE_PROBE = """
import sys
import agiecon

listed = set(agiecon.__all__) <= set(dir(agiecon))
print(listed, sorted(name for name in sys.modules if name.startswith("agiecon.")))
"""


def test_importing_the_package_loads_no_submodule():
    # python -m agiecon imports the package before the CLI; each public
    # name imports its module on first access, and dir() lists it before
    result = run_python(PACKAGE_PROBE, flags=CLEAN)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True []\n"


COMMAND_PROBE = """
import sys

WATCHED = ("agiecon.calibration", "agiecon.diagnostics", "agiecon.svg",
           "csv", "dataclasses", "inspect", "json", "numpy")

import agiecon.cli

code = agiecon.cli.main(sys.argv[1:])
print(code, ",".join(name for name in WATCHED if name in sys.modules) or "-")
"""


def test_each_command_loads_only_what_it_uses(tmp_path):
    # One fresh interpreter per command, so each line names what that
    # command loaded.  dataclasses (with inspect, ast, dis and tokenize under
    # it) costs more start-up than most commands spend computing, and numpy's
    # import more than any command; fit solves its least squares without it.
    # calibration (with csv, and json for its sample reader), diagnostics and
    # svg are each one command's alone.
    loaded = {}
    for command, config in (("eval", "eval_model3"), ("sweep", "sweep_default"),
                            ("simulate", "simulate_demo"), ("fit", "fit_demo"),
                            ("check", "sweep_default")):
        argv = [command, "--config", CONFIGS / f"{config}.ini", "--out", tmp_path / command]
        result = run_python(COMMAND_PROBE, *argv, flags=CLEAN)
        assert result.returncode == 0, result.stderr
        loaded[command] = result.stdout.splitlines()[-1]
    assert loaded == {
        "eval": "0 -",
        "sweep": "0 agiecon.svg",
        "simulate": "0 -",
        "fit": "0 agiecon.calibration,csv,json",
        "check": "0 agiecon.diagnostics",
    }


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
    # simulate formats run_columns' columns, so no scenario span is recorded
    assert simulate == "0 ['cli.build_scenario_config', 'cli.main', 'cli.parse_config_file']"
    assert fit == "0 [12]"
