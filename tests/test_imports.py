"""What other code relies on at import time, checked in fresh interpreters.

Each test runs in a subprocess: one needs a clean ``sys.modules``, the
other patches module attributes.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120, check=False,
    )


NUMPY_PROBE = """
import sys
import agiecon.cli
from agiecon.config import parse_config_file

def numpy_loaded():
    return "numpy" in sys.modules

out = sys.argv[1]
for path in sys.argv[2:]:
    parse_config_file(path)
print("parse", numpy_loaded())
for command, config in (("eval", "eval_model3"), ("sweep", "sweep_default"),
                        ("simulate", "simulate_demo"), ("check", "sweep_default")):
    code = agiecon.cli.main([command, "--config", f"configs/{config}.ini", "--out", out])
    print(command, code, numpy_loaded())
code = agiecon.cli.main(["fit", "--config", "configs/fit_demo.ini", "--out", out])
print("fit", code, numpy_loaded())
"""


def test_only_fit_imports_numpy(tmp_path):
    configs = sorted(CONFIGS.glob("*.ini"))
    assert configs
    result = run_python(NUMPY_PROBE, tmp_path, *configs)
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stdout.splitlines() if not line.startswith("collapse")]
    assert lines == [
        "parse False",
        "eval 0 False",
        "sweep 0 False",
        "simulate 0 False",
        "check 0 False",
        "fit 0 True",  # the probe can see numpy once something imports it
    ]


TRACER_PROBE = """
import sys
sys.path.insert(0, "perfbench")
import tracer

recorder = tracer.Recorder()
traced_main = tracer.install(recorder)
code = traced_main(["simulate", "--config", "configs/simulate_demo.ini", "--out", sys.argv[1]])
print(code, sorted({span[0] for span in recorder.spans}))
"""


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # perfbench/tracer.py looks up agiecon.cli and agiecon.scenario attributes
    # by name; a renamed or dropped import makes install() raise AttributeError
    result = run_python(TRACER_PROBE, tmp_path)
    assert result.returncode == 0, result.stderr
    last = result.stdout.splitlines()[-1]
    assert last.startswith("0 ")
    assert "'cli.run_scenario'" in last
