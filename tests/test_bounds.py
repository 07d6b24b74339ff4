"""The library's size bounds, and simulate's memory, checked in a child process
under a memory cap.

A power curve above ``MAX_N_POINTS`` grid points and a run above
``MAX_HORIZON`` steps are DomainErrors raised before anything is allocated.
``simulate`` holds one window of its run at a time, so a long run fits under
the same cap.  The child caps its own address space (``RLIMIT_AS``) a
little above what it holds once imported, so a check that ever moved after
the allocation, or a command that ever held its whole run, would end the
child in a MemoryError instead of exhausting the machine.  Nothing near a
bound is built in this process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CAP = """
import resource
import sys

from agiecon import (
    AdoptionPath, ModelIIIParams, ScenarioConfig, TransitionParams, cli, power_curve,
    run_scenario,
)
from agiecon.scenario import MAX_HORIZON
from agiecon.transition import MAX_N_POINTS

HEADROOM = 64 << 20

with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) << 10 for line in status if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + HEADROOM, size + HEADROOM))
"""

CHILD = CAP + """

params = ModelIIIParams(
    A=1, K=1, K_AGI=1, L_h=1, L_AGI=0, alpha=0.3, gamma=0.2, beta1=0.4, beta2=0
)
paths = {
    "linear": AdoptionPath.linear(),
    "logistic": AdoptionPath.logistic(k=0.8, t0=5.0),
    "exp_saturating": AdoptionPath.exp_saturating(r=0.5),
}
cases = {
    "cap": lambda: bytearray(2 * HEADROOM),
    "points-101": lambda: power_curve(TransitionParams(), 101),
    "points-1": lambda: power_curve(TransitionParams(), 1),
    "points-above": lambda: power_curve(TransitionParams(), MAX_N_POINTS + 1),
    "run-20": lambda: run_scenario(ScenarioConfig(20, params, paths["logistic"])),
}
for kind, path in paths.items():
    cases[f"horizon-above-{kind}"] = lambda path=path: ScenarioConfig(
        MAX_HORIZON + 1, params, path
    )
for name, case in cases.items():
    try:
        case()
    except Exception as exc:
        print(name, type(exc).__name__, exc)
    else:
        print(name, "returned")
"""


def run_capped(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120, check=False,
    )


linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/status"
)


@linux_only
def test_bounds_raise_before_allocating():
    child = run_capped(CHILD)
    assert child.returncode == 0, child.stderr
    points = "DomainError n_points must be an integer in [2, 10000000], got"
    horizon = "DomainError horizon must be <= 1000000, got 1000001"
    assert child.stdout.splitlines() == [
        "cap MemoryError ",  # the cap bites: an allocation past it fails in Python
        "points-101 returned",
        f"points-1 {points} 1",
        f"points-above {points} 10000001",
        "run-20 returned",
        f"horizon-above-linear {horizon}",
        f"horizon-above-logistic {horizon}",
        f"horizon-above-exp_saturating {horizon}",
    ]


LONG_RUN = """\
[model]
id = model_iii
A = 1
K = 1
K_AGI = 1
L_h = 1
L_AGI = 0
alpha = 0.3
gamma = 0.2
beta1 = 0.4
beta2 = 0

[scenario]
horizon = 200000
adoption = linear
growth = 1e-6
"""


@linux_only
def test_simulate_streams_a_long_run_under_the_cap(tmp_path):
    # the whole run's records and columns need about 125 MB above the import
    config = tmp_path / "long.ini"
    config.write_text(LONG_RUN)
    child = run_capped(
        CAP + "print('exit', cli.main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]]))",
        config, tmp_path,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "exit 0"
    with open(tmp_path / "series.csv", "rb") as series:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: series.read(1 << 20), b""))
    assert lines == 200_002  # the header and steps 0..200000
