#!/usr/bin/env python3
"""Regenerate the golden CLI artifacts in tests/golden/ from configs/.

    PYTHONPATH=src python scripts/regen_goldens.py

``JOBS`` is the one table of golden runs.  A tier-1 test in
tests/test_cli.py runs this script into a temporary directory and checks
that it writes every file of tests/golden/ byte for byte, and no other;
that test compares bytes only.  Only run this after verifying spot values
by hand: eval.csv and fit.csv have a few spot-value tests, series.csv and
power_curve.csv none, and ROADMAP item 15 adds an oracle for every cell.
Goldens exist to freeze known-good bytes, not to chase the implementation.
"""

import shutil
import tempfile
from pathlib import Path

from agiecon.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# (command, config, extra arguments, {artifact: golden file name})
JOBS = [
    ("eval", "eval_model3.ini", [], {"eval.csv": "eval.csv"}),
    ("sweep", "sweep_default.ini", [],
     {"power_curve.csv": "power_curve.csv", "power_curve.svg": "power_curve.svg"}),
    # 5000 grid points cross three of sweep's 2048-point windows
    ("sweep", "sweep_default.ini",
     ["--points", "5000", "--lambda", "2", "--lambda", "0.5", "--lambda", "9"],
     {"power_curve.svg": "power_curve_family.svg"}),
    ("simulate", "simulate_demo.ini", [], {"series.csv": "series.csv"}),
    ("fit", "fit_demo.ini", [], {"fit.csv": "fit.csv"}),
    ("check", "sweep_default.ini", [], {"check.txt": "check.txt"}),
]


def run() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for index, (command, config, extra, artifacts) in enumerate(JOBS):
            out_dir = Path(tmp) / str(index)
            status = main(
                [command, "--config", str(ROOT / "configs" / config), "--out", str(out_dir), *extra]
            )
            if status != 0:
                raise SystemExit(f"{command} exited with {status}")
            for name, golden in artifacts.items():
                shutil.copy(out_dir / name, GOLDEN / golden)
                print(f"updated {GOLDEN / golden}")


if __name__ == "__main__":
    run()
