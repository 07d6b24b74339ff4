#!/usr/bin/env python3
"""Regenerate the golden CLI artifacts in tests/golden/ from configs/.

Only run this after verifying spot values by hand or via the oracle tests:
goldens exist to freeze known-good bytes, not to chase the implementation.
"""

import shutil
import tempfile
from pathlib import Path

from agiecon.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

JOBS = [
    ("eval", "eval_model3.ini", ["eval.csv"]),
    ("sweep", "sweep_default.ini", ["power_curve.csv", "power_curve.svg"]),
    ("simulate", "simulate_demo.ini", ["series.csv"]),
    ("fit", "fit_demo.ini", ["fit.csv"]),
    ("check", "sweep_default.ini", ["check.txt"]),
]


def run() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for command, config, artifacts in JOBS:
            out_dir = Path(tmp) / command
            status = main(
                [command, "--config", str(ROOT / "configs" / config), "--out", str(out_dir)]
            )
            if status != 0:
                raise SystemExit(f"{command} exited with {status}")
            for name in artifacts:
                shutil.copy(out_dir / name, GOLDEN / name)
                print(f"updated {GOLDEN / name}")


if __name__ == "__main__":
    run()
