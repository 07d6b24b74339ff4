"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/test_smoke.py          # or: python3 -m pytest perfbench

Every workload must run in both modes, pass its own output checks and
print exactly the metrics BENCHMARK.json declares; the same seed must give
the same inputs; the checks must reject a wrong artifact; and a directory
without the agiecon sources must be refused without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(args: list[str], script: Path = HERE / "run.py", cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


class SmokeTest(unittest.TestCase):
    def setUp(self) -> None:
        scratch = ROOT / ".perfbench_work"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=scratch))

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it

    def test_every_workload_reports_every_declared_metric(self) -> None:
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    out = _bench(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                                  "--trace", str(trace), "--size", "tiny"])
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared},
                    )
                    table = "\n".join(out.stdout.splitlines()[:-1])
                    for metric in declared:
                        self.assertIn(f" {metric['name']} ", table)

    def test_same_seed_gives_the_same_inputs(self) -> None:
        for workload in ("simulate_long", "sweep_dense", "fit_large"):
            first = workloads.build(workload, ROOT, self.tmp / "a", 5, "tiny")
            second = workloads.build(workload, ROOT, self.tmp / "b", 5, "tiny")
            self.assertEqual(first.params, second.params)
            for path in sorted((self.tmp / "a").iterdir()):
                if path.is_file():
                    self.assertEqual(path.read_bytes(), (self.tmp / "b" / path.name).read_bytes())

    def test_checks_reject_a_wrong_artifact(self) -> None:
        client = run.Client(self.tmp)
        for workload in workloads.WORKLOADS:
            built = workloads.build(workload, ROOT, self.tmp / workload, 3, "tiny")
            inv = built.invocations[0]
            with self.subTest(workload=workload):
                self.assertTrue(client.invoke(inv).ok)
                artifact = sorted(p for p in inv.out_dir.iterdir() if p.suffix != ".svg")[0]
                lines = artifact.read_text(encoding="utf-8").splitlines(keepends=True)
                artifact.write_text("".join(lines[:-1]), encoding="utf-8")  # lose the last row
                with self.assertRaises(workloads.CheckFailed):
                    inv.check(inv.out_dir)

    def test_refuses_a_directory_without_the_program(self) -> None:
        bare = self.tmp / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = _bench(["--workload", "cli_demo", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     script=bare / HERE.name / "run.py", cwd=bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
