#!/usr/bin/env python3
"""A/B comparison of two revisions on the benchmark, outputs first.

    python scripts/ab.py PARENT [CHANGE] [--workloads all] [--seeds 1,5]
        [--pairs 10] [--seconds 20] [--size full] [--out FILE]

PARENT and CHANGE (default ``HEAD``) are git revisions of this repository.
Each is exported with ``git archive`` into its own temporary directory, so
a run registers nothing in the repository and leaves nothing behind, and
both are byte-compiled by the same ``compileall`` call.  Uncommitted
changes are not seen.

For each workload and seed, the parent's ``perfbench/workloads.py`` writes
the inputs once, and each invocation runs once per side, as ``python -m
agiecon`` with the same arguments and out directory.  The exit codes and
the sha256 of stdout, stderr and every artifact must be equal.  Then ``perfbench/run.py --workload W
--seed S --seconds N --trace 0`` runs ``--pairs`` times on each side,
alternating, with the side that runs first rotating from pair to pair.

The result is one JSON document (to ``--out``, else stdout).  Per
workload, seed and metric it holds each pair's values, both medians, the
parent's interquartile spread, the change/parent ratio of the medians, the
number of pairs in which the change was better, and a percentile bootstrap
95 % interval of the median ratio over resampled pairs, from a seeded
``random.Random``, so the same pairs give the same interval.  Below
``MIN_CI_PAIRS`` pairs the interval is ``null``: resampling a few pairs
cannot show more spread than those pairs hold, so the interval is too
narrow to trust (2 tiny A/A pairs of one commit gave [0.981, 0.989]).
Exits 1 if any invocation failed (a non-zero exit on either side, a timed
run that is not ``correct`` or that exits non-zero) or outputs differ,
else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SCHEMA = "agiecon-ab/1"
RESAMPLES = 2000  # bootstrap resamples of the pairs
MIN_CI_PAIRS = 8  # fewer pairs get no bootstrap interval


def export(rev: str, into: Path) -> str:
    """Write the tree of ``rev`` under ``into``, byte-compiled; return its commit."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter, where this Python has it, refuses links out of the tree
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    for part in ("src", "perfbench"):
        if not compileall.compile_dir(into / part, quiet=1):
            raise RuntimeError(f"{rev}: {part} does not byte-compile")
    return commit


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_once(tree: Path, argv: list[str], out_dir: Path) -> dict:
    """Exit code and digests of one ``python -m agiecon`` run from ``tree``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "agiecon", *argv], cwd=tree, env=env,
                          capture_output=True, check=False)
    artifacts = {}
    if out_dir.is_dir():
        artifacts = {path.name: _sha256(path.read_bytes()) for path in sorted(out_dir.iterdir())}
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"exit": done.returncode, "stdout": _sha256(done.stdout),
            "stderr": _sha256(done.stderr), "artifacts": artifacts}


def compare_outputs(trees: dict[str, Path], workload: str, seed: int, size: str,
                    inputs: Path) -> list[dict]:
    """Run each invocation of the workload once per side; one entry each."""
    spec = importlib.util.spec_from_file_location(
        "ab_workloads", trees["parent"] / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(workloads)
    built = workloads.build(workload, trees["parent"], inputs / f"{workload}-{seed}", seed, size)
    entries = []
    for inv in built.invocations:
        entry = {"workload": workload, "seed": seed, "label": inv.label}
        entry.update({side: run_once(trees[side], inv.argv, inv.out_dir) for side in SIDES})
        entry["same"] = entry["parent"] == entry["change"]
        entries.append(entry)
    return entries


def timed_run(tree: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One ``perfbench/run.py --trace 0`` run from ``tree``; its last JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0", "--size", size]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit"] = done.returncode
    if done.returncode != 0:
        result["stderr_tail"] = done.stderr.strip().splitlines()[-3:]
    return result


def summarize(values: dict[str, list[float]], better: str | None) -> dict:
    """One metric's pairs: medians, parent spread, ratio, sign count and,
    from ``MIN_CI_PAIRS`` pairs on, a bootstrap 95 % interval of the median
    ratio."""
    parent, change = values["parent"], values["change"]
    n = len(parent)
    medians = {side: statistics.median(values[side]) for side in SIDES}
    q1, _, q3 = statistics.quantiles(parent, n=4) if n > 1 else (parent[0],) * 3
    wins = None
    if better is not None:
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    interval = None
    if n >= MIN_CI_PAIRS:
        rng = random.Random(0)
        ratios = []
        for _ in range(RESAMPLES):
            picks = [rng.randrange(n) for _ in range(n)]
            base = statistics.median(parent[i] for i in picks)
            ratios.append(statistics.median(change[i] for i in picks) / base if base else 1.0)
        ratios.sort()
        interval = [ratios[int(0.025 * RESAMPLES)], ratios[int(0.975 * RESAMPLES) - 1]]
    return {
        "better": better,
        "pairs": [[p, c] for p, c in zip(parent, change)],
        "parent_median": medians["parent"],
        "change_median": medians["change"],
        "parent_iqr": q3 - q1,
        "ratio": medians["change"] / medians["parent"] if medians["parent"] else None,
        "beyond_spread": abs(medians["change"] - medians["parent"]) > q3 - q1,
        "wins": wins,
        "n": n,
        "ratio_ci95": interval,
    }


def compare_timing(trees: dict[str, Path], workload: str, seed: int, args,
                   better: dict[str, str]) -> dict:
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        result = {side: timed_run(trees[side], workload, seed, args.seconds, args.size)
                  for side in order}
        runs.append({"first": order[0], **{side: result[side] for side in SIDES}})
        print(f"ab: {workload} seed {seed} pair {pair + 1}/{args.pairs}", file=sys.stderr)
    every = [run[side]["metrics"] for run in runs for side in SIDES]
    metrics = {}
    for name in [name for name in every[0] if all(name in m for m in every)] if every else []:
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        metrics[name] = {"unit": runs[0]["parent"]["metrics"][name]["unit"],
                         **summarize(values, better.get(name))}
    return {"workload": workload, "seed": seed, "runs": runs, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--workloads", default="all", help="comma list, or all")
    parser.add_argument("--seeds", default="1", help="comma list of workload seeds")
    parser.add_argument("--pairs", type=int, default=10, help="timed pairs per workload and seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="--seconds of each timed run")
    parser.add_argument("--size", default="full", help="workload input size (full or tiny)")
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]

    with tempfile.TemporaryDirectory(prefix="agiecon-ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(rev, trees[side])
                   for side, rev in zip(SIDES, (args.parent, args.change))}
        bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = ([w["name"] for w in bench["workloads"]] if args.workloads == "all"
                 else args.workloads.split(","))
        better = {metric["name"]: metric["better"] for metric in bench["end_to_end"]}
        outputs, timing = [], []
        for workload in names:
            for seed in seeds:
                outputs += compare_outputs(trees, workload, seed, args.size, Path(tmp) / "inputs")
                timing.append(compare_timing(trees, workload, seed, args, better))

    failures = [f"{e['workload']} seed {e['seed']} {e['label']}: {side} exit {e[side]['exit']}"
                for e in outputs for side in SIDES if e[side]["exit"] != 0]
    failures += [f"{t['workload']} seed {t['seed']} pair {i + 1}: {side} run not correct"
                 for t in timing for i, run in enumerate(t["runs"]) for side in SIDES
                 if run[side]["exit"] != 0 or not run[side]["correct"] or run[side]["failed"]]
    failures += [f"{e['workload']} seed {e['seed']} {e['label']}: outputs differ"
                 for e in outputs if not e["same"]]
    document = {
        "schema": SCHEMA,
        "parent": {"rev": args.parent, "commit": commits["parent"]},
        "change": {"rev": args.change, "commit": commits["change"]},
        "settings": {"workloads": names, "seeds": seeds, "pairs": args.pairs,
                     "seconds": args.seconds, "size": args.size, "resamples": RESAMPLES},
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "processor": _cpu_model(), "nproc": os.cpu_count()},
        "outputs": {"identical": all(e["same"] for e in outputs), "invocations": outputs},
        "timing": timing,
        "failures": failures,
    }
    text = json.dumps(document, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    for failure in failures:
        print(f"ab: FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
