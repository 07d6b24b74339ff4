#!/usr/bin/env python3
"""Benchmark of the agiecon CLI: cold processes, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli_demo, simulate_long, sweep_dense, fit_large, or ``all``
to run every workload in turn.  The benchmark writes the workload's inputs
for seed N under ``.perfbench_work/`` in the checkout, then drives the CLI
as a user would: one fresh ``python -m agiecon`` process per command, from
a single client in a closed loop, so each command starts only after the
previous one exits.  It runs whole rounds over the workload's commands,
each round in an order drawn from the seed, until S seconds have passed,
and checks every artifact (see workloads.py).  Times are reported in
reference seconds: each child is scaled by a speed probe run just before
it (see SPEED_REF_S).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates the same
untraced commands with traced ones (tracer.py runs ``agiecon.cli.main``
in-process with every layer boundary wrapped) and reports the per-layer
metrics, import times from ``python -X importtime`` and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
above it give every metric by name and unit, the environment and the drawn
input parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads
from workloads import CheckFailed, Invocation, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACER = HERE / "tracer.py"

TIMEOUT_S = 120.0  # one invocation; a timeout counts as a failure
SETUP_PROBES = 7
IMPORT_PROBES = 5
# a tail percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
# Nominal wall time of one speed probe.  Bounded times are reported in
# "reference seconds": each child's raw wall time times SPEED_REF_S / (wall
# time of the speed probe run right before it), so a host that runs every
# process slower for a while does not read as a slower program.
SPEED_REF_S = 0.09

# files the benchmark needs from the checkout besides its own
_REQUIRED = (
    "src/agiecon/__init__.py",
    "src/agiecon/__main__.py",
    "src/agiecon/cli.py",
    "configs/eval_model3.ini",
    "configs/sweep_default.ini",
    "configs/simulate_demo.ini",
    "configs/fit_demo.ini",
    "configs/fit_samples.csv",
    "tests/golden/power_curve.csv",
    "tests/golden/series.csv",
    "tests/golden/fit.csv",
)

_SETUP_CODE = "import sys, agiecon.cli; agiecon.cli.parse_config_file(sys.argv[1])"
_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


# A fixed slice of interpreter work like the CLI's own: formatting floats
# in scientific notation, splitting and parsing them back, dict updates.
_PROBE_CODE = """
import math
cells = [f"{math.exp(-i * 1e-4) * (1.0 + i % 7):.9e}" for i in range(16_000)]
sums = {}
for i, cell in enumerate(cells):
    mantissa, exponent = cell.split("e")
    sums[i % 512] = sums.get(i % 512, 0.0) + float(mantissa) * 10.0 ** int(exponent)
"""


def speed_probe() -> float:
    """Wall seconds of a fresh interpreter that runs _PROBE_CODE.

    It runs right before each child the benchmark times and, like them, is
    a new process doing Python work, so it sees the host at the speed the
    child is about to get.  Its code never changes with the program.
    """
    start = perf_counter()
    subprocess.run([sys.executable, "-c", _PROBE_CODE], check=True)
    return perf_counter() - start


@dataclass
class Child:
    """One finished child process."""

    wall_s: float  # raw, from spawn to exit
    ref_s: float  # the same in reference seconds
    rss_mb: float
    code: int
    timed_out: bool
    stdout: str
    stderr: str


@dataclass
class Outcome:
    inv: Invocation
    child: Child
    ok: bool


class Client:
    """Spawns one child process at a time and checks what it leaves behind."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for name in ("PYTHONSTARTUP", "PYTHONPROFILEIMPORTTIME", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)
        self.digests: dict[str, str] = {}
        self.probes: list[float] = []

    def time_scale(self) -> float:
        """Factor from raw to reference seconds for this run."""
        return SPEED_REF_S / statistics.median(self.probes)

    def spawn(self, cmd: list[str]) -> Child:
        """Run a speed probe, then ``cmd`` to completion."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        probe = speed_probe()
        self.probes.append(probe)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killed = threading.Event()
            timer = threading.Timer(TIMEOUT_S, lambda: (killed.set(), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()  # interrupted: leave no child behind
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            wall_s=wall,
            ref_s=wall * SPEED_REF_S / probe,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            timed_out=killed.is_set(),
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def invoke(self, inv: Invocation, spans: Path | None = None) -> Outcome:
        shutil.rmtree(inv.out_dir, ignore_errors=True)
        if spans is None:
            cmd = [sys.executable, "-m", "agiecon", *inv.argv]
        else:
            cmd = [sys.executable, str(TRACER), str(spans), *inv.argv]
        child = self.spawn(cmd)
        outcome = Outcome(inv, child, ok=True)
        try:
            _require_clean(child)
            digest = _digest(inv.out_dir, child.stdout)
            first = self.digests.get(inv.label)
            if first is None:
                inv.check(inv.out_dir)
                self.digests[inv.label] = digest
            elif digest != first:
                raise CheckFailed("artifacts differ from the first invocation of this run")
        except (CheckFailed, OSError, ValueError, IndexError) as exc:
            # a missing or malformed artifact fails the invocation, not the run
            outcome.ok = False
            print(f"FAIL {inv.label}: {exc}", file=sys.stderr)
        return outcome

    def setup_probe(self, config: Path) -> Child:
        child = self.spawn([sys.executable, "-c", _SETUP_CODE, str(config)])
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed with status {child.code}: {child.stderr}")
        return child

    def import_probe(self) -> dict[str, float]:
        cmd = [sys.executable, "-X", "importtime", "-c", "import agiecon.cli"]
        child = self.spawn(cmd)
        if child.code != 0:
            raise RuntimeError(f"import probe failed with status {child.code}")
        total = numpy = agiecon = 0.0
        for match in _IMPORTTIME.finditer(child.stderr):
            cumulative_ms = int(match.group(2)) / 1000.0
            indent, name = match.group(3), match.group(4)
            if not indent:
                total += cumulative_ms
            if name == "numpy":
                numpy = cumulative_ms
            elif name == "agiecon":
                agiecon = cumulative_ms
        return {"import.total_ms": total, "import.numpy_ms": numpy, "import.agiecon_ms": agiecon}


def _require_clean(child: Child) -> None:
    if child.timed_out:
        raise CheckFailed(f"timed out after {TIMEOUT_S:g} s")
    if child.code != 0:
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        raise CheckFailed(f"exit status {child.code}: {tail[0]}")


def _digest(out_dir: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _artifact_bytes(out_dir: Path) -> int:
    return sum(path.stat().st_size for path in out_dir.iterdir()) if out_dir.is_dir() else 0


def _rounds(workload: Workload, seconds: float, rng: random.Random):
    """Whole rounds over the workload's commands until ``seconds`` have passed."""
    start = perf_counter()
    while True:
        order = list(workload.invocations)
        rng.shuffle(order)
        yield from order
        if perf_counter() - start >= seconds:
            return


def _tail(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least TAIL_SAMPLES samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= TAIL_SAMPLES:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def _fail_note(outcomes: list[Outcome]) -> str:
    failed = sum(not o.ok for o in outcomes)
    return f"fail_ratio {failed / len(outcomes):.4f} ({failed} of {len(outcomes)})"


def measure(client: Client, workload: Workload, seconds: float, rng: random.Random):
    """Untraced run: end-to-end metrics and the lines that explain them."""
    setup = [client.setup_probe(workload.invocations[i % len(workload.invocations)].config)
             for i in range(SETUP_PROBES)]
    outcomes = [client.invoke(inv) for inv in _rounds(workload, seconds, rng)]
    walls = [o.child.ref_s for o in outcomes]
    wall_p50 = statistics.median(walls)
    mean_items = sum(o.inv.items for o in outcomes) / len(outcomes)
    metrics = {
        "setup_s": (statistics.median(c.ref_s for c in setup), "s"),
        "wall_s.p50": (wall_p50, "s"),
        "items_per_s": (mean_items / wall_p50, "1/s"),
        "peak_rss_mb": (statistics.median(o.child.rss_mb for o in outcomes), "MB"),
    }
    notes = [
        f"invocations {len(outcomes)}, set-up probes {SETUP_PROBES}, {mean_items:g}"
        f" {workload.item_unit} per invocation",
        _fail_note(outcomes),
        f"speed probe median {statistics.median(client.probes) * 1e3:.3f} ms over"
        f" {len(client.probes)} probes; times are in reference seconds"
        f" ({SPEED_REF_S * 1e3:g} ms per probe)",
        f"raw setup_s {statistics.median(c.wall_s for c in setup):.6f},"
        f" wall_s.p50 {statistics.median(o.child.wall_s for o in outcomes):.6f}",
    ]
    tail = _tail(walls)
    notes.append(
        f"wall_s.p{tail[0]} {tail[1]:.6f} s (n={len(walls)})" if tail
        else f"no tail percentile: n={len(walls)} leaves fewer than {TAIL_SAMPLES} samples beyond p75"
    )
    if workload.name == "cli_demo":
        for inv in workload.invocations:
            per = [o.child.ref_s for o in outcomes if o.inv is inv]
            notes.append(f"wall_s.{inv.label} {statistics.median(per):.6f} s (n={len(per)})")
    return metrics, outcomes, notes


# per-layer metrics: name -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "import.total_ms": "ms",
    "import.numpy_ms": "ms",
    "import.agiecon_ms": "ms",
    "config.parse_ms": "ms",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "scenario.run_s": "s",
    "scenario.us_per_step": "us",
    "models.technology_calls_per_step": "count",
    "production.output_calls_per_step": "count",
    "production.marginal_product_calls_per_step": "count",
    "production.s": "s",
    "transition.power_curve_s": "s",
    "transition.us_per_point": "us",
    "transition.human_power_calls": "count",
    "formatting.calls": "count",
    "formatting.us_per_call": "us",
    "formatting.s": "s",
    "svg.line_chart_s": "s",
    "svg.bytes": "bytes",
    "calibration.fit_s": "s",
    "calibration.samples": "count",
    "diagnostics.run_s": "s",
    "trace.overhead_ratio": "ratio",
}

# per-layer metric -> the traced boundaries that feed it; 0 when none is called
_SCENARIO = ("cli.run_scenario",)
_NEEDS = {
    "scenario.run_s": _SCENARIO,
    "scenario.us_per_step": _SCENARIO,
    "models.technology_calls_per_step": _SCENARIO,
    "production.output_calls_per_step": _SCENARIO,
    "production.marginal_product_calls_per_step": _SCENARIO,
    "production.s": _SCENARIO,
    "transition.power_curve_s": ("cli.power_curve",),
    "transition.us_per_point": ("cli.power_curve",),
    "transition.human_power_calls": ("scenario.human_power", "transition.human_power"),
    "formatting.calls": ("cli.format_number",),
    "formatting.us_per_call": ("cli.format_number",),
    "formatting.s": ("cli.format_number",),
    "svg.line_chart_s": ("cli.line_chart",),
    "svg.bytes": ("cli.line_chart",),
    "calibration.fit_s": ("cli.fit_cobb_douglas",),
    "calibration.samples": ("cli.fit_cobb_douglas",),
    "diagnostics.run_s": ("cli.run_diagnostics",),
}


class LayerTotals:
    """Sums over the traced invocations of a run."""

    def __init__(self) -> None:
        self.invocations = 0
        self.self_s = 0.0
        self.artifact_bytes = 0
        self.span_s: dict[str, float] = {}
        self.span_items: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.leaf_s: dict[str, float] = {}

    def add(self, spans_file: Path, artifact_bytes: int) -> None:
        data = json.loads(spans_file.read_text(encoding="utf-8"))
        spans, leaves = data["spans"], data["leaves"]
        self.invocations += 1
        self.artifact_bytes += artifact_bytes
        for name, start, end, _, items in spans:
            self.span_s[name] = self.span_s.get(name, 0.0) + (end - start)
            self.span_items[name] = self.span_items.get(name, 0) + (items or 0)
            self.calls[name] = self.calls.get(name, 0) + 1
        for name, _, calls, seconds in leaves:
            self.calls[name] = self.calls.get(name, 0) + calls
            self.leaf_s[name] = self.leaf_s.get(name, 0.0) + seconds
        # self time of main: its span minus the part its children cover
        main = next(i for i, span in enumerate(spans) if span[0] == "cli.main")
        own = spans[main][2] - spans[main][1]
        own -= sum(end - start for _, start, end, parent, _ in spans if parent == main)
        own -= sum(seconds for _, parent, _, seconds in leaves if parent == main)
        self.self_s += own

    def metrics(self) -> dict[str, float]:
        n = self.invocations
        steps = self.span_items.get("cli.run_scenario", 0)
        points = self.span_items.get("cli.power_curve", 0)
        fmt_calls = self.calls.get("cli.format_number", 0)
        fmt_s = self.leaf_s.get("cli.format_number", 0.0)
        production_s = self.leaf_s.get("scenario.output", 0.0)
        production_s += self.leaf_s.get("scenario.marginal_product", 0.0)

        def per_step(name: str) -> float:
            return self.calls.get(name, 0) / steps if steps else 0.0

        return {
            "config.parse_ms": 1e3 * self.span_s.get("cli.parse_config_file", 0.0) / n,
            "cli.self_s": self.self_s / n,
            "cli.artifact_bytes": self.artifact_bytes / n,
            "scenario.run_s": self.span_s.get("cli.run_scenario", 0.0) / n,
            "scenario.us_per_step":
                1e6 * self.span_s.get("cli.run_scenario", 0.0) / steps if steps else 0.0,
            "models.technology_calls_per_step": per_step("scenario.model_technology"),
            "production.output_calls_per_step": per_step("scenario.output"),
            "production.marginal_product_calls_per_step": per_step("scenario.marginal_product"),
            "production.s": production_s / n,
            "transition.power_curve_s": self.span_s.get("cli.power_curve", 0.0) / n,
            "transition.us_per_point":
                1e6 * self.span_s.get("cli.power_curve", 0.0) / points if points else 0.0,
            "transition.human_power_calls": (self.calls.get("scenario.human_power", 0)
                                             + self.calls.get("transition.human_power", 0)) / n,
            "formatting.calls": fmt_calls / n,
            "formatting.us_per_call": 1e6 * fmt_s / fmt_calls if fmt_calls else 0.0,
            "formatting.s": fmt_s / n,
            "svg.line_chart_s": self.span_s.get("cli.line_chart", 0.0) / n,
            "svg.bytes": self.span_items.get("cli.line_chart", 0) / n,
            "calibration.fit_s": self.span_s.get("cli.fit_cobb_douglas", 0.0) / n,
            "calibration.samples": self.span_items.get("cli.fit_cobb_douglas", 0) / n,
            "diagnostics.run_s": self.span_s.get("cli.run_diagnostics", 0.0) / n,
        }

    def called(self, boundaries: tuple[str, ...]) -> bool:
        return any(self.calls.get(name) for name in boundaries)


def trace(client: Client, workload: Workload, seconds: float, rng: random.Random):
    """Traced run: per-layer metrics from paired untraced and traced commands."""
    probes = [client.import_probe() for _ in range(IMPORT_PROBES)]
    totals = LayerTotals()
    outcomes, plain_s, traced_s = [], 0.0, 0.0
    spans = client.work / "spans.json"
    for inv in _rounds(workload, seconds, rng):
        plain = client.invoke(inv)
        spans.unlink(missing_ok=True)
        traced = client.invoke(inv, spans=spans)
        outcomes += [plain, traced]
        plain_s += plain.child.ref_s
        traced_s += traced.child.ref_s
        if traced.ok:
            totals.add(spans, _artifact_bytes(inv.out_dir))
    if totals.invocations == 0:
        raise RuntimeError("no traced invocation succeeded")
    metrics = {name: statistics.median(p[name] for p in probes) for name in probes[0]}
    metrics.update(totals.metrics())
    scale = client.time_scale()
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("s", "ms", "us"):
            metrics[name] *= scale
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    notes = [
        f"traced invocations {totals.invocations}, untraced {len(outcomes) // 2},"
        f" import probes {IMPORT_PROBES}",
        _fail_note(outcomes),
        "per-invocation figures are means over the traced invocations;"
        " trace.overhead_ratio is traced over untraced wall time of the same commands",
        f"speed probe median {SPEED_REF_S / scale * 1e3:.3f} ms over {len(client.probes)}"
        f" probes: times above are raw times x {scale:.4f}",
    ]
    notes += [f"absent: {name} is 0 because {workload.name} never calls {' or '.join(needs)}"
              for name, needs in _NEEDS.items() if not totals.called(needs)]
    ordered = {name: (metrics[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    return ordered, outcomes, notes


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists() and shutil.which("git"):
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = found.stdout.strip() or commit
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, size: str, work: Path):
    workload = workloads.build(name, ROOT, work / name, seed, size)
    print(f"# workload {name}: params {json.dumps(workload.params, sort_keys=True)}")
    client = Client(work)
    # fill the bytecode and page caches before anything is timed
    client.invoke(workload.invocations[0])
    rng = random.Random(seed)
    if traced:
        metrics, outcomes, notes = trace(client, workload, seconds, rng)
    else:
        metrics, outcomes, notes = measure(client, workload, seconds, rng)
    for metric, (value, unit) in metrics.items():
        print(f"{name:14s} {metric:44s} {value:16.6f} {unit}")
    for note in notes:
        print(f"{name:14s} {note}")
    return metrics, outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size; tiny is for the smoke test of the benchmark")
    args = parser.parse_args(argv)

    missing = [rel for rel in _REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not an agiecon checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so children are stopped and inputs removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"# env {json.dumps(environment(args.seed), sort_keys=True)}")
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.size, work)
            for name in names
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(len(outcomes) for _, outcomes in results.values())
    failed = sum(not o.ok for _, outcomes in results.values() for o in outcomes)
    metrics = {}
    for name, (values, _) in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        metrics.update({prefix + metric: {"value": value, "unit": unit}
                        for metric, (value, unit) in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
