"""Seeded inputs and output checks for the benchmark workloads.

Every workload is a list of CLI invocations of ``agiecon``.  The generated
workloads (``simulate_long``, ``sweep_dense``, ``fit_large``) draw their
configs and sample files from the seed and write them to a work directory;
the program sees only those files.  ``cli_demo`` runs the committed demo
configs, and its seed only shuffles the order of the commands.

Each invocation carries a check that reads the artifacts it wrote and
raises ``CheckFailed`` when they are wrong; the caller has already checked
the exit status.  The checks of generated
workloads compare against invariants computed here from the drawn
parameters, never against the program's own code.

Run on its own, this module writes the inputs of one workload and prints
the drawn parameters:

    python3 perfbench/workloads.py --workload fit_large --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("cli_demo", "simulate_long", "sweep_dense", "fit_large")

# Input sizes.  "full" is what the benchmark measures; "tiny" is for the
# smoke test of the benchmark itself.
SIZES = {
    "full": {"horizon": 20_000, "points": 50_000, "rows": 100_000},
    "tiny": {"horizon": 200, "points": 500, "rows": 400},
}

# Number of random spot rows compared against a closed form per artifact.
_SPOT_ROWS = 25
# Relative tolerance for a 9-digit serialized number against a closed form
# evaluated in a different order.
_REL_TOL = 1e-8


class CheckFailed(Exception):
    """An artifact is not what the inputs imply."""


@dataclass
class Invocation:
    """One CLI run: ``agiecon <argv>`` plus the check of what it wrote."""

    label: str
    argv: list[str]
    config: Path
    out_dir: Path
    items: int
    check: Callable[[Path], None]  # called with out_dir


@dataclass
class Workload:
    name: str
    item_unit: str
    invocations: list[Invocation]
    params: dict  # what the seed drew, printed with the results


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(got: float, want: float, rel: float = _REL_TOL, what: str = "value") -> None:
    _require(
        abs(got - want) <= rel * abs(want) + 1e-300,
        f"{what}: got {got!r}, closed form gives {want!r}",
    )


def _read_csv(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    _require(lines[-1] == "", f"{path.name} does not end with a newline")
    return lines[0], [line.split(",") for line in lines[1:-1]]


def _write_config(path: Path, sections: dict[str, dict[str, object]]) -> Path:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in values.items()]
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# cli_demo: the committed configs, byte-compared with the committed goldens


def _exact_bytes(golden: Path, artifact: str):
    expected = golden.read_bytes()

    def check(out_dir: Path) -> None:
        got = (out_dir / artifact).read_bytes()
        _require(got == expected, f"{artifact} differs from {golden.name} golden")

    return check


def _check_demo_sweep(golden: Path):
    csv_check = _exact_bytes(golden, "power_curve.csv")

    def check(out_dir: Path) -> None:
        csv_check(out_dir)
        svg = (out_dir / "power_curve.svg").read_text(encoding="utf-8")
        _require(svg.count("<polyline") == 1, "power_curve.svg must hold one polyline")

    return check


def _check_demo_eval(out_dir: Path) -> None:
    # the worked example of the README: Y = 30, w_L_h = 0.6, w_L_AGI = 21
    header, rows = _read_csv(out_dir / "eval.csv")
    _require(header == "quantity,value", f"eval.csv header {header!r}")
    got = {name: float(value) for name, value in rows}
    _require(set(got) == {"Y", "w_L_h", "w_L_AGI"}, f"eval.csv rows {sorted(got)}")
    for name, want in (("Y", 30.0), ("w_L_h", 0.6), ("w_L_AGI", 21.0)):
        _close(got[name], want, rel=1e-9, what=f"eval {name}")


def _check_demo_check(out_dir: Path) -> None:
    lines = (out_dir / "check.txt").read_text(encoding="utf-8").splitlines()
    _require(len(lines) > 0, "check.txt is empty")
    bad = [line for line in lines if not line.startswith("PASS ")]
    _require(not bad, f"check.txt has non-PASS lines: {bad[:3]}")


def _cli_demo(root: Path, work: Path, seed: int, size: dict) -> Workload:
    configs = root / "configs"
    golden = root / "tests" / "golden"
    table = [
        ("eval", "eval_model3.ini", _check_demo_eval),
        ("sweep", "sweep_default.ini", _check_demo_sweep(golden / "power_curve.csv")),
        ("simulate", "simulate_demo.ini", _exact_bytes(golden / "series.csv", "series.csv")),
        ("fit", "fit_demo.ini", _exact_bytes(golden / "fit.csv", "fit.csv")),
        ("check", "sweep_default.ini", _check_demo_check),
    ]
    invocations = []
    for command, config, check in table:
        out_dir = work / f"demo_{command}"
        invocations.append(
            Invocation(
                label=command,
                argv=[command, "--config", str(configs / config), "--out", str(out_dir)],
                config=configs / config,
                out_dir=out_dir,
                items=1,
                check=check,
            )
        )
    return Workload("cli_demo", "commands", invocations, {"configs": [c for _, c, _ in table]})


# --------------------------------------------------------------------------
# simulate_long: model_iii scenarios with long horizons


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0.0 else math.exp(z) / (1.0 + math.exp(z))


def _share(p: dict, t: int) -> float:
    horizon = p["horizon"]
    if p["adoption"] == "linear":
        return t / horizon
    if p["adoption"] == "logistic":
        low = _sigmoid(-p["k"] * p["t0"])
        high = _sigmoid(p["k"] * (horizon - p["t0"]))
        return (_sigmoid(p["k"] * (t - p["t0"])) - low) / (high - low)
    return -math.expm1(-p["r"] * t) / -math.expm1(-p["r"] * horizon)


def _power(x: float, e: float) -> float:
    # 0**0 == 1 and 0**e == 0 for e > 0, as the model defines its corners
    return 1.0 if e == 0.0 else (0.0 if x == 0.0 else x**e)


_SERIES_HEADER = (
    "t,s,beta1,beta2,K,K_AGI,L_h,L_AGI,Y,w_h,w_AGI,p_h_elastic,p_h_transition,wage_bill"
)


def _check_series(p: dict, spot_seed: int):
    def check(out_dir: Path) -> None:
        header, rows = _read_csv(out_dir / "series.csv")
        horizon = p["horizon"]
        _require(header == _SERIES_HEADER, f"series.csv header {header!r}")
        _require(len(rows) == horizon + 1, f"{len(rows)} rows, want {horizon + 1}")
        total = p["beta1"] + p["beta2"]
        previous = -1.0
        for t, row in enumerate(rows):
            _require(len(row) == 14 and row[0] == str(t), f"row {t} malformed")
            s, beta1, beta2 = float(row[1]), float(row[2]), float(row[3])
            _require(previous <= s <= 1.0, f"row {t}: s={s!r} leaves [s(t-1), 1]")
            previous = s
            _require(abs(beta1 + beta2 - total) <= 1e-8, f"row {t}: beta1 + beta2 drifts")
        _require(float(rows[0][1]) == 0.0 and float(rows[-1][1]) == 1.0, "s must run 0 -> 1")
        _require(float(rows[-1][9]) == 0.0, "final w_h must be 0")
        # the AGI wage at s = 0 is nan exactly when AGI labor starts with elasticity
        _require((rows[0][10] == "nan") == (p["beta2"] > 0.0), f"row 0: w_AGI={rows[0][10]}")
        spots = random.Random(spot_seed).sample(range(horizon + 1), min(_SPOT_ROWS, horizon + 1))
        for t in sorted({0, horizon, *spots}):
            s = _share(p, t)
            b1 = p["beta1"] * (1.0 - s)
            b2 = p["beta2"] + p["beta1"] * s
            k_agi = p["K_AGI"] * (1.0 + p["growth"]) ** t
            y = (p["A"] * p["K"] ** p["alpha"] * k_agi ** p["gamma"]
                 * _power(1.0 - s, b1) * _power(s, b2))
            _close(float(rows[t][1]), s, what=f"row {t} s")
            _close(float(rows[t][5]), k_agi, what=f"row {t} K_AGI")
            _close(float(rows[t][8]), y, what=f"row {t} Y")

    return check


def _simulate_long(root: Path, work: Path, seed: int, size: dict) -> Workload:
    rng = random.Random(seed)
    horizon = size["horizon"]
    invocations, drawn = [], []
    # every run holds all three adoption paths, each with and without
    # initial AGI-labor elasticity, so the cost of a run does not hinge on
    # which kinds the seed happened to pick
    for index, (adoption, beta2_positive) in enumerate(
        (kind, positive)
        for kind in ("linear", "logistic", "exp_saturating")
        for positive in (False, True)
    ):
        p = {
            "horizon": horizon,
            "adoption": adoption,
            "A": rng.uniform(0.5, 2.0),
            "K": rng.uniform(0.5, 4.0),
            "K_AGI": rng.uniform(0.5, 4.0),
            "alpha": rng.uniform(0.15, 0.35),
            "gamma": rng.uniform(0.1, 0.3),
            "beta1": rng.uniform(0.3, 0.6),
            "beta2": rng.uniform(0.05, 0.3) if beta2_positive else 0.0,
            # (1 + g)**horizon stays below e**10, so K_AGI stays finite
            "growth": rng.uniform(0.1, 0.5) / horizon,
            "lambda": rng.uniform(1.0, 5.0),
            "w0": rng.uniform(0.5, 1.5),
            "w_inf": rng.uniform(0.5, 2.0),
            "collapse_threshold": rng.uniform(0.3, 0.7),
        }
        scenario = {"horizon": horizon, "adoption": adoption}
        if adoption == "logistic":
            p["k"] = rng.uniform(4.0, 12.0) / horizon
            p["t0"] = rng.uniform(0.3, 0.7) * horizon
            scenario.update(k=p["k"], t0=p["t0"])
        elif adoption == "exp_saturating":
            p["r"] = rng.uniform(1.0, 8.0) / horizon
            scenario["r"] = p["r"]
        scenario.update(growth=p["growth"], collapse_threshold=p["collapse_threshold"])
        model = {"id": "model_iii"}
        model.update({key: p[key] for key in ("A", "K", "K_AGI")})
        model.update(L_h=1.0, L_AGI=0.0)
        model.update({key: p[key] for key in ("alpha", "gamma", "beta1", "beta2")})
        config = _write_config(
            work / f"simulate_{index}.ini",
            {
                "model": model,
                "transition": {"w0": p["w0"], "w_inf": p["w_inf"], "lambda": p["lambda"]},
                "scenario": scenario,
            },
        )
        out_dir = work / f"simulate_{index}"
        invocations.append(
            Invocation(
                label=f"simulate_{adoption}_{'b2pos' if beta2_positive else 'b2zero'}",
                argv=["simulate", "--config", str(config), "--out", str(out_dir)],
                config=config,
                out_dir=out_dir,
                items=horizon + 1,
                check=_check_series(p, rng.randrange(2**32)),
            )
        )
        drawn.append(p)
    return Workload("simulate_long", "steps", invocations, {"configs": drawn})


# --------------------------------------------------------------------------
# sweep_dense: dense power curves with several decay constants


def _check_curve(p: dict, spot_seed: int):
    def check(out_dir: Path) -> None:
        header, rows = _read_csv(out_dir / "power_curve.csv")
        n = p["points"]
        _require(header == "L_AGI,w_h,w_AGI,P_h", f"power_curve.csv header {header!r}")
        _require(len(rows) == n, f"{len(rows)} rows, want {n}")
        p_h = [float(row[3]) for row in rows]
        _require(p_h[0] == 1.0, f"P_h starts at {p_h[0]!r}, want 1")
        if p["w_inf"] > 0.0:
            _require(p_h[-1] == 0.0, f"P_h ends at {p_h[-1]!r}, want 0")
            _require(all(a > b for a, b in zip(p_h, p_h[1:])), "P_h is not strictly decreasing")
        else:
            # no AGI wage: the index is 1 until labor income vanishes at l = 1
            _require(all(v == 1.0 for v in p_h[:-1]), "P_h must stay 1 when w_inf = 0")
            _require(rows[-1][3] == "nan", "P_h at l = 1 must be nan when w_inf = 0")
        lam = p["lambdas"][0]
        spots = random.Random(spot_seed).sample(range(n), min(_SPOT_ROWS, n))
        for i in sorted({0, n - 1, *spots}):
            l_agi = i / (n - 1)
            decay = math.exp(-lam * l_agi)
            _close(float(rows[i][0]), l_agi, what=f"row {i} L_AGI")
            _close(float(rows[i][1]), p["w0"] * decay, what=f"row {i} w_h")
            _close(float(rows[i][2]), p["w_inf"] * (1.0 - decay), what=f"row {i} w_AGI")
            if 0 < i < n - 1:
                human = p["w0"] * decay * (1.0 - l_agi)
                want = human / (human + p["w_inf"] * (1.0 - decay) * l_agi)
                _close(p_h[i], want, what=f"row {i} P_h")
        svg = (out_dir / "power_curve.svg").read_text(encoding="utf-8")
        count = svg.count("<polyline")
        _require(count == len(p["lambdas"]), f"{count} polylines, want {len(p['lambdas'])}")

    return check


def _sweep_dense(root: Path, work: Path, seed: int, size: dict) -> Workload:
    rng = random.Random(seed)
    points = size["points"]
    invocations, drawn = [], []
    # the last config has no AGI wage, so the undefined-index nan path runs
    for index, w_inf_zero in enumerate((False, False, True)):
        # w_inf * lambda / w0 >= 1.5 keeps the first decrement of P_h,
        # about (w_inf * lambda / w0) / (points - 1)**2, above the 1e-10
        # resolution of the 9-digit serialization, so "strictly
        # decreasing" can be read off the CSV
        p = {
            "points": points,
            "w0": rng.uniform(0.5, 1.0),
            "w_inf": 0.0 if w_inf_zero else rng.uniform(1.0, 3.0),
            "lambdas": sorted(rng.uniform(1.5, 6.0) for _ in range(3)),
        }
        rng.shuffle(p["lambdas"])
        config = _write_config(
            work / f"sweep_{index}.ini",
            {"transition": {"w0": p["w0"], "w_inf": p["w_inf"], "lambda": p["lambdas"][0]}},
        )
        out_dir = work / f"sweep_{index}"
        argv = ["sweep", "--config", str(config), "--out", str(out_dir), "--points", str(points)]
        for lam in p["lambdas"]:
            argv += ["--lambda", repr(lam)]
        invocations.append(
            Invocation(
                label=f"sweep_{index}",
                argv=argv,
                config=config,
                out_dir=out_dir,
                items=points * len(p["lambdas"]),
                check=_check_curve(p, rng.randrange(2**32)),
            )
        )
        drawn.append(p)
    return Workload("sweep_dense", "points", invocations, {"configs": drawn})


# --------------------------------------------------------------------------
# fit_large: log-normal-noise samples of a known Cobb-Douglas technology

_FACTOR_NAMES = ("K", "L", "H", "E", "M")
# Per-row cost of reading a sample grows with the factor count; rows are
# scaled by this table so that every file costs about the same to fit and
# the mix of factor counts does not move the per-invocation median.
_ROW_SCALE = {2: 1.28, 3: 1.05, 4: 0.97, 5: 0.8}
_LOG_SPREAD = 1.0  # log-factors are uniform on [-1, 1]


def _check_fit(p: dict):
    n = p["rows"]
    sd = 2.0 * _LOG_SPREAD / math.sqrt(12.0)
    # eight standard errors of an OLS slope with this design, plus the
    # 9-digit serialization
    tol_e = 8.0 * p["noise"] / (sd * math.sqrt(n)) + 1e-8
    tol_log_a = 8.0 * p["noise"] * (1.0 + len(p["factors"])) / math.sqrt(n) + 1e-8

    def check(out_dir: Path) -> None:
        header, rows = _read_csv(out_dir / "fit.csv")
        _require(header == "parameter,value", f"fit.csv header {header!r}")
        names = ["A", *(f"e_{f}" for f in p["factors"]), "rss", "n_samples"]
        _require([row[0] for row in rows] == names, f"fit.csv rows {[r[0] for r in rows]}")
        got = {row[0]: row[1] for row in rows}
        _require(got["n_samples"] == str(n), f"n_samples={got['n_samples']}, want {n}")
        _require(float(got["rss"]) >= 0.0, "negative rss")
        err = abs(math.log(float(got["A"])) - math.log(p["A"]))
        _require(err <= tol_log_a, f"ln A off by {err:.3g} > {tol_log_a:.3g}")
        for factor, e in zip(p["factors"], p["elasticities"]):
            err = abs(float(got[f"e_{factor}"]) - e)
            _require(err <= tol_e, f"e_{factor} off by {err:.3g} > {tol_e:.3g}")

    return check


def _fit_large(root: Path, work: Path, seed: int, size: dict) -> Workload:
    rng = random.Random(seed)
    invocations, drawn = [], []
    for n_factors in (2, 3, 4, 5):
        factors = list(_FACTOR_NAMES[:n_factors])
        p = {
            "factors": factors,
            "rows": round(size["rows"] * _ROW_SCALE[n_factors]),
            "A": rng.uniform(0.5, 3.0),
            "elasticities": [rng.uniform(0.05, 0.6) for _ in factors],
            "noise": rng.uniform(0.005, 0.05),
        }
        samples = work / f"fit_{n_factors}.csv"
        lines = ["Y," + ",".join(factors)]
        log_a, uniform, gauss = math.log(p["A"]), rng.uniform, rng.gauss
        for _ in range(p["rows"]):
            logs = [uniform(-_LOG_SPREAD, _LOG_SPREAD) for _ in factors]
            log_y = log_a + gauss(0.0, p["noise"])
            log_y += sum(e * x for e, x in zip(p["elasticities"], logs))
            # 12 significant digits: far below the noise, and quick to write
            lines.append(",".join(["%.12g" % math.exp(v) for v in (log_y, *logs)]))
        samples.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = _write_config(
            work / f"fit_{n_factors}.ini",
            {"fit": {"factors": ", ".join(factors), "input": samples.name}},
        )
        out_dir = work / f"fit_{n_factors}"
        invocations.append(
            Invocation(
                label=f"fit_{n_factors}_factors",
                argv=["fit", "--config", str(config), "--out", str(out_dir)],
                config=config,
                out_dir=out_dir,
                items=p["rows"],
                check=_check_fit(p),
            )
        )
        drawn.append(p)
    return Workload("fit_large", "samples", invocations, {"files": drawn})


_BUILDERS = {
    "cli_demo": _cli_demo,
    "simulate_long": _simulate_long,
    "sweep_dense": _sweep_dense,
    "fit_large": _fit_large,
}


def build(name: str, root: Path, work: Path, seed: int, size: str = "full") -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    workload = _BUILDERS[name](root, work, seed, SIZES[size])
    workload.params.update(seed=seed, size=size)
    return workload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    workload = build(args.workload, root, args.out, args.seed, args.size)
    print(json.dumps(workload.params, indent=1))
    for inv in workload.invocations:
        print("agiecon " + " ".join(inv.argv))


if __name__ == "__main__":
    main()
