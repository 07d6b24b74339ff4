"""Config-driven command line frontend.

    agiecon <eval|sweep|simulate|fit|check> --config FILE --out DIR

eval      evaluate one model: writes eval.csv (output and each wage)
sweep     power-decline curve(s): writes power_curve.csv and power_curve.svg;
          --points N overrides the grid size, --lambda X (repeatable)
          overlays one curve per decay constant
simulate  run a displacement scenario: writes series.csv and prints a
          collapse report line when the human wage crosses the threshold
fit       recover Cobb-Douglas parameters from a sample CSV: writes fit.csv
check     run the diagnostic suite: writes check.txt, exits 2 on any FAIL

Exit status: 0 success, 1 usage or config error, 2 domain or computation
error.  No environment variables are consulted; all state flows through
flags and the config file.  Repeated runs emit byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields, replace
from operator import attrgetter
from pathlib import Path

from .calibration import Sample, fit_cobb_douglas
from .config import (
    ParsedConfig,
    build_scenario_config,
    parse_config_file,
)
from .diagnostics import run_diagnostics
from .errors import ConfigError, EconError, UndefinedBaselineError, UsageError
from .formatting import format_number, format_rows
from .models import model_output, model_wages
from .production import FactorBundle
from .scenario import TimeSeriesRecord, detect_collapse, run_scenario
from .svg import line_chart
from .transition import power_curve

_COMMANDS = ("eval", "sweep", "simulate", "fit", "check")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="agiecon", description=__doc__, add_help=True)
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in _COMMANDS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", required=True, help="path to the config file")
        sub.add_argument("--out", required=True, help="directory for emitted artifacts")
        if name == "sweep":
            sub.add_argument("--points", type=int, default=None, help="override n_points")
            sub.add_argument(
                "--lambda",
                dest="lambdas",
                type=float,
                action="append",
                default=None,
                metavar="X",
                help="decay constant; repeat to overlay curves",
            )
    return parser


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _cmd_eval(parsed: ParsedConfig, out_dir: Path, args) -> int:
    if parsed.model_id is None:
        raise ConfigError("eval needs a [model] section")
    y = model_output(parsed.model_id, parsed.model_params)
    wages = model_wages(parsed.model_id, parsed.model_params)
    lines = ["quantity,value", f"Y,{format_number(y)}"]
    lines += [f"w_{factor},{format_number(wage)}" for factor, wage in wages.items()]
    _write(out_dir / "eval.csv", "\n".join(lines) + "\n")
    return 0


def _cmd_sweep(parsed: ParsedConfig, out_dir: Path, args) -> int:
    n_points = parsed.n_points
    if args.points is not None:
        if args.points < 2:
            raise UsageError(f"--points must be >= 2, got {args.points}")
        n_points = args.points
    lambdas = args.lambdas if args.lambdas else [parsed.transition.lam]
    for lam in lambdas:
        if not math.isfinite(lam) or lam <= 0.0:
            raise UsageError(f"--lambda must be a positive finite real, got {lam!r}")

    curves = [
        (lam, power_curve(replace(parsed.transition, lam=lam), n_points)) for lam in lambdas
    ]

    # The CSV schema has no lambda column, so it carries the first curve;
    # the SVG overlays the whole family.
    rows = [(p.l_agi, p.w_h, p.w_agi, p.p_h) for p in curves[0][1]]
    body = format_rows(rows, nan_columns=(3,))  # P_h is nan where the index is undefined
    _write(out_dir / "power_curve.csv", "L_AGI,w_h,w_AGI,P_h\n" + body)

    chart = line_chart(
        curves=[
            (f"lambda={lam:g}", [(p.l_agi, p.p_h) for p in points]) for lam, points in curves
        ],
        title="Human economic power vs AGI labor share",
        x_label="AGI labor share",
        y_label="human share of labor income",
    )
    _write(out_dir / "power_curve.svg", chart)
    return 0


_SERIES_HEADER = "t,s,beta1,beta2,K,K_AGI,L_h,L_AGI,Y,w_h,w_AGI,p_h_elastic,p_h_transition,wage_bill"
_SERIES_FIELDS = attrgetter(*(f.name for f in fields(TimeSeriesRecord)))  # in header order


def _cmd_simulate(parsed: ParsedConfig, out_dir: Path, args) -> int:
    cfg = build_scenario_config(parsed)
    series = run_scenario(cfg)
    rows = list(map(_SERIES_FIELDS, series))
    # t is an integer; w_AGI and p_h_transition may be nan
    body = format_rows(rows, integer_columns=(0,), nan_columns=(10, 12))
    _write(out_dir / "series.csv", _SERIES_HEADER + "\n" + body)
    try:
        step = detect_collapse(series, cfg.collapse_threshold)
    except UndefinedBaselineError:
        step = None
    if step is not None:
        print(
            f"collapse: human wage fell below {cfg.collapse_threshold:g} of its"
            f" initial value at step {step}"
        )
    return 0


def _cmd_fit(parsed: ParsedConfig, out_dir: Path, args) -> int:
    if parsed.fit is None:
        raise ConfigError("fit needs a [fit] section")
    input_path = Path(parsed.fit.input_path)
    if not input_path.is_absolute():
        input_path = Path(args.config).resolve().parent / input_path
    samples = _read_samples(input_path, parsed.fit.factor_names)
    result = fit_cobb_douglas(samples, parsed.fit.factor_names)
    lines = ["parameter,value", f"A,{format_number(result.tfp_estimate)}"]
    lines += [
        f"e_{name},{format_number(value)}" for name, value in result.elasticity_estimates.items()
    ]
    lines.append(f"rss,{format_number(result.residual_sum_squares)}")
    lines.append(f"n_samples,{result.sample_count}")
    _write(out_dir / "fit.csv", "\n".join(lines) + "\n")
    return 0


def _read_samples(path: Path, factor_names: tuple[str, ...]) -> list[Sample]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ConfigError(f"cannot read sample file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"sample file {path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0] != "Y":
        raise ConfigError(f"sample file {path}: first column must be Y")
    missing = [name for name in factor_names if name not in header[1:]]
    if missing:
        raise ConfigError(f"sample file {path}: missing factor columns {missing}")
    samples: list[Sample] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ConfigError(f"sample file {path}: row {line_no} has {len(row)} cells")
        try:
            values = {name: float(cell) for name, cell in zip(header, row)}
        except ValueError as exc:
            raise ConfigError(f"sample file {path}: row {line_no}: {exc}") from None
        bundle = FactorBundle(tuple((name, values[name]) for name in factor_names))
        samples.append(Sample(bundle=bundle, output=values["Y"]))
    return samples


def _cmd_check(parsed: ParsedConfig, out_dir: Path, args) -> int:
    diagnostics = run_diagnostics()
    _write(out_dir / "check.txt", "\n".join(d.line() for d in diagnostics) + "\n")
    return 0 if all(d.ok for d in diagnostics) else 2


_DISPATCH = {
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        parsed = parse_config_file(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[args.command](parsed, out_dir, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except EconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
