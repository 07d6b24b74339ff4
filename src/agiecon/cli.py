"""Config-driven command line frontend.

    agiecon <eval|sweep|simulate|fit|check> --config FILE --out DIR

eval      evaluate one model: writes eval.csv (output and each wage)
sweep     power-decline curve(s): writes power_curve.csv and power_curve.svg;
          --points N overrides the grid size, --lambda X (repeatable)
          overlays one curve per decay constant
simulate  run a displacement scenario: writes series.csv and prints a
          collapse line when w_h crosses the threshold or has no baseline
fit       recover Cobb-Douglas parameters from a sample CSV: writes fit.csv
check     run the diagnostic suite: writes check.txt, exits 2 on any FAIL

Exit status: 0 success, 1 usage or config error, 2 domain or computation
error.  No environment variables are consulted; all state flows through
flags and the config file.  Repeated runs emit byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path

from .calibration import fit_cobb_douglas, read_samples
from .config import ParsedConfig, build_scenario_config, parse_config_file
from .diagnostics import run_diagnostics
from .errors import ConfigError, DomainError, EconError, UndefinedBaselineError, UsageError
from .formatting import _BLOCK_ROWS, format_number, format_rows
from .models import model_output, model_wages
from .scenario import detect_collapse, run_scenario
from .svg import check_n_curves, line_chart
from .transition import check_n_points, power_columns, power_curve


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="agiecon", description=__doc__, add_help=True)
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in _DISPATCH:
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


def _write_all(artifacts: dict[Path, Iterable[str]]) -> None:
    """Write every artifact or, on failure, leave each path as it was.

    Each artifact is an iterable of text chunks, such as ``format_rows``'
    blocks, and its chunks go one by one into a temp file beside its path,
    so a large CSV is never held as one string.  Only once all are written
    are they renamed into place, in order.  If a rename fails, those already
    done are undone: a file that was there before is restored from a hard
    link taken just before its rename, and a new one is removed (as is one
    whose old file could not be linked).  Any error, including one raised
    by a chunk iterator part way through, removes every temp file.  An
    ``OSError`` becomes a ``UsageError`` naming the path it struck.
    """
    pid = os.getpid()
    staged = [(path, path.with_name(f".{path.name}.{pid}.tmp")) for path in artifacts]
    backups: list[Path] = []
    placed: list[tuple[Path, Path | None]] = []
    try:
        for path, temp in staged:
            failing = path
            with open(temp, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(artifacts[path])
        for path, temp in staged:
            failing = path
            backup: Path | None = path.with_name(f".{path.name}.{pid}.old")
            try:
                os.link(path, backup, follow_symlinks=False)
            except OSError:  # no old file, or one that cannot be linked
                backup = None
            else:
                backups.append(backup)
            os.replace(temp, path)
            placed.append((path, backup))
    except BaseException as exc:
        for path, backup in reversed(placed):
            with contextlib.suppress(OSError):  # the first failure is the one reported
                if backup is None:
                    path.unlink()
                else:
                    os.replace(backup, path)
        if isinstance(exc, OSError):
            raise _cannot_write(failing, exc) from exc
        raise
    finally:
        for path in [temp for _, temp in staged] + backups:
            path.unlink(missing_ok=True)


def _cannot_write(path: Path, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _cmd_eval(parsed: ParsedConfig, out_dir: Path, args) -> int:
    if parsed.model_params is None:
        raise ConfigError("eval needs a [model] section")
    y = model_output(parsed.model_params)
    wages = model_wages(parsed.model_params)
    lines = ["quantity,value", f"Y,{format_number(y)}"]
    lines += [f"w_{factor},{format_number(wage)}" for factor, wage in wages.items()]
    _write_all({out_dir / "eval.csv": ["\n".join(lines) + "\n"]})
    return 0


def _cmd_sweep(parsed: ParsedConfig, out_dir: Path, args) -> int:
    n_points = parsed.n_points
    if args.points is not None:
        try:
            check_n_points(args.points)
        except DomainError as exc:
            raise UsageError(f"--points: {exc}") from exc
        n_points = args.points
    lambdas = args.lambdas if args.lambdas else [parsed.transition.lam]
    try:
        check_n_curves(len(lambdas))
        params = [parsed.transition._replace(lam=lam) for lam in lambdas]
    except DomainError as exc:
        raise UsageError(f"--lambda: {exc}") from exc

    # The CSV schema has no lambda column, so it carries the first curve;
    # the SVG overlays the whole family, each p_h over the first curve's grid.
    first = power_curve(params[0], n_points)
    p_h = [first.p_h] + [power_columns(tp, first.l_agi)[2] for tp in params[1:]]
    chart = line_chart(
        xs=first.l_agi,
        curves=[(f"lambda={tp.lam:g}", ys) for tp, ys in zip(params, p_h)],
        title="Human economic power vs AGI labor share",
        x_label="AGI labor share",
        y_label="human share of labor income",
    )
    _write_all(
        {
            out_dir / "power_curve.csv": chain(
                ["L_AGI,w_h,w_AGI,P_h\n"],
                # P_h is nan where the index is undefined
                format_rows(zip(first.l_agi, first.w_h, first.w_agi, first.p_h), nan_columns=(3,)),
            ),
            out_dir / "power_curve.svg": [chart],
        }
    )
    return 0


_SERIES_HEADER = "t,s,beta1,beta2,K,K_AGI,L_h,L_AGI,Y,w_h,w_AGI,p_h_elastic,p_h_transition,wage_bill"


def _cmd_simulate(parsed: ParsedConfig, out_dir: Path, args) -> int:
    """Write series.csv one window of ``_BLOCK_ROWS`` steps at a time.

    Each window's records are computed, searched for the collapse step,
    formatted and written before the next is computed, so the command holds
    one window of the run however long its horizon.  A window that fails
    raises inside ``_write_all``, which leaves the out directory as it was.
    """
    cfg = build_scenario_config(parsed)
    theta = cfg.collapse_threshold
    collapse: list[str] = []  # the collapse line, once a window has settled it

    def blocks() -> Iterator[str]:
        yield _SERIES_HEADER + "\n"
        steps = range(cfg.horizon + 1)
        for start in range(0, len(steps), _BLOCK_ROWS):
            window = run_scenario(cfg, steps[start:start + _BLOCK_ROWS])
            if start == 0:
                baseline = window[0].w_h
            if not collapse:
                try:
                    step = detect_collapse(window, theta, baseline)
                except UndefinedBaselineError as exc:
                    collapse.append(f"collapse: undefined: {exc}")
                else:
                    if step is not None:
                        collapse.append(
                            f"collapse: human wage fell below {theta:g} of its initial value"
                            f" at step {step}"
                        )
            # each record is a row in header order; t is an integer, and
            # w_AGI and p_h_transition may be nan
            yield from format_rows(window, integer_columns=(0,), nan_columns=(10, 12))

    _write_all({out_dir / "series.csv": blocks()})
    for line in collapse:
        print(line)
    return 0


def _cmd_fit(parsed: ParsedConfig, out_dir: Path, args) -> int:
    if parsed.fit is None:
        raise ConfigError("fit needs a [fit] section")
    input_path = Path(parsed.fit.input_path)
    if not input_path.is_absolute():
        input_path = Path(args.config).resolve().parent / input_path
    table = read_samples(input_path, parsed.fit.factor_names)
    result = fit_cobb_douglas(table, parsed.fit.factor_names)
    lines = ["parameter,value", f"A,{format_number(result.tfp_estimate)}"]
    lines += [
        f"e_{name},{format_number(value)}" for name, value in result.elasticity_estimates.items()
    ]
    lines.append(f"rss,{format_number(result.residual_sum_squares)}")
    lines.append(f"n_samples,{result.sample_count}")
    _write_all({out_dir / "fit.csv": ["\n".join(lines) + "\n"]})
    return 0


def _cmd_check(parsed: ParsedConfig, out_dir: Path, args) -> int:
    diagnostics = run_diagnostics()
    _write_all({out_dir / "check.txt": ["\n".join(d.line() for d in diagnostics) + "\n"]})
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
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _cannot_write(out_dir, exc) from exc
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
