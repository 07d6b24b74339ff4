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
error.  A command that fails leaves --out as it was, removing any directory
it made for it.  A stdout that cannot be written is a usage error and
fails the command in the same way: simulate prints and flushes its
collapse line before it renames series.csv into place.  No environment
variables are consulted; all state flows through flags and the config
file.  Repeated runs emit byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import takewhile
from pathlib import Path

from .config import ParsedConfig, build_scenario_config, parse_config_file
from .errors import ConfigError, DomainError, EconError, UndefinedBaselineError, UsageError
from .formatting import format_columns, format_number
from .models import model_output, model_wages
from .scenario import TimeSeriesRecord, collapse_step, run_columns
from .transition import PowerCurve, check_n_points, power_curve, power_index

# unused by the commands, kept importable: perfbench/tracer.py wraps these names here
from .scenario import detect_collapse, run_scenario  # noqa: F401


class _HelpShown(Exception):
    """The help text was printed; ``main`` returns 0."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)

    def print_help(self):  # argparse would drop a failed write silently
        _print_all([self.format_help().rstrip("\n")])

    def exit(self, status=0, message=None):  # only the help action gets here
        raise _HelpShown


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


def _write_all(artifacts: dict[Path, Iterable[bytes]]) -> None:
    """Write every artifact or, on failure, leave each path as it was.

    Each artifact is an iterable of byte chunks, such as the formatted
    windows of ``sweep`` and ``simulate``, and its chunks go one by one into
    a temp file opened in binary mode beside its path, so a large CSV is
    never held as one object and its bytes are not encoded a second time.
    Only once all are written are they renamed into place, in order.  If a
    rename fails, those already done are undone: a file that was there
    before is restored from a hard link taken just before its rename, and a
    new one is removed (as is one whose old file could not be linked).  Any
    error, including one raised by a chunk iterator part way through,
    removes every temp file.  An ``OSError`` becomes a ``UsageError`` naming
    the path it struck.
    """
    pid = os.getpid()
    staged = [(path, path.with_name(f".{path.name}.{pid}.tmp")) for path in artifacts]
    backups: list[Path] = []
    placed: list[tuple[Path, Path | None]] = []
    try:
        for path, temp in staged:
            failing = path
            with open(temp, "wb") as handle:
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


def _print_all(lines: list[str]) -> None:
    """Print ``lines`` to stdout and flush them.

    A stdout that cannot be written (a full disk, a closed pipe) is a
    ``UsageError``; its file descriptor, fd 1 for the command, then points
    at ``os.devnull``, so the interpreter's flush of the unwritten lines at
    exit fails no second time.
    """
    try:
        for line in lines:
            print(line, flush=True)  # a no-op where fd 1 was closed at start
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise UsageError(f"cannot write stdout: {exc.strerror or exc}") from exc


# Only sweep, fit and check use svg, calibration (with csv) and diagnostics,
# so these three import their module on first call.  The commands call them
# through these module-level names, which perfbench/tracer.py wraps.
def fit_cobb_douglas(table, factor_names):
    from .calibration import fit_cobb_douglas

    return fit_cobb_douglas(table, factor_names)


def run_diagnostics():
    from .diagnostics import run_diagnostics

    return run_diagnostics()


def line_chart(chart, title, x_label, y_label):
    from .svg import draw

    return draw(chart, title, x_label, y_label)


def _text(lines: Iterable[str]) -> bytes:
    """``lines``, each ended by a newline, as one UTF-8 chunk."""
    return ("\n".join(lines) + "\n").encode()


# A CSV's header is its record's field names, with these spelled as the
# artifacts have them.
_CSV_NAMES = {"l_agi": "L_AGI", "w_agi": "w_AGI", "p_h": "P_h"}


def _csv_header(fields: tuple[str, ...]) -> bytes:
    return _text([",".join(_CSV_NAMES.get(name, name) for name in fields)])


# sweep and simulate compute, format and write this many grid points or
# steps at a time: a few hundred kB of text
_WINDOW = 2048
# power_curve.csv's rows are PowerCurve points, and p_h may be nan
_CURVE_NAN = (PowerCurve._fields.index("p_h"),)
# series.csv's columns are TimeSeriesRecord's fields, and w_agi and p_h_transition may be nan
_SERIES_NAN = tuple(map(TimeSeriesRecord._fields.index, ("w_agi", "p_h_transition")))
_T, _W_H = map(TimeSeriesRecord._fields.index, ("t", "w_h"))


def _cmd_eval(parsed: ParsedConfig, out_dir: Path, args) -> int:
    if parsed.model_params is None:
        raise ConfigError("eval needs a [model] section")
    y = model_output(parsed.model_params)
    wages = model_wages(parsed.model_params)
    lines = ["quantity,value", f"Y,{format_number(y)}"]
    lines += [f"w_{factor},{format_number(wage)}" for factor, wage in wages.items()]
    _write_all({out_dir / "eval.csv": [_text(lines)]})
    return 0


def _cmd_sweep(parsed: ParsedConfig, out_dir: Path, args) -> int:
    """Write power_curve.csv one window of ``_WINDOW`` grid points at a time,
    and then power_curve.svg.

    Each window's curves are computed and fed to the chart, and the first
    curve's rows formatted and written, before the next window is computed,
    so the command holds one window of every curve however large its grid.
    The chart is drawn once the CSV's last window is written, inside the
    same ``_write_all``, so a chart that fails leaves no CSV either.
    """
    from .svg import Chart

    n_points = parsed.n_points
    if args.points is not None:
        try:
            check_n_points(args.points)
        except DomainError as exc:
            raise UsageError(f"--points: {exc}") from exc
        n_points = args.points
    lambdas = args.lambdas if args.lambdas else [parsed.transition.lam]
    try:
        chart = Chart([f"lambda={lam:g}" for lam in lambdas])
        params = [parsed.transition._replace(lam=lam) for lam in lambdas]
    except DomainError as exc:
        raise UsageError(f"--lambda: {exc}") from exc

    # The CSV schema has no lambda column, so it carries the first curve;
    # the SVG overlays the whole family, each p_h over the first curve's grid.
    def rows() -> Iterator[bytes]:
        yield _csv_header(PowerCurve._fields)
        grid = range(n_points)
        for start in range(0, n_points, _WINDOW):
            curve = power_curve(params[0], n_points, grid[start:start + _WINDOW])
            chart.add(curve.l_agi, [curve.p_h] + [power_index(tp, curve.l_agi) for tp in params[1:]])
            yield format_columns(curve._values(), _CURVE_NAN)

    def drawn() -> Iterator[bytes]:
        yield line_chart(
            chart=chart,
            title="Human economic power vs AGI labor share",
            x_label="AGI labor share",
            y_label="human share of labor income",
        ).encode()

    _write_all({out_dir / "power_curve.csv": rows(), out_dir / "power_curve.svg": drawn()})
    return 0


def _cmd_simulate(parsed: ParsedConfig, out_dir: Path, args) -> int:
    """Write series.csv one window of ``_WINDOW`` steps at a time.

    Each window's columns are computed, searched for the collapse step on
    their w_h column, formatted and written before the next is computed, so
    the command holds one window of the run however long its horizon, and
    builds no record.  A window that fails, or a collapse line that cannot
    be printed after the last window, raises inside ``_write_all``, which
    leaves the out directory as it was.
    """
    cfg = build_scenario_config(parsed)
    theta = cfg.collapse_threshold
    collapse: list[str] = []  # the collapse line, once a window has settled it

    def rows() -> Iterator[bytes]:
        yield _csv_header(TimeSeriesRecord._fields)
        steps = range(cfg.horizon + 1)
        for start in range(0, len(steps), _WINDOW):
            columns = run_columns(cfg, steps[start:start + _WINDOW])
            if start == 0:
                baseline = columns[_W_H][0]
            if not collapse:
                try:
                    step = collapse_step(columns[_T], columns[_W_H], theta, baseline)
                except UndefinedBaselineError as exc:
                    collapse.append(f"collapse: undefined: {exc}")
                else:
                    if step is not None:
                        collapse.append(
                            f"collapse: human wage fell below {theta:g} of its initial value"
                            f" at step {step}"
                        )
            yield format_columns(columns, _SERIES_NAN)
        _print_all(collapse)  # before _write_all renames anything into place

    _write_all({out_dir / "series.csv": rows()})
    return 0


def _cmd_fit(parsed: ParsedConfig, out_dir: Path, args) -> int:
    from .calibration import read_samples

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
    _write_all({out_dir / "fit.csv": [_text(lines)]})
    return 0


def _cmd_check(parsed: ParsedConfig, out_dir: Path, args) -> int:
    diagnostics = run_diagnostics()
    _write_all({out_dir / "check.txt": [_text(d.line() for d in diagnostics)]})
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
            # the directories this makes, deepest first; a failing command removes them
            made = list(takewhile(lambda path: not path.exists(), (out_dir, *out_dir.parents)))
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _cannot_write(out_dir, exc) from exc
        try:
            return _DISPATCH[args.command](parsed, out_dir, args)
        except BaseException:
            for path in made:
                with contextlib.suppress(OSError):
                    path.rmdir()
            raise
    except _HelpShown:
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except EconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

