"""Recover Cobb-Douglas parameters from observed (factors, output) samples.

Taking logs turns Y = A * prod x_i**e_i into the linear model
ln Y = ln A + sum_i e_i ln x_i, solved by least squares.  The solver is
``numpy.linalg.lstsq`` (SVD via LAPACK gelsd), with rank deficiency
detected at a relative singular-value cutoff of 1e-10; SVD keeps the fit
deterministic for a fixed sample order and minimizes the log-space
residual even on borderline designs.  No regularization: the target is
exact identification on synthetic data, not econometric inference.

The fit reads its samples by column from a ``SampleTable``: the output
column and one column per named factor, validated once when the table is
built.  ``read_samples`` reads a sample CSV into one, in one flat pass
unless the file holds a ``"`` or NUL; no other module knows the file
format.  The log-design matrix is filled one column at a
time by ``numpy.fromiter`` over ``map(math.log, column)``, with no
intermediate list, not with ``numpy.log``, whose vectorized kernel may
round differently from libm in the last place; the fitted values are
therefore the same bits as a row-by-row fill.

numpy is imported inside ``fit_cobb_douglas``, its only user, so the
other commands do not pay its import time.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from itertools import repeat
from pathlib import Path

from .errors import (
    ConfigError,
    ContractViolationError,
    DomainError,
    NonFiniteOutputError,
    RankDeficiencyError,
)
from .record import Record

_RANK_RCOND = 1e-10


def _check_row(output: float, names, quantities) -> None:
    """Raise the DomainError of a sample row's first bad value: a factor not
    finite or negative (worded as ``FactorBundle`` words it), the output,
    then a zero factor."""
    for name, value in zip(names, quantities):
        if not math.isfinite(value):
            raise DomainError(f"FactorBundle: {name} must be finite, got {value!r}")
        if value < 0.0:
            raise DomainError(f"FactorBundle: {name} must be >= 0, got {float(value)!r}")
    if not math.isfinite(output) or output <= 0.0:
        raise DomainError(f"sample output must be > 0 and finite, got {output!r}")
    for name, value in zip(names, quantities):
        if value <= 0.0:
            raise DomainError(f"sample factor {name!r} must be > 0 (log-transformable)")


def _all_positive_finite(column: list[float]) -> bool:
    """A sufficient test that every value is finite and > 0, in C-level passes.

    ``min`` is nan or <= 0 when some value is; the sum is nan or inf when
    some value is nan or inf.  The sum can also overflow on valid values,
    so False only means "look row by row".
    """
    return not column or (min(column) > 0.0 and math.isfinite(sum(column)))


class SampleTable(Record):
    """Samples by column: the output and one column per named factor.

    Every value must be finite and > 0.  Where the column test fails, the
    rows are checked in order by ``_check_row``, so the error raised is the
    first bad row's.
    """

    output: list[float]
    factors: dict[str, list[float]]

    def __post_init__(self) -> None:
        columns = (self.output, *self.factors.values())
        if any(len(column) != len(self.output) for column in columns):
            raise ContractViolationError("sample table columns differ in length")
        if not all(map(_all_positive_finite, columns)):
            for output, *quantities in zip(*columns):
                _check_row(output, self.factors, quantities)

    def __len__(self) -> int:
        return len(self.output)


class FitResult(Record):
    tfp_estimate: float
    elasticity_estimates: dict[str, float]
    residual_sum_squares: float
    sample_count: int


def fit_cobb_douglas(table: SampleTable, factor_names: list[str] | tuple[str, ...]) -> FitResult:
    """Least-squares fit of (A, elasticities) over the named factors.

    Needs a ``SampleTable`` with a column for every named factor and at
    least len(factor_names) + 1 rows.  Raises RankDeficiencyError when the
    log design matrix is numerically singular (collinear or constant
    factors), and NonFiniteOutputError when the fitted ln A is too large
    for A to be a finite float.
    """
    if not isinstance(table, SampleTable):
        raise ContractViolationError(f"expected a SampleTable, got {type(table).__name__}")
    factor_names = tuple(factor_names)
    if not factor_names:
        raise ContractViolationError("factor_names must not be empty")
    n_params = len(factor_names) + 1
    if len(table) < n_params:
        raise ContractViolationError(
            f"need at least {n_params} samples for {len(factor_names)} factors, got {len(table)}"
        )
    for name in factor_names:
        if name not in table.factors:
            raise ContractViolationError(f"sample table has no factor {name!r}")

    import numpy as np

    n = len(table)
    design = np.empty((n, n_params), dtype=np.float64)
    design[:, 0] = 1.0
    for col, name in enumerate(factor_names, start=1):
        design[:, col] = np.fromiter(map(math.log, table.factors[name]), np.float64, n)
    target = np.fromiter(map(math.log, table.output), np.float64, n)

    coefficients, _, rank, _ = np.linalg.lstsq(design, target, rcond=_RANK_RCOND)
    if rank < n_params:
        raise RankDeficiencyError(
            f"design matrix rank {rank} < {n_params}: collinear or constant log-factors"
        )
    residuals = design @ coefficients - target
    log_tfp = float(coefficients[0])
    try:
        tfp = math.exp(log_tfp)
    except OverflowError:
        raise NonFiniteOutputError(
            f"fitted ln A = {log_tfp!r} overflows a float: A has no finite value"
        ) from None
    return FitResult(
        tfp_estimate=tfp,
        elasticity_estimates={
            name: float(coefficients[i]) for i, name in enumerate(factor_names, start=1)
        },
        residual_sum_squares=float(residuals @ residuals),
        sample_count=len(table),
    )


# The flat reader splits a file this many characters at a time (a few
# thousand lines), so it never holds a list of every line or row.
_CHUNK_CHARS = 1 << 16


def read_samples(path: Path, factor_names: tuple[str, ...]) -> SampleTable:
    """The named columns of a sample CSV, read in one flat pass if it can be.

    A file without ``"`` or NUL, with a good header and only numbers in
    well-formed rows, is read by ``_flat_values``, whatever its line ends.
    Any other file goes through ``csv.reader`` in ``_csv_values``, so its
    error is the one the first bad row raises.  A leading UTF-8 byte-order
    mark is dropped.  A bad file raises ``ConfigError``; a bad value,
    ``DomainError``.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read sample file {path}: {exc}") from exc
    flat = _flat_values(text, factor_names)
    header, values, problem = flat or _csv_values(path, text, factor_names)
    width = len(header)
    table = SampleTable(  # raises a bad value's DomainError before a later row's error
        output=values[0::width],
        factors={name: values[header.index(name) :: width] for name in factor_names},
    )
    if problem is not None:
        raise ConfigError(f"sample file {path}: {problem}")
    return table


def _header_problem(header: list[str], factor_names: tuple[str, ...]) -> str | None:
    """What is wrong with a sample file's header, or None."""
    if not header or header[0] != "Y":
        return "first column must be Y"
    duplicates = sorted(name for name, count in Counter(header).items() if count > 1)
    if duplicates:
        return f"duplicate columns {duplicates}"
    missing = [name for name in factor_names if name not in header[1:]]
    if missing:
        return f"missing factor columns {missing}"
    return None


def _flat_values(text: str, factor_names: tuple[str, ...]):
    """The header and row-major cells of ``text`` split on commas and line
    ends a chunk of lines at a time, as ``_csv_values`` returns them; None
    if it holds ``"`` or NUL, or has a bad header, a line of the wrong cell
    count or over the csv field size limit, or a cell that is not a number.

    The csv module ends a line at each ``\\r\\n``, ``\\r`` and ``\\n``, so each
    ``\\r`` becomes ``\\n``: a ``\\r\\n`` leaves a blank line, skipped as any is,
    and no line number is reported here.  A text without ``\\r`` is not copied.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r", "\n")
    start = text.find("\n") + 1 or len(text) + 1
    header = [cell.strip() for cell in text[: start - 1].split(",")]
    limit = csv.field_size_limit()
    if start - 1 > limit or _header_problem(header, factor_names) is not None:
        return None
    values: list[float] = []
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS)
        if end < 0:
            end = len(text)
        lines = list(filter(None, text[start:end].split("\n")))
        start = end + 1
        if set(map(str.count, lines, repeat(","))) - {len(header) - 1}:
            return None
        if max(map(len, lines), default=0) > limit:
            return None
        try:
            values += map(float, ",".join(lines).split(","))
        except ValueError:
            return None
    return header, values, None


def _csv_values(
    path: Path, text: str, factor_names: tuple[str, ...]
) -> tuple[list[str], list[float], str | None]:
    """The header and the row-major cells of ``text`` read by ``csv.reader``.

    Raises the header's error.  At the first row of the wrong width or with
    a cell that is not a number, stops and returns what is wrong with it
    beside the cells of the rows before it, for the caller to raise once
    those rows are checked.
    """
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise ConfigError(f"sample file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"sample file {path} is empty")
    header = [cell.strip() for cell in rows[0]]
    problem = _header_problem(header, factor_names)
    if problem is not None:
        raise ConfigError(f"sample file {path}: {problem}")
    values: list[float] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            return header, values, f"row {line_no} has {len(row)} cells"
        try:
            values += [float(cell) for cell in row]
        except ValueError as exc:
            return header, values, f"row {line_no}: {exc}"
    return header, values, None
