"""Recover Cobb-Douglas parameters from observed (factors, output) samples.

Taking logs turns Y = A * prod x_i**e_i into the linear model
ln Y = ln A + sum_i e_i ln x_i, solved by least squares in pure Python.
``_least_squares`` solves the normal equations by Cholesky and refines
the solution once from the true residual; a design too ill-conditioned for
that goes to Householder QR.  Rank deficiency is detected as
``numpy.linalg.lstsq`` detects it, at a relative singular-value cutoff of
1e-10.  Every long sum is left-to-right float addition, so the fit is
deterministic for a fixed sample order and the same bits on every
supported Python version.  No regularization: the target is exact
identification on synthetic data, not econometric inference.

The fit reads its samples by column from a ``SampleTable``: the output
column and one column per named factor, validated once when the table is
built.  ``read_samples`` reads a sample CSV into one, a chunk of lines at
a time by a shape check and a JSON number scan unless the file holds a
``"`` or NUL or either step refuses it; no other module knows the file
format.  Logs are taken a column at a time by
``starmap(math.log, zip(column))`` into lists.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from collections import Counter
from functools import reduce
from itertools import combinations, repeat, starmap
from operator import add, mul, sub
from pathlib import Path
from types import MappingProxyType

from .errors import (
    ConfigError,
    ContractViolationError,
    DomainError,
    NonFiniteOutputError,
    RankDeficiencyError,
)
from .production import FactorBundle
from .record import Record

_RANK_RCOND = 1e-10
# Below this sigma_min / sigma_max of the Cholesky factor, the normal
# equations with one refinement step no longer match lstsq's accuracy:
# against a 60-digit reference their error was within about 10x of lstsq's
# down to 1.4e-5, but 15x at 4.6e-6 and 50x at 1.4e-6.  After one step the
# error is about cond**4 * eps**2, which passes lstsq's cond * eps at
# cond = eps**(-1/3), about 1.7e5.
_CHOLESKY_RCOND = 1e-5
_JACOBI_SWEEPS = 30
_EPSILON = sys.float_info.epsilon


def _check_row(output: float, names, quantities) -> None:
    """Raise the DomainError of a sample row's first bad value: a factor
    ``FactorBundle`` rejects, the output, then a zero factor."""
    FactorBundle(tuple(zip(names, quantities)))
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

    Every value must be finite and > 0, and every factor name a non-empty
    string (``FactorBundle``'s rule).  Where the column test fails, the rows
    are checked in order by ``_check_row``; the error is the first bad row's.
    The columns are kept as tuples, the factors behind a read-only mapping,
    so a checked table cannot change.
    """

    output: tuple[float, ...]
    factors: MappingProxyType[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "output", tuple(self.output))
        factors = {name: tuple(column) for name, column in self.factors.items()}
        object.__setattr__(self, "factors", MappingProxyType(factors))
        columns = (self.output, *self.factors.values())
        if any(len(column) != len(self.output) for column in columns):
            raise ContractViolationError("sample table columns differ in length")
        FactorBundle(tuple(zip(self.factors, repeat(1.0))))  # the names, in every table
        if not all(map(_all_positive_finite, columns)):
            for output, *quantities in zip(*columns):
                _check_row(output, self.factors, quantities)

    def __len__(self) -> int:
        return len(self.output)


class FitResult(Record):
    tfp_estimate: float
    elasticity_estimates: MappingProxyType[str, float]
    residual_sum_squares: float
    sample_count: int

    def __post_init__(self) -> None:
        estimates = MappingProxyType(dict(self.elasticity_estimates))
        object.__setattr__(self, "elasticity_estimates", estimates)


def fit_cobb_douglas(table: SampleTable, factor_names: list[str] | tuple[str, ...]) -> FitResult:
    """Least-squares fit of (A, elasticities) over the named factors.

    Needs a ``SampleTable`` with a column for every named factor and at
    least len(factor_names) + 1 rows.  Raises RankDeficiencyError when the
    log design matrix is numerically singular (collinear or constant
    factors): a singular value at or below 1e-10 times the largest, the
    rule of ``numpy.linalg.lstsq(rcond=1e-10)``.  Raises
    NonFiniteOutputError when the fitted ln A is too large for A to be a
    finite float.  The residual sum of squares is that of the returned
    coefficients, in log space.
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

    # map would build an argument tuple per call of math.log; zip reuses its one
    target = list(starmap(math.log, zip(table.output)))
    columns = [list(starmap(math.log, zip(table.factors[name]))) for name in factor_names]
    coefficients = _least_squares(columns, target)
    residual = _residual(columns, target, coefficients)
    log_tfp = coefficients[0]
    try:
        tfp = math.exp(log_tfp)
    except OverflowError:
        raise NonFiniteOutputError(
            f"fitted ln A = {log_tfp!r} overflows a float: A has no finite value"
        ) from None
    return FitResult(
        tfp_estimate=tfp,
        elasticity_estimates={
            name: coefficients[i] for i, name in enumerate(factor_names, start=1)
        },
        residual_sum_squares=_dot(residual, residual),
        sample_count=len(table),
    )


# Every long sum adds left to right.  From Python 3.12 on, ``sum``
# compensates float rounding, so a fit would differ in its last bits
# between versions, and the fit golden with it; there ``reduce`` adds as
# ``sum`` did before.  Before 3.12 both give the same bits, and ``sum`` is
# kept for speed: ``reduce`` on every version cost fit_large 13 % of its
# items_per_s on Python 3.11 (245.6k -> 212.6k, 6 rounds, BENCH_14.json).
if sys.version_info >= (3, 12):

    def _sum(values) -> float:
        return reduce(add, values, 0.0)

else:
    _sum = sum


def _dot(a, b) -> float:
    return _sum(map(mul, a, b))


def _transposed_product(columns, v) -> list[float]:
    """X^T v for the design X = [1, columns]."""
    return [_sum(v), *(_dot(x, v) for x in columns)]


def _residual(columns, target, coefficients) -> list[float]:
    """target - X b for the design X = [1, columns], built as one list."""
    intercept, *slopes = coefficients
    residual = map(sub, target, repeat(intercept))
    for slope, x in zip(slopes, columns):
        residual = map(sub, residual, map(mul, repeat(slope), x))
    return list(residual)


def _cholesky(gram):
    """Upper-triangular R with R^T R = gram, as rows, read from the upper
    triangle of the symmetric ``gram``; None when a pivot is not positive,
    that is, when the factorization breaks down."""
    p = len(gram)
    r = [[0.0] * p for _ in range(p)]
    for j in range(p):
        pivot = gram[j][j] - math.fsum(r[k][j] * r[k][j] for k in range(j))
        if not pivot > 0.0:
            return None
        r[j][j] = diagonal = math.sqrt(pivot)
        for i in range(j + 1, p):
            r[j][i] = (gram[j][i] - math.fsum(r[k][j] * r[k][i] for k in range(j))) / diagonal
    return r


def _solve_upper(r, z) -> list[float]:
    """b with R b = z, R upper triangular with a nonzero diagonal."""
    p = len(z)
    b = [0.0] * p
    for i in reversed(range(p)):
        b[i] = (z[i] - math.fsum(r[i][k] * b[k] for k in range(i + 1, p))) / r[i][i]
    return b


def _cholesky_solve(r, c) -> list[float]:
    """b with R^T R b = c."""
    z: list[float] = []
    for i, value in enumerate(c):
        z.append((value - math.fsum(r[k][i] * z[k] for k in range(i))) / r[i][i])
    return _solve_upper(r, z)


def _singular_values(r) -> list[float]:
    """Singular values of the square matrix ``r`` (rows), by one-sided Jacobi
    rotations of its columns until every pair is orthogonal to working
    precision; they are then the column norms (Golub & Van Loan, Matrix
    Computations, 4th ed., section 8.6)."""
    columns = [list(column) for column in zip(*r)]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i, j in combinations(range(len(columns)), 2):
            a, b = columns[i], columns[j]
            gamma = math.fsum(map(mul, a, b))
            alpha, beta = math.fsum(map(mul, a, a)), math.fsum(map(mul, b, b))
            if abs(gamma) <= _EPSILON * math.sqrt(alpha * beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2.0 * gamma)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            cos = 1.0 / math.hypot(1.0, t)
            sin = cos * t
            columns[i] = [cos * u - sin * v for u, v in zip(a, b)]
            columns[j] = [sin * u + cos * v for u, v in zip(a, b)]
        if not rotated:
            break
    return [math.sqrt(math.fsum(map(mul, column, column))) for column in columns]


def _householder(columns, target):
    """R (rows) and the first p entries of Q^T target, for X = [1, columns] = QR
    by Householder reflections applied to copies of the columns."""
    design = [[1.0] * len(target), *map(list, columns)]
    target = list(target)
    p = len(design)
    r = [[0.0] * p for _ in range(p)]
    for k, pivot_column in enumerate(design):
        v = pivot_column[k:]
        norm = math.sqrt(_dot(v, v))
        if norm > 0.0:  # a zero column below the diagonal needs no reflection
            alpha = -math.copysign(norm, v[0])
            v[0] -= alpha
            scale = 2.0 / _dot(v, v)
            for column in (*design[k + 1 :], target):
                tail = column[k:]
                f = scale * _dot(v, tail)
                column[k:] = [u - f * w for u, w in zip(tail, v)]
            pivot_column[k] = alpha
        for j in range(k, p):
            r[k][j] = design[j][k]
    return r, target[:p]


def _least_squares(columns, target) -> list[float]:
    """Coefficients b, intercept first, minimizing |target - X b| for the
    design X = [1, columns]; raises RankDeficiencyError at lstsq's rank rule.

    The normal equations X^T X b = X^T y are solved by Cholesky, then
    refined once from the true residual y - X b (Bjorck, Numerical Methods
    for Least Squares Problems, SIAM 1996).  Their error grows with the
    square of X's condition number, so a design whose factor has
    sigma_min / sigma_max below ``_CHOLESKY_RCOND``, or whose factorization
    breaks down, is solved by Householder QR instead.  X and either R have
    the same singular values, so the rank is that of the QR factor.
    """
    gram = [[float(len(target)), *map(_sum, columns)]]
    gram += [[0.0] * (i + 1) + [_dot(a, b) for b in columns[i:]] for i, a in enumerate(columns)]
    r = _cholesky(gram)
    if r is not None:
        sigma = _singular_values(r)
        if min(sigma) >= _CHOLESKY_RCOND * max(sigma):
            coefficients = _cholesky_solve(r, _transposed_product(columns, target))
            residual = _residual(columns, target, coefficients)
            step = _cholesky_solve(r, _transposed_product(columns, residual))
            return list(map(add, coefficients, step))
    r, projected = _householder(columns, target)
    sigma = _singular_values(r)
    rank = sum(s > _RANK_RCOND * max(sigma) for s in sigma)
    if rank < len(sigma):
        raise RankDeficiencyError(
            f"design matrix rank {rank} < {len(sigma)}: collinear or constant log-factors"
        )
    return _solve_upper(r, projected)


# The flat reader splits a file this many characters at a time (a few
# thousand lines), so it never holds a list of every line or row.
_CHUNK_CHARS = 1 << 16


def read_samples(path: Path, factor_names: tuple[str, ...]) -> SampleTable:
    """The named columns of a sample CSV, read flat if it can be.

    A file without ``"`` or NUL, with a good header and only JSON numbers
    in well-formed rows, is read by ``_flat_values``, whatever its line
    ends.  Any other file goes through ``csv.reader`` in ``_csv_values``, so
    its error is the one the first bad row raises.  A leading UTF-8 byte-order
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
    # one column at a time: each slice is freed once its tuple is made
    table = SampleTable(  # raises a bad value's DomainError before a later row's error
        output=tuple(values[0::width]),
        factors={name: tuple(values[header.index(name) :: width]) for name in factor_names},
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


# What a well-formed row holds besides its commas: the characters of JSON
# numbers, spaces and tabs.  ``_shape`` deletes them.
_NUMBER_BYTES = b"0123456789.eE+- \t"


def _shape(chunk: str) -> bytes:
    """The commas and line ends of ``chunk`` once the characters of
    ``_NUMBER_BYTES`` are deleted; any non-ASCII character stays as ``?``."""
    return chunk.encode("ascii", "replace").translate(None, _NUMBER_BYTES)


def _flat_values(text: str, factor_names: tuple[str, ...]):
    """The header and row-major cells of ``text`` read a chunk of lines at a
    time, as ``_csv_values`` returns them; None if it holds ``"`` or NUL, or
    has a bad header, a chunk longer than the csv field size limit, a line
    of the wrong shape, or a cell that is not a JSON number.

    The csv module ends a line at each ``\\r\\n``, ``\\r`` and ``\\n``, so each
    becomes ``\\n``, and it skips blank lines, so they are squeezed out; no
    line number is reported here.  A text without ``\\r`` is not copied.
    A chunk's ``_shape`` must hold, on every line, one comma fewer than the
    header has cells.  One JSON array scan then reads the chunk without a
    string per cell: a JSON number is a string ``float`` accepts and is read
    to the same bits, and ``parse_int=float`` reads an integer as ``float``
    does.  What either step refuses, such as ``nan``, ``1.``, ``+1``, an
    empty cell or a cell of spaces, is left to the csv module.
    """
    if '"' in text or "\0" in text:
        return None
    import json  # here, so that only fit pays for its import

    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    start = text.find("\n") + 1 or len(text) + 1
    header = [cell.strip() for cell in text[: start - 1].split(",")]
    limit = csv.field_size_limit()
    if start - 1 > limit or _header_problem(header, factor_names) is not None:
        return None
    row_shape = b"," * (len(header) - 1) + b"\n"
    scan = json.JSONDecoder(parse_int=float).decode
    values: list[float] = []
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS)
        if end < 0:
            end = len(text)
        chunk = text[start:end].strip("\n")
        start = end + 1
        if not chunk:  # only blank lines
            continue
        if len(chunk) > limit:  # a cell might be too, which the csv module reports
            return None
        shape = _shape(chunk)
        if b"\n\n" in shape:  # a blank line, or one of only spaces
            while "\n\n" in chunk:
                chunk = chunk.replace("\n\n", "\n")
            shape = _shape(chunk)
        if shape + b"\n" != row_shape * (shape.count(b"\n") + 1):
            return None
        try:
            values += scan("[" + chunk.replace("\n", ",") + "]")
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
