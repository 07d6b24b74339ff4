"""Recover Cobb-Douglas parameters from observed (factors, output) samples.

Taking logs turns Y = A * prod x_i**e_i into the linear model
ln Y = ln A + sum_i e_i ln x_i, solved by least squares in pure Python.
``_least_squares`` solves the normal equations by Cholesky and refines
the solution once from the true residual; a design too ill-conditioned for
that goes to Householder QR.  Rank deficiency is detected as
``numpy.linalg.lstsq`` detects it, at a relative singular-value cutoff of
1e-10.  A residual pass maps one lambda, compiled for the coefficients,
over the rows: ``t - b0 - b1 * x0 - ...``, the operations of y - X b in
their order.  The refinement makes its residual a block of rows at a time
and adds each block into X^T r; the residual sum of squares squares each
row's residual in the same lambda and sums it at once.  Every long sum is
left-to-right float addition, carried from block to block where a sum is
taken in blocks, so the fit is
deterministic for a fixed sample order and the same bits on every
supported Python version.  No regularization: the target is exact
identification on synthetic data, not econometric inference.

The fit reads its samples by column from a ``SampleTable``: the output
column and one column per named factor.  The table takes each column's
logs once, a column at a time by ``starmap(math.log, zip(column))`` into a
list, with their sum; that pass is also the table's check, and the fit
reads its design, its target and their sums from it.  ``read_samples``
reads a sample CSV into one, a block of characters at a time by a shape
check and a JSON number scan unless a block holds a ``"`` or NUL or either
step refuses it; no other module knows the file format.
"""

from __future__ import annotations

import csv
import math
import sys
from collections import Counter
from functools import reduce
from itertools import combinations, repeat, starmap
from operator import add, mul
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

# Each residual pass compiles one lambda with a subtraction per factor, and
# CPython's compiler recurses once per subtraction: on 3.11 a 2,000-term
# lambda compiled and a 5,000-term one raised RecursionError.  This bound
# keeps a fit far below that: more factors are a DomainError, not a traceback.
MAX_FACTORS = 256

# The most sample rows a file may hold, checked as rows are read, before a
# row past it is stored.  A table holds about 65 B per value, a float and a
# pointer to it in its column, then the same again for its log; the fit
# adds a few bytes per row.  On the fit_large files tracemalloc measured a
# peak of 198 B per row at 2 factors and 395 B at 5, so 10**6 rows of 5
# factors need about 0.4 GB of heap.
MAX_SAMPLES = 1_000_000


def _left_sum(values, start=0.0) -> float:
    return reduce(add, values, start)


# Every long sum adds left to right, so a fit has the same bits, and the fit
# golden the same bytes, on every Python.  ``_left_sum`` adds so on every
# version.  Before 3.12 the builtin ``sum`` adds the same way, faster
# (``_left_sum`` cost fit_large 13 % of its items_per_s on 3.11, 245.6k ->
# 212.6k over 6 rounds, BENCH_14.json); from 3.12 on ``sum`` compensates
# float rounding.  Both stay defined on every version, so the tests, and the
# coverage gate with them, run each on any interpreter.  Either takes a
# float ``start`` and adds on from it, so a sum taken a block at a time,
# each block's from the last one's, has the bits of the whole sum.
_sum = _left_sum if sys.version_info >= (3, 12) else sum


def _check_row(output: float, names, quantities) -> None:
    """Raise the DomainError of a sample row's first bad value: a factor
    ``FactorBundle`` rejects, the output, then a zero factor."""
    FactorBundle(tuple(zip(names, quantities)))
    if not math.isfinite(output) or output <= 0.0:
        raise DomainError(f"sample output must be > 0 and finite, got {output!r}")
    for name, value in zip(names, quantities):
        if value <= 0.0:
            raise DomainError(f"sample factor {name!r} must be > 0 (log-transformable)")


class SampleTable(Record):
    """Samples by column: the output and one column per named factor.

    Every value must be finite and > 0, and every factor name a non-empty
    string (``FactorBundle``'s rule).  The check is the log pass the fit
    needs: ``math.log`` refuses a value <= 0 or not a number, and the sum of
    a column's logs is finite only if every value is.  A table that fails it
    raises what the column test before the log pass raised: the TypeError
    of ``min`` over the first column whose ``min`` is not > 0 or whose sum is
    not finite, where that column holds a value that is not a number, and
    otherwise the DomainError of the first bad row, the rows checked in
    order by ``_check_row``.  The columns are kept as tuples, the factors
    behind a read-only mapping, so a checked table cannot change; the logs
    and their sums are kept beside them for the fit, outside the fields, so
    they take no part in equality or ``repr``.
    """

    output: tuple[float, ...]
    factors: MappingProxyType[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "output", tuple(self.output))
        factors = {name: tuple(column) for name, column in self.factors.items()}
        object.__setattr__(self, "factors", MappingProxyType(factors))
        columns = (self.output, *factors.values())
        if any(len(column) != len(self.output) for column in columns):
            raise ContractViolationError("sample table columns differ in length")
        FactorBundle(tuple(zip(factors, repeat(1.0))))  # the names, in every table
        try:
            # map would build an argument tuple per call of math.log; zip reuses its one
            logs = [list(starmap(math.log, zip(column))) for column in columns]
        except (TypeError, ValueError):  # a value that is not a number, or not > 0
            logs = None
        else:
            sums = list(map(_sum, logs))
        if logs is None or not math.isfinite(sum(sums)):  # a log failed, or one is nan or inf
            for column in columns:  # for the TypeError the column test raised
                if not (min(column) > 0.0 and math.isfinite(sum(column))):
                    break
            for output, *quantities in zip(*columns):
                _check_row(output, factors, quantities)
        object.__setattr__(self, "_log_output", (logs[0], sums[0]))
        object.__setattr__(self, "_log_factors", dict(zip(factors, zip(logs[1:], sums[1:]))))

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
    least len(factor_names) + 1 rows; more than ``MAX_FACTORS`` names are a
    DomainError.  Raises RankDeficiencyError when the log design matrix is
    numerically singular (collinear or constant factors): a singular value
    at or below 1e-10 times the largest, the rule of
    ``numpy.linalg.lstsq(rcond=1e-10)``.  Raises
    NonFiniteOutputError when the fitted ln A is too large for A to be a
    finite float, or so negative that A rounds to 0.  The residual sum of
    squares is that of the returned coefficients, in log space.
    """
    if not isinstance(table, SampleTable):
        raise ContractViolationError(f"expected a SampleTable, got {type(table).__name__}")
    factor_names = tuple(factor_names)
    if not factor_names:
        raise ContractViolationError("factor_names must not be empty")
    if len(factor_names) > MAX_FACTORS:
        raise DomainError(f"a fit takes at most {MAX_FACTORS} factors, got {len(factor_names)}")
    n_params = len(factor_names) + 1
    if len(table) < n_params:
        raise ContractViolationError(
            f"need at least {n_params} samples for {len(factor_names)} factors, got {len(table)}"
        )
    for name in factor_names:
        if name not in table.factors:
            raise ContractViolationError(f"sample table has no factor {name!r}")

    target, target_sum = table._log_output
    columns, column_sums = zip(*map(table._log_factors.__getitem__, factor_names))
    coefficients = _least_squares(columns, target, (target_sum, *column_sums))
    log_tfp = coefficients[0]
    try:
        tfp = math.exp(log_tfp)
    except OverflowError:
        raise NonFiniteOutputError(
            f"fitted ln A = {log_tfp!r} overflows a float: A has no finite value"
        ) from None
    if tfp == 0.0:
        raise NonFiniteOutputError(
            f"fitted ln A = {log_tfp!r} underflows a float: A has no positive value"
        )
    return FitResult(
        tfp_estimate=tfp,
        elasticity_estimates={
            name: coefficients[i] for i, name in enumerate(factor_names, start=1)
        },
        residual_sum_squares=_rss(columns, target, coefficients),
        sample_count=len(table),
    )


def _dot(a, b, start=0.0) -> float:
    return _sum(map(mul, a, b), start)


def _row_kernel(coefficients, squared: bool):
    """A row's residual t - b0 - b1 * x0 - ... as one compiled lambda of the
    target t and the log factors x0, x1, ...; when ``squared``, its square
    ``(r := t - ...) * r``.

    The terms are subtracted left to right, one product each, so a row has
    the bits of ``target - X b`` taken one ``sub`` and one ``mul`` per term.
    The source holds only names made from the column count; the
    coefficients are the lambda's globals, so no factor name or number is
    ever compiled.
    """
    names = [f"x{i}" for i in range(len(coefficients) - 1)]
    row = "t - b0" + "".join(f" - b{i} * {x}" for i, x in enumerate(names, start=1))
    body = f"(r := {row}) * r" if squared else row
    values = {f"b{i}": b for i, b in enumerate(coefficients)}
    return eval(f"lambda t, {', '.join(names)}: {body}", values)


# The refinement makes its residual this many rows at a time.
_BLOCK_ROWS = 1 << 12


def _transposed_residual(columns, target, coefficients) -> list[float]:
    """X^T (target - X b) for the design X = [1, columns].

    The residual is made ``_BLOCK_ROWS`` rows at a time, and each entry of
    X^T r adds a block on from the sum of the blocks before it, so it has
    the bits of the sum over the whole residual without its list."""
    kernel = _row_kernel(coefficients, False)
    totals = [0.0] * len(coefficients)
    for start in range(0, len(target), _BLOCK_ROWS):
        block = [x[start : start + _BLOCK_ROWS] for x in columns]
        residual = list(map(kernel, target[start : start + _BLOCK_ROWS], *block))
        totals = [
            _sum(residual, totals[0]),
            *(_dot(x, residual, total) for x, total in zip(block, totals[1:])),
        ]
    return totals


def _rss(columns, target, coefficients) -> float:
    """|target - X b|^2, each row's residual squared as it is made: the same
    bits as ``_dot`` of the residual with itself, without its list."""
    return _sum(map(_row_kernel(coefficients, True), target, *columns))


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
    Computations, 4th ed., section 8.6).

    Each column's squared norm is its ``fsum`` of squares, kept beside it
    and taken again only for the two columns a rotation changes."""
    columns = [list(column) for column in zip(*r)]
    norms = [math.fsum(map(mul, column, column)) for column in columns]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i, j in combinations(range(len(columns)), 2):
            a, b = columns[i], columns[j]
            gamma = math.fsum(map(mul, a, b))
            alpha, beta = norms[i], norms[j]
            if abs(gamma) <= _EPSILON * math.sqrt(alpha * beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2.0 * gamma)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            cos = 1.0 / math.hypot(1.0, t)
            sin = cos * t
            columns[i] = [cos * u - sin * v for u, v in zip(a, b)]
            columns[j] = [sin * u + cos * v for u, v in zip(a, b)]
            norms[i], norms[j] = (math.fsum(map(mul, c, c)) for c in (columns[i], columns[j]))
        if not rotated:
            break
    return list(map(math.sqrt, norms))


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


def _least_squares(columns, target, sums) -> list[float]:
    """Coefficients b, intercept first, minimizing |target - X b| for the
    design X = [1, columns]; raises RankDeficiencyError at lstsq's rank rule.
    ``sums`` holds the sum of ``target`` and then of each column: the
    intercept's entry of X^T y and the first row of the Gram matrix.

    The normal equations X^T X b = X^T y are solved by Cholesky, then
    refined once from the true residual y - X b (Bjorck, Numerical Methods
    for Least Squares Problems, SIAM 1996).  Their error grows with the
    square of X's condition number, so a design whose factor has
    sigma_min / sigma_max below ``_CHOLESKY_RCOND``, or whose factorization
    breaks down, is solved by Householder QR instead.  X and either R have
    the same singular values, so the rank is that of the QR factor.
    """
    target_sum, *column_sums = sums
    gram = [[float(len(target)), *column_sums]]
    gram += [[0.0] * (i + 1) + [_dot(a, b) for b in columns[i:]] for i, a in enumerate(columns)]
    r = _cholesky(gram)
    if r is not None:
        sigma = _singular_values(r)
        if min(sigma) >= _CHOLESKY_RCOND * max(sigma):
            moments = [target_sum, *(_dot(x, target) for x in columns)]
            coefficients = _cholesky_solve(r, moments)
            step = _cholesky_solve(r, _transposed_residual(columns, target, coefficients))
            return list(map(add, coefficients, step))
    r, projected = _householder(columns, target)
    sigma = _singular_values(r)
    rank = sum(s > _RANK_RCOND * max(sigma) for s in sigma)
    if rank < len(sigma):
        raise RankDeficiencyError(
            f"design matrix rank {rank} < {len(sigma)}: collinear or constant log-factors"
        )
    return _solve_upper(r, projected)


# The flat reader reads a file this many characters at a time, and on to
# the end of the line a block stops in (a few thousand lines), so it never
# holds the whole text or a list of every line or row.
_CHUNK_CHARS = 1 << 16


def read_samples(path: Path, factor_names: tuple[str, ...]) -> SampleTable:
    """The named columns of a sample CSV, read flat if it can be.

    A file without ``"`` or NUL, with a good header and only JSON numbers
    in well-formed rows, is read by ``_flat_values`` a block at a time,
    whatever its line ends.  At the first block the flat reader refuses, the
    file is read again from the start by ``csv.reader`` in ``_csv_values``,
    so its error is the one the first bad row raises.  A leading UTF-8
    byte-order mark is dropped.  A file of more than ``MAX_SAMPLES`` rows
    is refused as the row past the bound is read, before any value is
    checked.  The flat list of values is dropped before the table takes its
    logs.  A bad file raises ``ConfigError``; a bad value, ``DomainError``.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            read = _flat_values(path, handle, factor_names)
        header, values, problem = read or _csv_values(path, factor_names)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise _read_error(path, exc) from exc
    del read  # it holds the flat list too
    width = len(header)
    # one column at a time: each slice is freed once its tuple is made
    output = tuple(values[0::width])
    factors = {name: tuple(values[header.index(name) :: width]) for name in factor_names}
    del values
    # raises a bad value's DomainError before a later row's error
    table = SampleTable(output=output, factors=factors)
    if problem is not None:
        raise ConfigError(f"sample file {path}: {problem}")
    return table


def _read_error(path: Path, exc: Exception) -> ConfigError:
    """The ConfigError of a sample file read that raised ``exc``.

    The whole file is decoded again, and its decode error, if any, is the one
    reported: a block's decode error counts its position from the block's
    start, and a decode error anywhere in the file comes before a csv
    module error, as when the whole text was decoded before any row was read.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            handle.read()
    except (OSError, UnicodeDecodeError) as whole:
        exc = whole
    if isinstance(exc, csv.Error):
        return ConfigError(f"sample file {path}: {exc}")
    return ConfigError(f"cannot read sample file {path}: {exc}")


def _too_many_rows(path: Path) -> ConfigError:
    return ConfigError(f"sample file {path}: more than {MAX_SAMPLES} sample rows")


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


def _flat_values(path: Path, handle, factor_names: tuple[str, ...]):
    """The header and row-major cells of the sample file open as ``handle``,
    as ``_csv_values`` returns them, read ``_CHUNK_CHARS`` characters at a
    time and on to the end of the line; None if a block holds ``"`` or NUL,
    or the file has a bad header, a block longer than the csv field size
    limit, a line of the wrong shape, or a cell that is not a JSON number.
    Raises the ConfigError of more than ``MAX_SAMPLES`` rows once the block
    that holds the row past the bound is scanned, before it is stored.

    The csv module ends a line at each ``\\r\\n``, ``\\r`` and ``\\n``, so each
    becomes ``\\n``, and it skips blank lines, so they are squeezed out; a
    ``\\r\\n`` split between two blocks leaves one more blank line, squeezed
    out the same way, and no line number is reported here.  A block without
    ``\\r`` is not copied.  A block's ``_shape`` must hold, on every line, one
    comma fewer than the header has cells.  One JSON array scan then reads
    the block without a string per cell: a JSON number is a string ``float``
    accepts and is read to the same bits, and ``parse_int=float`` reads an
    integer as ``float`` does.  What either step refuses, such as ``nan``,
    ``1.``, ``+1``, an empty cell or a cell of spaces, is left to the csv
    module.
    """
    import json  # here, so that only fit pays for its import

    limit = csv.field_size_limit()
    line = handle.readline(limit + 1)
    header_line = line.rstrip("\r\n")
    header = [cell.strip() for cell in header_line.split(",")]
    if (
        '"' in line
        or "\0" in line
        or len(header_line) > limit
        or _header_problem(header, factor_names) is not None
    ):
        return None
    row_shape = b"," * (len(header) - 1) + b"\n"
    most_values = MAX_SAMPLES * len(header)
    scan = json.JSONDecoder(parse_int=float).decode
    values: list[float] = []
    while chunk := handle.read(_CHUNK_CHARS):
        if chunk[-1] not in "\r\n":
            chunk += handle.readline(limit)
        # a cell might be longer than the limit too, which the csv module reports
        if len(chunk) > limit or '"' in chunk or "\0" in chunk:
            return None
        if "\r" in chunk:
            chunk = chunk.replace("\r\n", "\n").replace("\r", "\n")
        chunk = chunk.strip("\n")
        if not chunk:  # only blank lines
            continue
        shape = _shape(chunk)
        if b"\n\n" in shape:  # a blank line, or one of only spaces
            while "\n\n" in chunk:
                chunk = chunk.replace("\n\n", "\n")
            shape = _shape(chunk)
        if shape + b"\n" != row_shape * (shape.count(b"\n") + 1):
            return None
        try:
            cells = scan("[" + chunk.replace("\n", ",") + "]")
        except ValueError:
            return None
        if len(values) + len(cells) > most_values:
            raise _too_many_rows(path)
        values += cells
    return header, values, None


def _csv_values(
    path: Path, factor_names: tuple[str, ...]
) -> tuple[list[str], list[float], str | None]:
    """The header and the row-major cells of ``path`` read by ``csv.reader``.

    Reads on to the end of the file whatever it finds, so that a csv module
    or decode error anywhere in it is raised first, as when every row was
    read before any was looked at; then raises the header's error.  Raises
    the ConfigError of more than ``MAX_SAMPLES`` rows before the row past
    the bound is stored.  At the first row of the wrong width or with a cell
    that is not a number, stops storing and returns what is wrong with it
    beside the cells of the rows before it, for the caller to raise once
    those rows are checked.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        rows = csv.reader(handle)
        first = next(rows, None)
        if first is None:
            raise ConfigError(f"sample file {path} is empty")
        header = [cell.strip() for cell in first]
        problem = _header_problem(header, factor_names)
        bad_header = problem is not None
        width = len(header)
        values: list[float] = []
        for line_no, row in enumerate(rows, start=2):
            if problem is not None or not row:  # past a problem, read on for a later error
                continue
            if len(row) != width:
                problem = f"row {line_no} has {len(row)} cells"
                continue
            try:
                cells = [float(cell) for cell in row]
            except ValueError as exc:
                problem = f"row {line_no}: {exc}"
                continue
            if len(values) == MAX_SAMPLES * width:
                raise _too_many_rows(path)
            values += cells
    if bad_header:
        raise ConfigError(f"sample file {path}: {problem}")
    return header, values, problem
