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
built.  A list of ``Sample`` rows is turned into a table first, so the CLI
reader and library callers share one path into the solver.  The log-design
matrix is filled one column at a time by ``numpy.fromiter`` over
``map(math.log, column)``, with no intermediate list, not with ``numpy.log``,
whose vectorized kernel may round differently from libm in the last place;
the fitted values are therefore the same bits as a row-by-row fill.

numpy is imported inside ``fit_cobb_douglas``, its only user, so the
other commands do not pay its import time.
"""

from __future__ import annotations

import math

from .errors import (
    ContractViolationError,
    DomainError,
    NonFiniteOutputError,
    RankDeficiencyError,
)
from .production import FactorBundle
from .record import Record

_RANK_RCOND = 1e-10


class Sample(Record):
    """One observation: strictly positive factor quantities and output."""

    bundle: FactorBundle
    output: float

    def __post_init__(self) -> None:
        value = float(self.output)
        if not math.isfinite(value) or value <= 0.0:
            raise DomainError(f"sample output must be > 0 and finite, got {self.output!r}")
        object.__setattr__(self, "output", value)
        for name, quantity in self.bundle.entries:
            if quantity <= 0.0:
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
    rows are checked in order as ``Sample``s, so the error raised is the one
    the first bad row's ``FactorBundle`` or ``Sample`` raises.
    """

    output: list[float]
    factors: dict[str, list[float]]

    def __post_init__(self) -> None:
        columns = (self.output, *self.factors.values())
        if any(len(column) != len(self.output) for column in columns):
            raise ContractViolationError("sample table columns differ in length")
        if not all(map(_all_positive_finite, columns)):
            names = tuple(self.factors)
            for output, *quantities in zip(*columns):
                Sample(FactorBundle(tuple(zip(names, quantities))), output)

    def __len__(self) -> int:
        return len(self.output)

    @classmethod
    def of(
        cls, samples: "SampleTable | list[Sample]", factor_names: tuple[str, ...]
    ) -> "SampleTable":
        """The table itself, or the named factor columns of a list of samples."""
        if isinstance(samples, SampleTable):
            for name in factor_names:
                if name not in samples.factors:
                    raise ContractViolationError(f"sample table has no factor {name!r}")
            return samples
        return cls(
            output=[sample.output for sample in samples],
            factors={
                name: [sample.bundle.quantity(name) for sample in samples]
                for name in factor_names
            },
        )


class FitResult(Record):
    tfp_estimate: float
    elasticity_estimates: dict[str, float]
    residual_sum_squares: float
    sample_count: int


def fit_cobb_douglas(
    samples: SampleTable | list[Sample], factor_names: list[str] | tuple[str, ...]
) -> FitResult:
    """Least-squares fit of (A, elasticities) over the named factors.

    Needs at least len(factor_names) + 1 samples, each carrying every named
    factor, given as a ``SampleTable`` or a list of ``Sample``s.  Raises
    RankDeficiencyError when the log design matrix is numerically singular
    (collinear or constant factors), and NonFiniteOutputError when the
    fitted ln A is too large for A to be a finite float.
    """
    factor_names = tuple(factor_names)
    if not factor_names:
        raise ContractViolationError("factor_names must not be empty")
    n_params = len(factor_names) + 1
    if len(samples) < n_params:
        raise ContractViolationError(
            f"need at least {n_params} samples for {len(factor_names)} factors, got {len(samples)}"
        )

    table = SampleTable.of(samples, factor_names)

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
