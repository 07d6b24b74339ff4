"""Recover Cobb-Douglas parameters from observed (factors, output) samples.

Taking logs turns Y = A * prod x_i**e_i into the linear model
ln Y = ln A + sum_i e_i ln x_i, solved by least squares.  The solver is
``numpy.linalg.lstsq`` (SVD via LAPACK gelsd), with rank deficiency
detected at a relative singular-value cutoff of 1e-10; SVD keeps the fit
deterministic for a fixed sample order and minimizes the log-space
residual even on borderline designs.  No regularization: the target is
exact identification on synthetic data, not econometric inference.

numpy is imported inside ``fit_cobb_douglas``, its only user, so the
other commands do not pay its import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractViolationError, DomainError, RankDeficiencyError
from .production import FactorBundle

_RANK_RCOND = 1e-10


@dataclass(frozen=True)
class Sample:
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


@dataclass(frozen=True)
class FitResult:
    tfp_estimate: float
    elasticity_estimates: dict[str, float]
    residual_sum_squares: float
    sample_count: int


def fit_cobb_douglas(samples: list[Sample], factor_names: list[str] | tuple[str, ...]) -> FitResult:
    """Least-squares fit of (A, elasticities) over the named factors.

    Needs at least len(factor_names) + 1 samples, each carrying every named
    factor.  Raises RankDeficiencyError when the log design matrix is
    numerically singular (collinear or constant factors).
    """
    factor_names = tuple(factor_names)
    if not factor_names:
        raise ContractViolationError("factor_names must not be empty")
    n_params = len(factor_names) + 1
    if len(samples) < n_params:
        raise ContractViolationError(
            f"need at least {n_params} samples for {len(factor_names)} factors, got {len(samples)}"
        )

    import numpy as np

    design = np.empty((len(samples), n_params), dtype=np.float64)
    target = np.empty(len(samples), dtype=np.float64)
    for row, sample in enumerate(samples):
        design[row, 0] = 1.0
        for col, name in enumerate(factor_names, start=1):
            design[row, col] = math.log(sample.bundle.quantity(name))
        target[row] = math.log(sample.output)

    coefficients, _, rank, _ = np.linalg.lstsq(design, target, rcond=_RANK_RCOND)
    if rank < n_params:
        raise RankDeficiencyError(
            f"design matrix rank {rank} < {n_params}: collinear or constant log-factors"
        )
    residuals = design @ coefficients - target
    return FitResult(
        tfp_estimate=math.exp(float(coefficients[0])),
        elasticity_estimates={
            name: float(coefficients[i]) for i, name in enumerate(factor_names, start=1)
        },
        residual_sum_squares=float(residuals @ residuals),
        sample_count=len(samples),
    )
