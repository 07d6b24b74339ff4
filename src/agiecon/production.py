"""Generic N-factor Cobb-Douglas technology.

Output is ``A * prod_i x_i ** e_i`` over named factors.  Evaluation
conventions, chosen so degenerate corners behave like their limits:

* ``0 ** 0 == 1`` -- a factor with zero elasticity never influences output,
  even when its quantity is zero;
* zero quantity with positive elasticity gives a zero output term;
* zero quantity with negative elasticity has no finite value and raises;
* the marginal product of a zero-elasticity factor is 0 at any quantity,
  zero included: output does not depend on that factor;
* any other marginal product at zero quantity raises (the power-rule
  derivative diverges there for elasticities below one).

All computation is plain 64-bit floating point.  Everything is a pure
function of immutable inputs, safe to share across threads.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import (
    ContractViolationError,
    DomainError,
    NonFiniteDerivativeError,
    NonFiniteOutputError,
)
from .record import Record


def _validated_pairs(entries, what: str, allow_negative: bool) -> tuple[tuple[str, float], ...]:
    pairs: list[tuple[str, float]] = []
    seen: set[str] = set()
    for name, raw in entries:
        if not isinstance(name, str) or not name:
            raise DomainError(f"{what}: factor names must be non-empty strings")
        if name in seen:
            raise DomainError(f"{what}: duplicate factor name {name!r}")
        seen.add(name)
        value = float(raw)
        if not math.isfinite(value):
            raise DomainError(f"{what}: {name} must be finite, got {raw!r}")
        if not allow_negative and value < 0.0:
            raise DomainError(f"{what}: {name} must be >= 0, got {value!r}")
        pairs.append((name, value))
    return tuple(pairs)


class FactorBundle(Record):
    """Named non-negative factor quantities (K, K_AGI, L_h, L_AGI, ...)."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", _validated_pairs(self.entries, "FactorBundle", allow_negative=False)
        )

    @classmethod
    def of(cls, **quantities: float) -> "FactorBundle":
        return cls(tuple(quantities.items()))

    def quantity(self, name: str) -> float:
        for factor, value in self.entries:
            if factor == name:
                return value
        raise ContractViolationError(f"bundle has no factor {name!r}")


class CobbDouglasTechnology(Record):
    """Total factor productivity plus named output elasticities.

    Elasticities are unconstrained finite reals; in particular they are not
    clamped to [0, 1] and are not required to sum to one, so limit studies
    can probe exponents below zero explicitly.
    """

    tfp: float
    elasticities: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        tfp = float(self.tfp)
        if not math.isfinite(tfp) or tfp <= 0.0:
            raise DomainError(f"tfp must be a positive finite real, got {self.tfp!r}")
        object.__setattr__(self, "tfp", tfp)
        object.__setattr__(
            self,
            "elasticities",
            _validated_pairs(self.elasticities, "CobbDouglasTechnology", allow_negative=True),
        )

    @classmethod
    def of(cls, tfp: float, **elasticities: float) -> "CobbDouglasTechnology":
        return cls(tfp, tuple(elasticities.items()))

    def factor_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.elasticities)

    def exponent(self, name: str) -> float:
        for factor, value in self.elasticities:
            if factor == name:
                return value
        raise ContractViolationError(f"technology has no factor {name!r}")


def output(tech: CobbDouglasTechnology, bundle: FactorBundle) -> float:
    """Evaluate ``A * prod_i x_i ** e_i``.

    Every factor named by the technology must be present in the bundle.
    """
    return product_of_terms(tech.tfp, factor_terms(tech, bundle))


def factor_terms(tech: CobbDouglasTechnology, bundle: FactorBundle) -> list:
    """The ``(name, quantity, exponent)`` terms ``output`` multiplies, in the
    technology's factor order."""
    return [(name, bundle.quantity(name), exponent) for name, exponent in tech.elasticities]


def product_of_terms(tfp: float, terms) -> float:
    """``tfp * prod x ** e`` over ``(name, x, e)`` terms, multiplied in order.

    The evaluation core of ``output``, for callers that hold quantities and
    exponents directly instead of a technology and a bundle; the
    zero-quantity conventions and errors are those of the module docstring.
    """
    y = tfp
    for name, x, exponent in terms:
        if x == 0.0:
            if exponent > 0.0:
                y *= 0.0
                continue
            if exponent == 0.0:
                continue  # 0**0 == 1: a zero-elasticity factor never binds
            raise NonFiniteOutputError(
                f"factor {name!r} is 0 with negative exponent {exponent!r}: output is not finite"
            )
        try:
            y *= x**exponent
        except OverflowError as exc:
            raise NonFiniteOutputError(f"term {name!r}**{exponent!r} overflows") from exc
    if not math.isfinite(y):
        raise NonFiniteOutputError(f"output is not finite: {y!r}")
    return y


def marginal_product(tech: CobbDouglasTechnology, bundle: FactorBundle, factor: str) -> float:
    """Exact analytic dY/dx_f, i.e. ``e_f * Y / x_f``.

    Requires the factor quantity to be strictly positive, unless ``e_f`` is
    0: then Y does not depend on x_f and the result is 0 (once Y itself is
    finite).  Equals the closed form
    ``e_f * A * x_f**(e_f - 1) * prod_{i != f} x_i**e_i``.
    """
    exponent = tech.exponent(factor)
    x = bundle.quantity(factor)
    if x == 0.0:
        if exponent == 0.0:
            return 0.0 * output(tech, bundle)
        raise NonFiniteDerivativeError(
            f"marginal product of {factor!r} at quantity 0 is not finite"
        )
    return exponent * output(tech, bundle) / x


def homogeneity_degree(tech: CobbDouglasTechnology) -> float:
    """Sum of output elasticities (degree h in Y(t*x) = t**h * Y(x))."""
    return math.fsum(value for _, value in tech.elasticities)


def euler_residual(tech: CobbDouglasTechnology, bundle: FactorBundle) -> float:
    """``sum_f x_f * MP_f - h * Y``; identically zero for Cobb-Douglas.

    Diagnoses the factor-income decomposition behind the wage identities:
    each factor's income equals its elasticity times output.  Requires the
    quantity of each factor with a non-zero elasticity to be strictly
    positive.
    """
    y = output(tech, bundle)
    income = math.fsum(
        bundle.quantity(name) * marginal_product(tech, bundle, name)
        for name, _ in tech.elasticities
    )
    return income - homogeneity_degree(tech) * y


class LimitKind(Enum):
    ZERO = "zero"
    FINITE = "finite"
    DIVERGES = "diverges"


class LimitClassification(Record):
    """Outcome of an asymptotic claim: the limit is 0, a finite value, or unbounded."""

    kind: LimitKind
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind is LimitKind.FINITE:
            if self.value is None or not math.isfinite(self.value):
                raise DomainError("FINITE classification requires a finite value")
        elif self.value is not None:
            raise DomainError(f"{self.kind.value} classification carries no value")
