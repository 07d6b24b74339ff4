"""The three AGI-economy models as presets over the Cobb-Douglas core.

Model I     Y = A (K + K_AGI)^alpha L^beta            AGI enters as capital
Model II    Y = A K^alpha L1^beta1 L2^beta2           human (L1) and AGI (L2) labor
Model III   Y = A K^alpha K_AGI^gamma L_h^beta1 L_AGI^beta2

Wages are competitive: each labor factor is paid its marginal product.
``classify_limit`` settles asymptotic claims (a wage or output as one
quantity or elasticity goes to 0+ or infinity) from the signs of the
observable's exponents alone; only a finite limit is evaluated, in log
space.  Note that the honest mathematics of the wage
``w = beta * A * (...) * L**(beta-1)`` DIVERGES as L -> 0+ for beta < 1;
wages reach zero only through the elasticity channel (beta -> 0), whose
linear prefactor annihilates the expression.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import reduce
from operator import add

from .errors import (
    ContractViolationError,
    DomainError,
    NonFiniteOutputError,
    UndefinedIndexError,
)
from .production import (
    CobbDouglasTechnology,
    FactorBundle,
    LimitClassification,
    LimitKind,
    marginal_product,
    output,
)
from .record import Record


class _ModelParams:
    """Each params record states its economy once, in three class attributes.
    ID is the model's config name (``[model].id``).  TERMS lists (factor,
    base fields, exponent field) in multiplication order; a factor's
    quantity is its base fields summed with ``+`` in table order.  LABOR
    names the factors paid a competitive wage.  The record's fields, and so
    its positional order and config keys, are ``A``, then every base field,
    then every exponent field, in TERMS order; validation, the technology,
    wages and limits derive from the three as well.
    """

    ID: str
    TERMS: tuple[tuple[str, tuple[str, ...], str], ...]
    LABOR: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        # runs before Record.__init_subclass__, which reads these annotations
        bases = [field for _, fields, _ in cls.TERMS for field in fields]
        exponents = [field for _, _, field in cls.TERMS]
        cls.__annotations__ = dict.fromkeys(["A", *bases, *exponents], float)
        super().__init_subclass__(**kwargs)

    def __post_init__(self) -> None:
        name = type(self).__name__
        for field in self._fields:
            value = float(getattr(self, field))
            if not math.isfinite(value):
                raise DomainError(f"{name}.{field} must be finite, got {value!r}")
            object.__setattr__(self, field, value)
        if self.A <= 0.0:
            raise DomainError(f"{name}.A must be > 0")
        for _, bases, _ in self.TERMS:
            for base in bases:
                if getattr(self, base) < 0.0:
                    raise DomainError(f"{name}.{base} must be >= 0")


class ModelIParams(_ModelParams, Record):
    ID = "model_i"
    TERMS = (("K_total", ("K", "K_AGI"), "alpha"), ("L", ("L",), "beta"))
    LABOR = ("L",)


class ModelIIParams(_ModelParams, Record):
    ID = "model_ii"
    TERMS = (("K", ("K",), "alpha"), ("L1", ("L1",), "beta1"), ("L2", ("L2",), "beta2"))
    LABOR = ("L1", "L2")


class ModelIIIParams(_ModelParams, Record):
    ID = "model_iii"
    TERMS = (
        ("K", ("K",), "alpha"),
        ("K_AGI", ("K_AGI",), "gamma"),
        ("L_h", ("L_h",), "beta1"),
        ("L_AGI", ("L_AGI",), "beta2"),
    )
    LABOR = ("L_h", "L_AGI")


ModelParams = ModelIParams | ModelIIParams | ModelIIIParams

PARAM_TYPES: dict[str, type[ModelParams]] = {
    cls.ID: cls for cls in (ModelIParams, ModelIIParams, ModelIIIParams)
}


def _require_params(params: ModelParams) -> None:
    if not isinstance(params, _ModelParams):
        raise ContractViolationError(f"expected a model params record, got {type(params).__name__}")


def model_technology(params: ModelParams) -> tuple[CobbDouglasTechnology, FactorBundle]:
    """The (technology, bundle) pair a model delegates to."""
    _require_params(params)
    tech = CobbDouglasTechnology(
        params.A, tuple((factor, getattr(params, exponent)) for factor, _, exponent in params.TERMS)
    )
    bundle = FactorBundle(
        tuple(
            (factor, reduce(add, (getattr(params, base) for base in bases)))
            for factor, bases, _ in params.TERMS
        )
    )
    return tech, bundle


def model_output(params: ModelParams) -> float:
    """Total output of the model at the given parameter record."""
    tech, bundle = model_technology(params)
    return output(tech, bundle)


def model_wages(params: ModelParams) -> dict[str, float]:
    """Competitive wage of every labor factor: its marginal product.

    Keys are the model's labor factor names ("L" for Model I, "L1"/"L2"
    for Model II, "L_h"/"L_AGI" for Model III).  Every labor quantity must
    be strictly positive.
    """
    tech, bundle = model_technology(params)
    return {factor: marginal_product(tech, bundle, factor) for factor in params.LABOR}


def power_index_model3(params: ModelIIIParams) -> float:
    """Human share of labor income, w_h*L_h / (w_h*L_h + w_AGI*L_AGI).

    Under competitive Cobb-Douglas wages each factor's income is its
    elasticity times output, so the index equals beta1/(beta1+beta2) for
    every choice of positive quantities; the wage-based computation here is
    kept so that property is testable rather than assumed.
    """
    if type(params) is not ModelIIIParams:
        raise ContractViolationError(
            f"model_iii expects ModelIIIParams, got {type(params).__name__}"
        )
    if params.L_h <= 0.0 or params.L_AGI <= 0.0:
        raise ContractViolationError("power index needs L_h > 0 and L_AGI > 0")
    if params.beta1 < 0.0 or params.beta2 < 0.0:
        raise ContractViolationError("power index needs beta1 >= 0 and beta2 >= 0")
    if params.beta1 + params.beta2 == 0.0:
        raise UndefinedIndexError("beta1 + beta2 = 0: no labor income exists")
    wages = model_wages(params)
    human = wages["L_h"] * params.L_h
    agi = wages["L_AGI"] * params.L_AGI
    if human + agi == 0.0:
        raise UndefinedIndexError("total labor income is zero; index undefined")
    return human / (human + agi)


class LimitDirection(Enum):
    TO_ZERO_PLUS = "to_zero_plus"
    TO_INFINITY = "to_infinity"


def classify_limit(
    params: ModelParams,
    target: str,
    direction: LimitDirection,
    wage: str | None = None,
) -> LimitClassification:
    """Exact limit of an observable as ``target`` goes to 0+ or infinity.

    Parameters
    ----------
    params:
        The model's parameter record, supplying every non-target value.
    target:
        Name of the quantity or exponent being driven to its limit.  All
        remaining quantities must be strictly positive.
    direction:
        TO_ZERO_PLUS or TO_INFINITY.
    wage:
        The labor factor whose wage is tracked, or None to track output.

    The observable is a monomial ``C * v**p * r**v`` in the target v (with
    Model I's summed capital handled as a shifted base), so the limit is
    decided by signs alone: a zero wage prefactor that is not the target
    makes it ZERO; toward infinity r against 1 decides, then p against 0.
    C is evaluated only for a FINITE limit, as the exponential of a sum of
    logs, so no partial product can overflow or underflow; a finite limit
    that no float can hold raises NonFiniteOutputError.
    """
    _require_params(params)
    quantity_fields = tuple(field for _, bases, _ in params.TERMS for field in bases)
    exponent_fields = tuple(field for _, _, field in params.TERMS)
    if target not in quantity_fields and target not in exponent_fields:
        raise ContractViolationError(f"{target!r} is not part of the {params.ID} expression")
    if wage is not None and wage not in params.LABOR:
        raise ContractViolationError(f"{params.ID} has no wage for factor {wage!r}")
    for field in quantity_fields:
        if field != target and getattr(params, field) <= 0.0:
            raise ContractViolationError(
                f"classify_limit needs all non-target quantities strictly positive; {field} is not"
            )

    return _symbolic_limit(params, target, direction, wage)


def _symbolic_limit(params, target, direction, wage_factor):
    """Reduce the observable to C * v**p * r**v and classify its limit by signs."""
    sign = 1.0
    factors = [(params.A, 1.0)]  # (base, exponent) pairs whose product is C
    poly = 0.0  # net exponent p of the target variable v
    excess = 0.0  # r - 1 for an exponent target; fsum signs it right where r rounds to 1
    shifted: list[tuple[float, float]] = []  # (offset, exponent) for (offset + v)**e

    if wage_factor is not None:
        prefactor_field = next(field for factor, _, field in params.TERMS if factor == wage_factor)
        prefactor = getattr(params, prefactor_field)
        if target == prefactor_field:
            poly += 1.0
        elif prefactor == 0.0:
            return LimitClassification(LimitKind.ZERO)  # a zero elasticity annihilates the wage
        else:
            sign = math.copysign(1.0, prefactor)
            factors.append((abs(prefactor), 1.0))

    for factor, bases, exponent_field in params.TERMS:
        own = factor == wage_factor
        exponent = getattr(params, exponent_field)
        values = [getattr(params, field) for field in bases]
        if target == exponent_field:
            excess = math.fsum([*values, -1.0])
            if own:
                factors.append((math.fsum(values), -1.0))  # x**(v-1) = x**v / x
        elif target in bases:
            offset = math.fsum(getattr(params, field) for field in bases if field != target)
            effective = exponent - 1.0 if own else exponent
            if offset == 0.0:
                poly += effective
            else:
                shifted.append((offset, effective))
        else:
            factors.append((math.fsum(values), exponent - 1.0 if own else exponent))

    if direction is LimitDirection.TO_INFINITY:
        if excess > 0.0:
            return LimitClassification(LimitKind.DIVERGES)
        if excess < 0.0:
            return LimitClassification(LimitKind.ZERO)
        net_poly = poly + math.fsum(exponent for _, exponent in shifted)
    else:
        net_poly = -poly  # u = 1/v turns v**p into u**(-p); r**v -> r**0 == 1
        factors += shifted  # (offset + v)**e -> offset**e at v -> 0+
    if net_poly > 0.0:
        return LimitClassification(LimitKind.DIVERGES)
    if net_poly < 0.0:
        return LimitClassification(LimitKind.ZERO)

    # each log scaled by 2**-13, so that its product with any finite exponent,
    # and the sum of a few such products, stays finite
    scaled = math.fsum(exponent * (math.log(base) / 8192.0) for base, exponent in factors)
    try:
        value = sign * math.exp(8192.0 * scaled)
    except OverflowError:
        value = math.inf
    if value == 0.0 or math.isinf(value):
        raise NonFiniteOutputError(
            f"finite limit for target {target!r} ({direction.value}) lies outside the float range"
        )
    return LimitClassification(LimitKind.FINITE, value)
