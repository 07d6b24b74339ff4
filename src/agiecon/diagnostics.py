"""Built-in diagnostic suite behind the ``check`` command.

Seeded sweeps over random technologies verify the structural identities
(Euler income decomposition, homogeneity scaling, analytic gradients vs
central differences), the argument independence of the labor-income power
index, the endpoints and monotonicity of the power-decline curve, and the
headline limit classifications.  The terminal-power pair of lines reports,
side by side, the literal full-adoption index (exactly 0: the 1 - L weight
annihilates human income) and the weightless terminal wage ratio
e^{-lam} / (e^{-lam} + (1 - e^{-lam})) sometimes quoted for that endpoint;
the two do not agree, and neither value is silently preferred.

Sweeps use ``random.Random`` with fixed seeds: the stdlib generator's
stream is stable across Python versions, so check output is reproducible.
Each sweep keeps its worst error, and a NaN error anywhere makes that worst
value NaN: the line reads ``FAIL <name> nan``.  Perturbed probes (central
differences, homogeneity scalings) evaluate ``production.product_of_terms``
on the instance's ``(name, x, e)`` terms, the product ``output`` forms, so
no bundle is built per probe.
"""

from __future__ import annotations

import math
import random

from .formatting import format_number_or_nan
from .models import (
    LimitDirection,
    ModelIIIParams,
    ModelIIParams,
    ModelIParams,
    classify_limit,
    power_index_model3,
)
from .production import (
    CobbDouglasTechnology,
    FactorBundle,
    LimitKind,
    euler_residual,
    factor_terms,
    homogeneity_degree,
    marginal_product,
    output,
    product_of_terms,
)
from .record import Record
from .transition import TransitionParams, human_power, power_curve


class Diagnostic(Record):
    ok: bool
    name: str
    value: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name} {self.value}"


# the ranges of every random technology and bundle: TFP, factor quantity
# and elasticity
_TFP, _QUANTITY, _ELASTICITY = (0.5, 3.0), (0.1, 10.0), (0.05, 1.0)


def _random_instance(rng: random.Random) -> tuple[CobbDouglasTechnology, FactorBundle]:
    count = rng.randint(2, 5)
    names = [f"x{i}" for i in range(count)]
    tech = CobbDouglasTechnology(
        rng.uniform(*_TFP), tuple((n, rng.uniform(*_ELASTICITY)) for n in names)
    )
    bundle = FactorBundle(tuple((n, rng.uniform(*_QUANTITY)) for n in names))
    return tech, bundle


def _random_model3(rng: random.Random) -> ModelIIIParams:
    """Model III drawn in field order: A a TFP, each base a quantity, each
    exponent an elasticity."""
    ranges = {"A": _TFP, **{exponent: _ELASTICITY for _, _, exponent in ModelIIIParams.TERMS}}
    return ModelIIIParams(
        *(rng.uniform(*ranges.get(field, _QUANTITY)) for field in ModelIIIParams._fields)
    )


def _random_transition(rng: random.Random) -> TransitionParams:
    return TransitionParams(
        w0=rng.uniform(0.1, 10.0), w_inf=rng.uniform(0.0, 10.0), lam=rng.uniform(0.1, 20.0)
    )


def _central_difference(tech: CobbDouglasTechnology, bundle: FactorBundle, name: str) -> float:
    """Two-sided difference quotient of ``output`` in factor ``name``, step 1e-6 * x."""
    terms = factor_terms(tech, bundle)
    x = bundle.quantity(name)
    h = 1e-6 * x

    def output_at(value: float) -> float:
        return product_of_terms(tech.tfp, [(n, value if n == name else q, e) for n, q, e in terms])

    return (output_at(x + h) - output_at(x - h)) / (2.0 * h)


def _max_or_nan(errors) -> float:
    """Largest of the non-negative ``errors`` (0 if none), or NaN if any is NaN.

    ``max`` cannot be trusted here: every comparison with NaN is false, so
    it keeps or drops a NaN operand depending on its position.
    """
    worst = 0.0
    for error in errors:
        if math.isnan(error):
            return math.nan
        if error > worst:
            worst = error
    return worst


def _worst(n: int, seed: int, error) -> float:
    """Worst ``error(rng)`` over ``n`` calls sharing one ``random.Random(seed)``."""
    rng = random.Random(seed)
    return _max_or_nan(error(rng) for _ in range(n))


def _euler_error(rng: random.Random) -> float:
    tech, bundle = _random_instance(rng)
    return abs(euler_residual(tech, bundle)) / abs(output(tech, bundle))


def _gradient_error(rng: random.Random) -> float:
    tech, bundle = _random_instance(rng)
    name = rng.choice(tech.factor_names())
    analytic = marginal_product(tech, bundle, name)
    return abs(_central_difference(tech, bundle, name) - analytic) / abs(analytic)


def _homogeneity_error(rng: random.Random) -> float:
    tech, bundle = _random_instance(rng)
    terms = factor_terms(tech, bundle)
    h = homogeneity_degree(tech)
    y = product_of_terms(tech.tfp, terms)
    errors = []
    for t in (0.5, 1.3, 2.0):
        expected = t**h * y
        scaled = product_of_terms(tech.tfp, [(name, x * t, e) for name, x, e in terms])
        errors.append(abs(scaled - expected) / abs(expected))
    return _max_or_nan(errors)


def _power_index_error(rng: random.Random) -> float:
    params = _random_model3(rng)
    return abs(power_index_model3(params) - params.beta1 / (params.beta1 + params.beta2))


def _zero_adoption_error(rng: random.Random) -> float:
    return abs(human_power(_random_transition(rng), 0.0) - 1.0)


def _full_adoption_error(rng: random.Random) -> float:
    tp = _random_transition(rng)
    return abs(human_power(tp, 1.0)) if tp.w_inf > 0.0 else 0.0


def run_diagnostics() -> list[Diagnostic]:
    results: list[Diagnostic] = []

    def add(ok: bool, name: str, value: float | str) -> None:
        text = value if isinstance(value, str) else format_number_or_nan(value)
        results.append(Diagnostic(ok=ok, name=name, value=text))

    def bounded(name: str, value: float, bound: float) -> None:
        add(value <= bound, name, value)  # a NaN value fails

    for name, n, seed, error, bound in (
        ("euler_identity_max_rel_residual", 1000, 101, _euler_error, 1e-10),
        ("marginal_product_vs_central_difference_max_rel_error", 1000, 202, _gradient_error, 1e-6),
        ("homogeneity_scaling_max_rel_error", 400, 303, _homogeneity_error, 1e-12),
        ("labor_income_power_index_max_abs_deviation", 500, 404, _power_index_error, 1e-12),
        ("human_power_at_zero_adoption_max_abs_error", 100, 505, _zero_adoption_error, 1e-12),
        ("human_power_at_full_adoption_max_abs_error", 100, 505, _full_adoption_error, 1e-12),
    ):
        bounded(name, _worst(n, seed, error), bound)

    # Side-by-side terminal report: the literal index at full adoption vs the
    # weightless terminal wage ratio.  They disagree by construction.
    for lam in (1, 2, 5):
        literal = human_power(TransitionParams(w0=1.0, w_inf=1.0, lam=float(lam)), 1.0)
        add(literal == 0.0, f"terminal_power_full_adoption_lambda_{lam}", literal)
        decay = math.exp(-float(lam))
        ratio = decay / (decay + (1.0 - decay))
        add(abs(ratio - decay) <= 1e-12, f"terminal_wage_ratio_lambda_{lam}", ratio)

    # The literal wage w = beta*A*(K+K_AGI)^alpha * L^(beta-1) grows without
    # bound as L -> 0+ for beta < 1; the collapse narrative holds only through
    # the elasticity channel, where the beta1 prefactor drives the wage to 0.
    model1 = ModelIParams(A=1.0, K=1.0, K_AGI=1.0, L=1.0, alpha=0.5, beta=0.5)
    model2 = ModelIIParams(A=1.0, K=1.0, L1=1.0, L2=1.0, alpha=0.3, beta1=0.4, beta2=0.2)
    for name, params, target, direction, wage, expected in (
        ("limit_human_wage_as_labor_vanishes_diverges_not_zero", model1, "L",
         LimitDirection.TO_ZERO_PLUS, "L", LimitKind.DIVERGES),
        ("limit_human_wage_as_elasticity_vanishes", model2, "beta1",
         LimitDirection.TO_ZERO_PLUS, "L1", LimitKind.ZERO),
        ("limit_output_as_agi_capital_grows", model1, "K_AGI",
         LimitDirection.TO_INFINITY, None, LimitKind.DIVERGES),
    ):
        kind = classify_limit(params, target, direction, wage).kind
        add(kind is expected, name, kind.value.upper())

    violations = 0
    for lam in (0.5, 1.0, 2.0, 5.0, 10.0):
        p_h = power_curve(TransitionParams(w0=1.0, w_inf=1.0, lam=lam), 1001).p_h
        violations += sum(not after < before for before, after in zip(p_h, p_h[1:]))
    add(violations == 0, "power_curve_family_strict_decrease_violations", str(violations))

    # Consistency of the wage map with the index used everywhere above.
    params = ModelIIIParams(
        A=2.0, K=4.0, K_AGI=9.0, L_h=2.0, L_AGI=3.0, alpha=0.3, gamma=0.2, beta1=0.3, beta2=0.2
    )
    bounded("wage_based_index_spot_check_abs_error", abs(power_index_model3(params) - 0.6), 1e-12)

    return results
