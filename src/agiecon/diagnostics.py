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
"""

from __future__ import annotations

import math
import random

from .formatting import format_number
from .models import (
    OUTPUT,
    LimitDirection,
    ModelId,
    ModelIIIParams,
    ModelIIParams,
    ModelIParams,
    Observable,
    classify_limit,
    model_wages,
    power_index_model3,
)
from .production import (
    CobbDouglasTechnology,
    FactorBundle,
    LimitKind,
    euler_residual,
    homogeneity_degree,
    marginal_product,
    output,
)
from .record import Record
from .transition import TransitionParams, human_power, power_curve


class Diagnostic(Record):
    ok: bool
    name: str
    value: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name} {self.value}"


def _random_instance(rng: random.Random) -> tuple[CobbDouglasTechnology, FactorBundle]:
    count = rng.randint(2, 5)
    names = [f"x{i}" for i in range(count)]
    tech = CobbDouglasTechnology(
        rng.uniform(0.5, 3.0), tuple((n, rng.uniform(0.05, 1.0)) for n in names)
    )
    bundle = FactorBundle(tuple((n, rng.uniform(0.1, 10.0)) for n in names))
    return tech, bundle


def _random_model3(rng: random.Random) -> ModelIIIParams:
    return ModelIIIParams(
        A=rng.uniform(0.5, 3.0),
        K=rng.uniform(0.1, 10.0),
        K_AGI=rng.uniform(0.1, 10.0),
        L_h=rng.uniform(0.1, 10.0),
        L_AGI=rng.uniform(0.1, 10.0),
        alpha=rng.uniform(0.05, 1.0),
        gamma=rng.uniform(0.05, 1.0),
        beta1=rng.uniform(0.05, 1.0),
        beta2=rng.uniform(0.05, 1.0),
    )


def _central_difference(tech: CobbDouglasTechnology, bundle: FactorBundle, name: str) -> float:
    """Two-sided difference quotient of ``output`` in factor ``name``, step 1e-6 * x."""
    x = bundle.quantity(name)
    h = 1e-6 * x

    def output_at(value: float) -> float:
        return output(tech, FactorBundle(tuple({**dict(bundle.entries), name: value}.items())))

    return (output_at(x + h) - output_at(x - h)) / (2.0 * h)


def _euler_sweep(n: int, seed: int) -> float:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n):
        tech, bundle = _random_instance(rng)
        y = output(tech, bundle)
        worst = max(worst, abs(euler_residual(tech, bundle)) / abs(y))
    return worst


def _gradient_sweep(n: int, seed: int) -> float:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n):
        tech, bundle = _random_instance(rng)
        name = rng.choice(tech.factor_names())
        numeric = _central_difference(tech, bundle, name)
        analytic = marginal_product(tech, bundle, name)
        worst = max(worst, abs(numeric - analytic) / abs(analytic))
    return worst


def _homogeneity_sweep(n: int, seed: int) -> float:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n):
        tech, bundle = _random_instance(rng)
        h = homogeneity_degree(tech)
        y = output(tech, bundle)
        for t in (0.5, 1.3, 2.0):
            expected = t**h * y
            worst = max(worst, abs(output(tech, bundle.scaled(t)) - expected) / abs(expected))
    return worst


def _power_index_sweep(n: int, seed: int) -> float:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n):
        params = _random_model3(rng)
        expected = params.beta1 / (params.beta1 + params.beta2)
        worst = max(worst, abs(power_index_model3(params) - expected))
    return worst


def _endpoint_sweeps(n: int, seed: int) -> tuple[float, float]:
    rng = random.Random(seed)
    worst_start = 0.0
    worst_end = 0.0
    for _ in range(n):
        tp = TransitionParams(
            w0=rng.uniform(0.1, 10.0), w_inf=rng.uniform(0.0, 10.0), lam=rng.uniform(0.1, 20.0)
        )
        worst_start = max(worst_start, abs(human_power(tp, 0.0) - 1.0))
        if tp.w_inf > 0.0:
            worst_end = max(worst_end, abs(human_power(tp, 1.0)))
    return worst_start, worst_end


def _curve_family_violations(lambdas=(0.5, 1.0, 2.0, 5.0, 10.0), n_points: int = 1001) -> int:
    violations = 0
    for lam in lambdas:
        points = power_curve(TransitionParams(w0=1.0, w_inf=1.0, lam=lam), n_points)
        for before, after in zip(points, points[1:]):
            if not after.p_h < before.p_h:
                violations += 1
    return violations


def run_diagnostics() -> list[Diagnostic]:
    results: list[Diagnostic] = []

    def add(ok: bool, name: str, value: str) -> None:
        results.append(Diagnostic(ok=ok, name=name, value=value))

    euler = _euler_sweep(1000, seed=101)
    add(euler <= 1e-10, "euler_identity_max_rel_residual", format_number(euler))

    gradient = _gradient_sweep(1000, seed=202)
    add(gradient <= 1e-6, "marginal_product_vs_central_difference_max_rel_error", format_number(gradient))

    homogeneity = _homogeneity_sweep(400, seed=303)
    add(homogeneity <= 1e-12, "homogeneity_scaling_max_rel_error", format_number(homogeneity))

    index_dev = _power_index_sweep(500, seed=404)
    add(index_dev <= 1e-12, "labor_income_power_index_max_abs_deviation", format_number(index_dev))

    start_err, end_err = _endpoint_sweeps(100, seed=505)
    add(start_err <= 1e-12, "human_power_at_zero_adoption_max_abs_error", format_number(start_err))
    add(end_err <= 1e-12, "human_power_at_full_adoption_max_abs_error", format_number(end_err))

    # Side-by-side terminal report: the literal index at full adoption vs the
    # weightless terminal wage ratio.  They disagree by construction.
    for lam in (1, 2, 5):
        tp = TransitionParams(w0=1.0, w_inf=1.0, lam=float(lam))
        literal = human_power(tp, 1.0)
        add(literal == 0.0, f"terminal_power_full_adoption_lambda_{lam}", format_number(literal))
        decay = math.exp(-float(lam))
        ratio = decay / (decay + (1.0 - decay))
        add(
            abs(ratio - decay) <= 1e-12,
            f"terminal_wage_ratio_lambda_{lam}",
            format_number(ratio),
        )

    model1 = ModelIParams(A=1.0, K=1.0, K_AGI=1.0, L=1.0, alpha=0.5, beta=0.5)
    model2 = ModelIIParams(A=1.0, K=1.0, L1=1.0, L2=1.0, alpha=0.3, beta1=0.4, beta2=0.2)

    # The literal wage w = beta*A*(K+K_AGI)^alpha * L^(beta-1) grows without
    # bound as L -> 0+ for beta < 1; the collapse narrative holds only through
    # the elasticity channel, where the beta1 prefactor drives the wage to 0.
    vanishing_labor = classify_limit(
        ModelId.MODEL_I, model1, "L", LimitDirection.TO_ZERO_PLUS, Observable.wage("L")
    )
    add(
        vanishing_labor.kind is LimitKind.DIVERGES,
        "limit_human_wage_as_labor_vanishes_diverges_not_zero",
        vanishing_labor.kind.value.upper(),
    )
    vanishing_elasticity = classify_limit(
        ModelId.MODEL_II, model2, "beta1", LimitDirection.TO_ZERO_PLUS, Observable.wage("L1")
    )
    add(
        vanishing_elasticity.kind is LimitKind.ZERO,
        "limit_human_wage_as_elasticity_vanishes",
        vanishing_elasticity.kind.value.upper(),
    )
    growing_capital = classify_limit(
        ModelId.MODEL_I, model1, "K_AGI", LimitDirection.TO_INFINITY, OUTPUT
    )
    add(
        growing_capital.kind is LimitKind.DIVERGES,
        "limit_output_as_agi_capital_grows",
        growing_capital.kind.value.upper(),
    )

    violations = _curve_family_violations()
    add(violations == 0, "power_curve_family_strict_decrease_violations", str(violations))

    # Consistency of the wage map with the index used everywhere above.
    params = ModelIIIParams(
        A=2.0, K=4.0, K_AGI=9.0, L_h=2.0, L_AGI=3.0, alpha=0.3, gamma=0.2, beta1=0.3, beta2=0.2
    )
    wages = model_wages(ModelId.MODEL_III, params)
    index = wages["L_h"] * params.L_h / (
        wages["L_h"] * params.L_h + wages["L_AGI"] * params.L_AGI
    )
    deviation = abs(index - 0.6)
    add(deviation <= 1e-12, "wage_based_index_spot_check_abs_error", format_number(deviation))

    return results
