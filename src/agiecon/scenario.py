"""Time-stepped displacement scenario over the three-factor model.

An exogenous adoption path s(t) in [0, 1] drives the split of the unit
labor supply (L_AGI = s, L_h = 1 - s) and transfers output elasticity from
human to AGI labor:

    beta1_t = beta1_0 * (1 - s)
    beta2_t = beta2_0 + beta1_0 * s        (beta1_t + beta2_t conserved)

so returns to scale stay constant while the wage-relevant elasticity
migrates.  AGI capital compounds geometrically, K_AGI(t) = K_AGI(0) *
(1 + g)**t, the simplest unbounded growth path.  Each step records output,
both wages, both power indices (elasticity-share and exogenous-transition)
and the human wage bill, a proxy for wage-financed aggregate demand.

At boundary shares the vanished factor's wage follows the elasticity
prefactor convention: 0 when its elasticity is 0, NaN otherwise (the
literal marginal product has no finite value there).  Because the human
elasticity and the human labor quantity vanish together at s = 1, w_h is
always a real number and ends at exactly 0.

``run_columns`` computes the run by column, without building a parameter
record, technology or bundle: each record field is one ``map`` pass over
the steps, and this kernel is the only statement of the step's formulas
and checks.  ``run_scenario`` zips those columns into records, and
``simulate`` formats the columns themselves.  The step takes Model III's
structure from ``ModelIIIParams``: Y = A K^alpha K_AGI(t)^gamma
L_h^beta1_t L_AGI^beta2_t is the ordered product over its ``TERMS``, with
the zero-quantity convention of ``production.output``, and each factor in
its ``LABOR`` earns the wage e * Y / x, the identity
``production.marginal_product`` evaluates.  p_h_transition is
``transition.power_index`` over the shares, the point kernel of
``human_power``, so the records are bit-identical to the generic model
path.  The column order is ``TimeSeriesRecord``'s field order.
Steps are independent, so ``run_columns`` and ``run_scenario`` also
compute any window of consecutive steps, whose values are the whole run's
for those steps: a caller that takes a run window by window, as
``simulate`` does, holds one window at a time.  The kernel only computes
and checks; ``run_columns`` alone narrows a failing window, by halves, to
its first failing step, which raises its own error in the step's check
order.  A step whose Y is not finite is evaluated once more by
``model_output``, whose error it raises, so no term of the model is
restated here.
The adoption path's step-independent terms (horizon checks, the logistic
end points, the exp-saturating normalizer) are computed once per call, and
so are Y's: its leading terms whose base and exponent do not move with the
step (A * K^alpha) are one scalar that starts every step's product, with
the same operations in the same order, and a parameter that does not move
is p0's value repeated, not a list, in the product; the K column is one
list of p0's K.  Each step check is first one C-level reduction: a column
whose sum is finite holds no NaN or infinity, so the share range can then
take its min and max.  Only where that sum is not finite (a NaN, an
infinity, or finite values whose sum overflows) does the check run its
exact per-value pass, so every error keeps its type, message and step.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from itertools import compress, dropwhile, repeat, takewhile
from operator import add, attrgetter, le, lt, mul, neg, sub, truediv
from typing import NamedTuple

from .errors import (
    ContractViolationError,
    DomainError,
    EconError,
    NonFiniteOutputError,
    SimulationFailureError,
    UndefinedBaselineError,
)
from .models import ModelIIIParams, model_output
from .record import Record
from .transition import TransitionParams, _window, _zeros, power_index

# unused by the step, kept importable: perfbench/tracer.py wraps these names here
from .models import model_technology  # noqa: F401
from .production import marginal_product, output  # noqa: F401
from .transition import human_power  # noqa: F401


# A step of the library's eager ``run_scenario`` peaks at about 640 bytes of heap
# (VmHWM at 2 * 10**5 steps, CPython 3.11, x86-64 Linux), so this bound keeps one
# eager run near 640 MB: a larger horizon is a DomainError, not a MemoryError.
# ``simulate`` holds one window of steps, about 4 MB above its import at any horizon.
MAX_HORIZON = 1_000_000


class AdoptionKind(Enum):
    LINEAR = "linear"
    LOGISTIC = "logistic"
    EXP_SATURATING = "exp_saturating"


# The parameters each adoption path takes, in config order; a path is
# validated and a [scenario] section is read and written through this table.
ADOPTION_PARAMS = {
    AdoptionKind.LINEAR: (),
    AdoptionKind.LOGISTIC: ("k", "t0"),
    AdoptionKind.EXP_SATURATING: ("r",),
}
_PATH_PARAMS = tuple(name for takes in ADOPTION_PARAMS.values() for name in takes)


class AdoptionPath(Record):
    """Exogenous adoption share path; s(0) = 0 and s(horizon) = 1 for all kinds.

    The literature behind this model posits rising AGI labor without a
    functional form, so all three shapes are artifact conventions:
    LINEAR t/T, LOGISTIC an affinely renormalized sigmoid with steepness k
    and midpoint t0, EXP_SATURATING (1 - e^{-rt}) / (1 - e^{-rT}).
    """

    kind: AdoptionKind
    k: float | None = None
    t0: float | None = None
    r: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, AdoptionKind):
            raise DomainError(f"adoption kind must be an AdoptionKind, got {self.kind!r}")
        takes = ADOPTION_PARAMS[self.kind]
        if any(getattr(self, name) is None for name in takes):
            raise DomainError(f"{self.kind.value} adoption needs {' and '.join(takes)}")
        foreign = [
            name for name in _PATH_PARAMS if name not in takes and getattr(self, name) is not None
        ]
        if foreign:
            raise DomainError(f"{self.kind.value} adoption does not take {' or '.join(foreign)}")
        for name in takes:
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.k is not None and (not math.isfinite(self.k) or self.k <= 0.0):
            raise DomainError(f"logistic steepness k must be finite and > 0, got {self.k!r}")
        if self.t0 is not None and (not math.isfinite(self.t0) or self.t0 < 0.0):
            raise DomainError(f"logistic midpoint t0 must be finite and >= 0, got {self.t0!r}")
        if self.r is not None and (not math.isfinite(self.r) or self.r <= 0.0):
            raise DomainError(f"exp_saturating rate r must be finite and > 0, got {self.r!r}")

    @classmethod
    def linear(cls) -> "AdoptionPath":
        return cls(AdoptionKind.LINEAR)

    @classmethod
    def logistic(cls, k: float, t0: float) -> "AdoptionPath":
        return cls(AdoptionKind.LOGISTIC, k=k, t0=t0)

    @classmethod
    def exp_saturating(cls, r: float) -> "AdoptionPath":
        return cls(AdoptionKind.EXP_SATURATING, r=r)


def _sigmoids(z: list[float]) -> list[float]:
    """The logistic function over a non-decreasing column: 1 / (1 + e^-z)
    where z >= 0 and e^z / (1 + e^z) below, so no exp overflows."""
    split = bisect_left(z, 0.0)
    below = list(map(math.exp, z[:split]))
    return list(map(truediv, below, map(add, repeat(1.0), below))) + list(
        map(truediv, repeat(1.0), map(add, repeat(1.0), map(math.exp, map(neg, z[split:]))))
    )


def _adoption_curve(path: AdoptionPath, horizon: int):
    """Validate ``horizon`` for ``path`` and return steps -> [s(t) for t in steps].

    The horizon is an integer in [1, MAX_HORIZON], its bound checked first,
    before any float of it; every caller meets this one rule.

    ``steps`` is a range of integer steps.  Only the step-independent terms
    are computed up front; each share is one ``map`` pass of the path's
    formula with those terms substituted, so each s(t) is the float a
    from-scratch evaluation gives.
    """
    if isinstance(horizon, int) and horizon > MAX_HORIZON:  # before any float of it
        raise DomainError(f"horizon must be <= {MAX_HORIZON}, got {horizon!r}")
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise DomainError(f"horizon must be an integer >= 1, got {horizon!r}")
    if path.kind is AdoptionKind.LINEAR:
        return lambda steps: list(map(truediv, steps, repeat(horizon)))  # t / T
    if path.kind is AdoptionKind.LOGISTIC:
        k, t0 = path.k, path.t0
        if t0 > horizon:
            raise DomainError(f"logistic midpoint t0={t0!r} exceeds horizon {horizon}")
        # the end points as one column, non-decreasing because t0 <= horizon
        low, high = _sigmoids([k * (0.0 - t0), k * (horizon - t0)])
        span = high - low
        if not span > 0.0:
            raise DomainError(
                f"logistic adoption with k={k!r}, t0={t0!r} does not rise over horizon"
                f" {horizon}: s(horizon) - s(0) rounds to {span!r}"
            )

        def logistic(steps):  # (sigmoid(k * (t - t0)) - low) / span
            z = list(map(mul, repeat(k), map(sub, steps, repeat(t0))))  # rises with t
            return list(map(truediv, map(sub, _sigmoids(z), repeat(low)), repeat(span)))

        return logistic
    r = path.r
    scale = 1.0 - math.exp(-r * horizon)
    if not scale > 0.0:
        raise DomainError(
            f"exp_saturating adoption with r={r!r} does not rise over horizon {horizon}:"
            f" 1 - exp(-r * horizon) rounds to {scale!r}"
        )

    def exp_saturating(steps):  # (1 - exp(-r * t)) / scale
        decay = map(math.exp, map(mul, repeat(-r), steps))
        return list(map(truediv, map(sub, repeat(1.0), decay), repeat(scale)))

    return exp_saturating


def adoption_share(path: AdoptionPath, t: int, horizon: int) -> float:
    """Share s(t) in [0, 1]; non-decreasing in t, 0 at t=0, 1 at t=horizon.

    Raises DomainError for a horizon outside [1, MAX_HORIZON], and when the
    path cannot rise over the horizon in floating point (a rate so small
    that its normalizer rounds to 0).
    """
    curve = _adoption_curve(path, horizon)
    if not isinstance(t, int) or isinstance(t, bool) or not (0 <= t <= horizon):
        raise DomainError(f"step t must be an integer in [0, {horizon}], got {t!r}")
    return curve(range(t, t + 1))[0]


class ScenarioConfig(Record):
    """Everything a run needs; labor fields of initial_model3 are overridden
    by the adoption path at every step, only its K, K_AGI, A and exponents
    seed the simulation."""

    horizon: int
    initial_model3: ModelIIIParams
    adoption: AdoptionPath
    agi_capital_growth: float = 0.05
    transition: TransitionParams = TransitionParams()
    collapse_threshold: float = 0.5

    def __post_init__(self) -> None:
        if type(self.initial_model3) is not ModelIIIParams:
            got = type(self.initial_model3).__name__
            raise ContractViolationError(f"ScenarioConfig expects ModelIIIParams, got {got}")
        growth, theta = check_run(
            self.adoption, self.horizon, self.agi_capital_growth, self.collapse_threshold
        )
        p0 = self.initial_model3
        if p0.beta1 <= 0.0:
            raise DomainError("initial beta1 must be > 0 so there is elasticity to transfer")
        if p0.beta2 < 0.0:
            raise DomainError("initial beta2 must be >= 0")
        if p0.K <= 0.0 or p0.K_AGI <= 0.0:
            raise DomainError("initial K and K_AGI must be > 0")
        total = p0.beta1 + p0.beta2  # bounds every step's beta2_t = beta2 + beta1 * s
        if not math.isfinite(total):
            raise DomainError(f"initial beta1 + beta2 must be finite, got {total!r}")
        object.__setattr__(self, "agi_capital_growth", growth)
        object.__setattr__(self, "collapse_threshold", theta)


def check_run(path: AdoptionPath, horizon: int, growth: float, theta: float) -> tuple[float, float]:
    """The rules a run's horizon, adoption path, AGI capital growth and
    collapse threshold obey, for ``ScenarioConfig`` and a config's
    [scenario] section alike; returns the growth and threshold as floats."""
    _adoption_curve(path, horizon)  # checks the horizon against the path
    growth = float(growth)
    if not math.isfinite(growth) or growth < 0.0:
        raise DomainError(f"agi_capital_growth must be finite and >= 0, got {growth!r}")
    theta = float(theta)
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"collapse_threshold must lie in (0, 1], got {theta!r}")
    return growth, theta


class TimeSeriesRecord(NamedTuple):
    """One simulation step.  w_agi is NaN at s = 0 when beta2_0 > 0 (vanished
    factor with positive elasticity); p_h_transition is NaN where the
    exogenous index is undefined."""

    t: int
    s: float
    beta1: float
    beta2: float
    K: float
    K_AGI: float
    L_h: float
    L_AGI: float
    Y: float
    w_h: float
    w_agi: float
    p_h_elastic: float
    p_h_transition: float
    wage_bill: float


def run_scenario(cfg: ScenarioConfig, steps: range | None = None) -> list[TimeSeriesRecord]:
    """Simulate steps t = 0..horizon, or the window ``steps`` of them, and
    return their records in step order.

    ``steps`` is a range of consecutive steps within 0..horizon; the records
    of a run's windows join to the records of the whole run.  Deterministic:
    every field is a closed-form function of (t, s(t)), so repeated runs
    serialize byte-identically.  Where a step fails one of the step checks,
    the first failing step raises its own error.
    """
    return list(map(tuple.__new__, repeat(TimeSeriesRecord), zip(*run_columns(cfg, steps))))


def run_columns(cfg: ScenarioConfig, steps: range | None = None) -> list:
    """``run_scenario(cfg, steps)`` by column: one column per
    ``TimeSeriesRecord`` field, in field order, each with one value per step.

    The t column is the window's range, the K column holds the one float
    K at every step, and the L_AGI column is the s column's list itself.
    """
    steps = _window("steps", steps, range(cfg.horizon + 1))
    return _narrowed(cfg, steps, _adoption_curve(cfg.adoption, cfg.horizon)(steps))


def _narrowed(cfg: ScenarioConfig, steps: range, s: list[float]) -> list:
    """``_step_columns`` of ``steps``.  Every check is per step, so a failing
    window holds a failing step: a window of several steps is split in
    halves, left first, until the first failing step raises its own error."""
    try:
        return _step_columns(cfg, steps, s)
    except EconError:
        if len(steps) == 1:
            raise
    half = len(steps) // 2
    _narrowed(cfg, steps[:half], s[:half])
    _narrowed(cfg, steps[half:], s[half:])


def _step_columns(cfg: ScenarioConfig, steps: range, s: list[float]) -> list:
    """The columns of ``steps`` at shares ``s``, one ``map`` pass per field.

    The step checks run in this order: K_AGI finite, s in [0, 1], Y finite
    (with ``model_output``'s errors for the step's record), w_h and the wage
    bill finite, w_agi not infinite.  A failing check raises its error as
    step ``steps[0]``'s, which is right for a window of one step.  Every
    column keeps the window's length, so a later step that fails any check
    fails the window.
    """
    p0 = cfg.initial_model3
    try:
        growth = map(pow, repeat(1.0 + cfg.agi_capital_growth), steps)
        k_agi = list(map(mul, repeat(p0.K_AGI), growth))
    except OverflowError:
        k_agi = [math.inf]
    if not _finite(k_agi):
        raise SimulationFailureError(f"step {steps[0]}: AGI capital overflowed")
    if math.isfinite(sum(s)):  # no NaN, which min and max would skip: min([0.5, nan]) is 0.5
        in_range = 0.0 <= min(s, default=0.0) and max(s, default=1.0) <= 1.0
    else:
        in_range = all(map(le, repeat(0.0), s)) and all(map(le, s, repeat(1.0)))
    if not in_range:
        raise DomainError(f"step {steps[0]}: adoption share must lie in [0, 1], got {s[0]!r}")
    l_h = list(map(sub, repeat(1.0), s))
    beta1 = list(map(mul, repeat(p0.beta1), l_h))
    beta2 = list(map(add, repeat(p0.beta2), map(mul, repeat(p0.beta1), s)))
    # the step's parameter record by column: the fields that move with the
    # step, and p0's value repeated for every other
    moving = {"K_AGI": k_agi, "L_h": l_h, "L_AGI": s, "beta1": beta1, "beta2": beta2}
    model = {field: moving.get(field, repeat(getattr(p0, field))) for field in p0._fields}
    # product_of_terms' ordered product over ModelIIIParams.TERMS.  The labor
    # quantities lie in [0, 1] with exponents >= 0, and at a zero quantity
    # x ** e is its convention: 0 ** e = 0 for e > 0, and 0 ** 0 = 1 leaves y.
    # Its leading terms whose base and exponent do not move are one scalar.
    def fixed(term):
        _, (base,), exponent = term
        return base not in moving and exponent not in moving

    try:
        y = p0.A
        for _, (base,), exponent in takewhile(fixed, ModelIIIParams.TERMS):
            y *= getattr(p0, base) ** getattr(p0, exponent)
        y = repeat(y, len(steps))
        for _, (base,), exponent in dropwhile(fixed, ModelIIIParams.TERMS):
            y = map(mul, y, map(pow, model[base], model[exponent]))
        y = list(y)
    except OverflowError:
        y = [math.inf] * len(steps)
    if not _finite(y):
        step = p0._replace(**{field: values[0] for field, values in moving.items()})
        try:
            model_output(step)  # raises for a Y the ordered product leaves non-finite
        except NonFiniteOutputError as exc:
            raise SimulationFailureError(f"step {steps[0]}: {exc}") from exc
    w_h, w_agi = (
        _factor_wages(y, model[base], model[exponent])
        for factor, (base,), exponent in ModelIIIParams.TERMS if factor in ModelIIIParams.LABOR
    )
    wage_bill = list(map(mul, w_h, l_h))
    for label, column, defined in (
        ("w_h", w_h, _finite(w_h)),
        ("wage_bill", wage_bill, _finite(wage_bill)),
        # NaN flags a vanished factor
        ("w_agi", w_agi, math.isfinite(sum(w_agi)) or not any(map(math.isinf, w_agi))),
    ):
        if not defined:
            raise SimulationFailureError(f"step {steps[0]}: {label} is not finite ({column[0]!r})")
    columns = {
        **moving, "K": [p0.K] * len(steps), "t": steps, "s": s, "Y": y, "w_h": w_h,
        "w_agi": w_agi, "p_h_elastic": list(map(truediv, beta1, map(add, beta1, beta2))),
        "p_h_transition": power_index(cfg.transition, s), "wage_bill": wage_bill,
    }
    return list(map(columns.__getitem__, TimeSeriesRecord._fields))


def _finite(column: list[float]) -> bool:
    """Whether every value of ``column`` is finite.  A finite sum, one C-level
    reduction, says so; any other sum (a NaN, an infinity, or finite values
    whose sum overflows) falls through to the exact per-value pass."""
    return math.isfinite(sum(column)) or all(map(math.isfinite, column))


def _factor_wages(y: list[float], x: list[float], elasticity: list[float]) -> list[float]:
    """Each factor's wage e * y / x, ``marginal_product``'s e_f * Y / x_f.

    Where x = 0 the factor is absent, and its wage is the prefactor value:
    0 when its elasticity is 0, NaN otherwise.
    """
    absent = _zeros(x)
    if absent:
        x = list(x)
        for i in absent:
            x[i] = 1.0  # any divisor; the wage is set below
    wages = list(map(truediv, map(mul, elasticity, y), x))
    for i in absent:
        wages[i] = 0.0 if elasticity[i] == 0.0 else math.nan
    return wages


def detect_collapse(
    series: list[TimeSeriesRecord], theta: float, baseline: float | None = None
) -> int | None:
    """Smallest step t in ``series`` with w_h(t) < theta * w_h(0), or None if never.

    ``baseline`` is w_h(0), by default the w_h of the first record, so a run
    computed window by window is searched one window at a time: pass the
    first window's baseline with each later window.  Raises
    UndefinedBaselineError where w_h(0) is 0 or NaN.
    """
    theta = float(theta)
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta!r}")
    if baseline is None:
        if not series:
            raise ContractViolationError("empty series")
        baseline = series[0].w_h
    t, w_h = map(attrgetter("t"), series), map(attrgetter("w_h"), series)
    return collapse_step(t, w_h, theta, baseline)


def collapse_step(t, w_h, theta: float, baseline: float) -> int | None:
    """The first step of the column ``t`` whose w_h lies below theta *
    ``baseline``, or None; raises UndefinedBaselineError where the baseline
    w_h(0) is 0 or NaN.  ``theta`` is checked by the caller."""
    if baseline == 0.0 or math.isnan(baseline):
        raise UndefinedBaselineError("w_h(0) = 0: collapse threshold has no baseline")
    return next(compress(t, map(lt, w_h, repeat(theta * baseline))), None)
