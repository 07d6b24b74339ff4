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

A step is evaluated in closed form, without building a parameter record,
technology or bundle: Y = A K^alpha K_AGI(t)^gamma L_h^beta1_t
L_AGI^beta2_t once, through the same ordered product and zero-quantity
conventions as ``production.output``, and each wage as e * Y / x, the
identity ``production.marginal_product`` evaluates.  The records are
therefore bit-identical to the generic model path.  The adoption path's
step-independent terms (horizon checks, the logistic end points, the
exp-saturating normalizer) are computed once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .errors import (
    ContractViolationError,
    DomainError,
    NonFiniteOutputError,
    SimulationFailureError,
    UndefinedBaselineError,
    UndefinedIndexError,
)
from .models import ModelIIIParams
from .production import product_of_terms
from .transition import TransitionParams, human_power

# unused by the step, kept importable: perfbench/tracer.py wraps these names here
from .models import model_technology  # noqa: F401
from .production import marginal_product, output  # noqa: F401


class AdoptionKind(Enum):
    LINEAR = "linear"
    LOGISTIC = "logistic"
    EXP_SATURATING = "exp_saturating"


@dataclass(frozen=True)
class AdoptionPath:
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
        if self.kind is AdoptionKind.LOGISTIC:
            if self.k is None or self.t0 is None:
                raise DomainError("logistic adoption needs k and t0")
            object.__setattr__(self, "k", float(self.k))
            object.__setattr__(self, "t0", float(self.t0))
            if not math.isfinite(self.k) or self.k <= 0.0:
                raise DomainError(f"logistic steepness k must be > 0, got {self.k!r}")
            if not math.isfinite(self.t0) or self.t0 < 0.0:
                raise DomainError(f"logistic midpoint t0 must be finite and >= 0, got {self.t0!r}")
            if self.r is not None:
                raise DomainError("logistic adoption does not take r")
        elif self.kind is AdoptionKind.EXP_SATURATING:
            if self.r is None:
                raise DomainError("exp_saturating adoption needs r")
            object.__setattr__(self, "r", float(self.r))
            if not math.isfinite(self.r) or self.r <= 0.0:
                raise DomainError(f"exp_saturating rate r must be > 0, got {self.r!r}")
            if self.k is not None or self.t0 is not None:
                raise DomainError("exp_saturating adoption does not take k or t0")
        else:
            if self.k is not None or self.t0 is not None or self.r is not None:
                raise DomainError("linear adoption takes no parameters")

    @classmethod
    def linear(cls) -> "AdoptionPath":
        return cls(AdoptionKind.LINEAR)

    @classmethod
    def logistic(cls, k: float, t0: float) -> "AdoptionPath":
        return cls(AdoptionKind.LOGISTIC, k=k, t0=t0)

    @classmethod
    def exp_saturating(cls, r: float) -> "AdoptionPath":
        return cls(AdoptionKind.EXP_SATURATING, r=r)


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _adoption_curve(path: AdoptionPath, horizon: int):
    """Validate ``horizon`` for ``path`` and return t -> s(t).

    Only the step-independent terms are computed up front; the per-step
    expression is the path's formula with those terms substituted, so each
    s(t) is the float a from-scratch evaluation gives.
    """
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise DomainError(f"horizon must be an integer >= 1, got {horizon!r}")
    if path.kind is AdoptionKind.LINEAR:
        return lambda t: t / horizon
    if path.kind is AdoptionKind.LOGISTIC:
        k, t0 = path.k, path.t0
        if t0 > horizon:
            raise DomainError(f"logistic midpoint t0={t0!r} exceeds horizon {horizon}")
        low = _sigmoid(k * (0.0 - t0))
        span = _sigmoid(k * (horizon - t0)) - low
        if not span > 0.0:
            raise DomainError(
                f"logistic adoption with k={k!r}, t0={t0!r} does not rise over horizon"
                f" {horizon}: s(horizon) - s(0) rounds to {span!r}"
            )
        return lambda t: (_sigmoid(k * (t - t0)) - low) / span
    r = path.r
    scale = 1.0 - math.exp(-r * horizon)
    if not scale > 0.0:
        raise DomainError(
            f"exp_saturating adoption with r={r!r} does not rise over horizon {horizon}:"
            f" 1 - exp(-r * horizon) rounds to {scale!r}"
        )
    return lambda t: (1.0 - math.exp(-r * t)) / scale


def adoption_share(path: AdoptionPath, t: int, horizon: int) -> float:
    """Share s(t) in [0, 1]; non-decreasing in t, 0 at t=0, 1 at t=horizon.

    Raises DomainError when the path cannot rise over the horizon in
    floating point (a rate so small that its normalizer rounds to 0).
    """
    curve = _adoption_curve(path, horizon)
    if not isinstance(t, int) or isinstance(t, bool) or not (0 <= t <= horizon):
        raise DomainError(f"step t must be an integer in [0, {horizon}], got {t!r}")
    return curve(t)


@dataclass(frozen=True)
class ScenarioConfig:
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
        if not isinstance(self.horizon, int) or isinstance(self.horizon, bool) or self.horizon < 1:
            raise DomainError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        p0 = self.initial_model3
        if p0.beta1 <= 0.0:
            raise DomainError("initial beta1 must be > 0 so there is elasticity to transfer")
        if p0.beta2 < 0.0:
            raise DomainError("initial beta2 must be >= 0")
        if p0.K <= 0.0 or p0.K_AGI <= 0.0:
            raise DomainError("initial K and K_AGI must be > 0")
        growth = float(self.agi_capital_growth)
        if not math.isfinite(growth) or growth < 0.0:
            raise DomainError(f"agi_capital_growth must be finite and >= 0, got {growth!r}")
        object.__setattr__(self, "agi_capital_growth", growth)
        theta = float(self.collapse_threshold)
        if not (0.0 < theta <= 1.0):
            raise DomainError(f"collapse_threshold must lie in (0, 1], got {theta!r}")
        object.__setattr__(self, "collapse_threshold", theta)
        _adoption_curve(self.adoption, self.horizon)


@dataclass(frozen=True)
class TimeSeriesRecord:
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


_RECORD_FIELDS = tuple(field.name for field in fields(TimeSeriesRecord))


def _record(*values) -> TimeSeriesRecord:
    """``TimeSeriesRecord(*values)`` at half the cost: the frozen dataclass
    ``__init__`` makes one ``object.__setattr__`` call per field, this fills
    the instance dict in one update.  The record has no ``__post_init__``."""
    record = object.__new__(TimeSeriesRecord)
    record.__dict__.update(zip(_RECORD_FIELDS, values))
    return record


def _factor_wage(y: float, x: float, elasticity: float) -> float:
    if x > 0.0:
        return elasticity * y / x  # marginal_product's e_f * Y / x_f
    # boundary share: the factor is absent; its wage is the prefactor value
    return 0.0 if elasticity == 0.0 else math.nan


def _step(cfg: ScenarioConfig, t: int, s: float) -> TimeSeriesRecord:
    p0 = cfg.initial_model3
    beta1_t = p0.beta1 * (1.0 - s)
    beta2_t = p0.beta2 + p0.beta1 * s
    try:
        k_agi = p0.K_AGI * (1.0 + cfg.agi_capital_growth) ** t
    except OverflowError:
        k_agi = math.inf
    if not math.isfinite(k_agi):
        raise SimulationFailureError(f"step {t}: AGI capital overflowed")
    if not (0.0 <= s <= 1.0):
        raise DomainError(f"step {t}: adoption share must lie in [0, 1], got {s!r}")
    l_h = 1.0 - s
    try:
        y = product_of_terms(
            p0.A,
            (
                ("K", p0.K, p0.alpha),
                ("K_AGI", k_agi, p0.gamma),
                ("L_h", l_h, beta1_t),
                ("L_AGI", s, beta2_t),
            ),
        )
    except NonFiniteOutputError as exc:
        raise SimulationFailureError(f"step {t}: {exc}") from exc
    w_h = _factor_wage(y, l_h, beta1_t)
    w_agi = _factor_wage(y, s, beta2_t)
    p_h_elastic = beta1_t / (beta1_t + beta2_t)
    try:
        p_h_transition = human_power(cfg.transition, s)
    except UndefinedIndexError:
        p_h_transition = math.nan
    wage_bill = w_h * l_h
    # product_of_terms has already rejected a non-finite Y
    for label, value in (("w_h", w_h), ("wage_bill", wage_bill)):
        if not math.isfinite(value):
            raise SimulationFailureError(f"step {t}: {label} is not finite ({value!r})")
    if math.isinf(w_agi):
        raise SimulationFailureError(f"step {t}: w_agi is not finite ({w_agi!r})")
    return _record(
        t, s, beta1_t, beta2_t, p0.K, k_agi, l_h, s, y, w_h, w_agi, p_h_elastic, p_h_transition,
        wage_bill,
    )


def run_scenario(cfg: ScenarioConfig) -> list[TimeSeriesRecord]:
    """Simulate steps t = 0..horizon and return records in step order.

    Deterministic: every field is a closed-form function of (t, s(t)), so
    repeated runs serialize byte-identically.
    """
    share = _adoption_curve(cfg.adoption, cfg.horizon)
    return [_step(cfg, t, share(t)) for t in range(cfg.horizon + 1)]


def detect_collapse(series: list[TimeSeriesRecord], theta: float) -> int | None:
    """Smallest step t with w_h(t) < theta * w_h(0), or None if never."""
    theta = float(theta)
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta!r}")
    if not series:
        raise ContractViolationError("empty series")
    baseline = series[0].w_h
    if baseline == 0.0 or math.isnan(baseline):
        raise UndefinedBaselineError("w_h(0) = 0: collapse threshold has no baseline")
    cutoff = theta * baseline
    for record in series:
        if record.w_h < cutoff:
            return record.t
    return None
