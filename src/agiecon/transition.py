"""Exogenous wage transition as the AGI labor share l rises from 0 to 1.

Human wages decay exponentially, w_h(l) = w0 * exp(-lam * l), while the
AGI wage saturates, w_agi(l) = w_inf * (1 - exp(-lam * l)).  With the unit
labor supply split as L_h = 1 - l and L_AGI = l, the human share of labor
income is

    p_h(l) = w_h(l) * (1 - l) / (w_h(l) * (1 - l) + w_agi(l) * l)

which is 1 at l = 0 and, whenever w_inf > 0, exactly 0 at l = 1 because
the (1 - l) weight annihilates the numerator.  Dropping the labor weights
instead gives w_h(1) / (w_h(1) + w_agi(1)) = exp(-lam) at l = 1; that
simplified wage-ratio value is surfaced by the diagnostics report, never
returned by ``human_power``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UndefinedIndexError


@dataclass(frozen=True)
class TransitionParams:
    """Initial human wage w0, asymptotic AGI wage w_inf, decay constant lam."""

    w0: float = 1.0
    w_inf: float = 1.0
    lam: float = 2.0

    def __post_init__(self) -> None:
        for name in ("w0", "w_inf", "lam"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not math.isfinite(self.w0) or self.w0 <= 0.0:
            raise DomainError(f"w0 must be a positive finite real, got {self.w0!r}")
        if not math.isfinite(self.w_inf) or self.w_inf < 0.0:
            raise DomainError(f"w_inf must be a non-negative finite real, got {self.w_inf!r}")
        if not math.isfinite(self.lam) or self.lam <= 0.0:
            raise DomainError(f"lambda must be a positive finite real, got {self.lam!r}")


@dataclass(frozen=True)
class PowerCurvePoint:
    """One grid point; p_h is NaN where the index is undefined (0/0)."""

    l_agi: float
    w_h: float
    w_agi: float
    p_h: float


def _check_share(l_agi: float) -> float:
    l_agi = float(l_agi)
    if not (0.0 <= l_agi <= 1.0):
        raise DomainError(f"AGI labor share must lie in [0, 1], got {l_agi!r}")
    return l_agi


def human_wage(tp: TransitionParams, l_agi: float) -> float:
    """w0 * exp(-lam * l_agi); strictly decreasing, w0 at l_agi = 0."""
    l_agi = _check_share(l_agi)
    return tp.w0 * math.exp(-tp.lam * l_agi)


def agi_wage(tp: TransitionParams, l_agi: float) -> float:
    """w_inf * (1 - exp(-lam * l_agi)); non-decreasing, 0 at l_agi = 0."""
    l_agi = _check_share(l_agi)
    return tp.w_inf * (1.0 - math.exp(-tp.lam * l_agi))


def human_power(tp: TransitionParams, l_agi: float) -> float:
    """Human share of total labor income at AGI labor share l_agi.

    Raises UndefinedIndexError where no labor income exists (for example
    w_inf = 0 at l_agi = 1): with both wage incomes zero the 0/0 form has
    no safe imputation, so nothing is imputed.  Any positive income, however
    small, defines the index: the ratio of two non-negative floats with a
    positive sum is always in [0, 1].
    """
    l_agi = _check_share(l_agi)
    decay = math.exp(-tp.lam * l_agi)
    human_income = tp.w0 * decay * (1.0 - l_agi)
    agi_income = tp.w_inf * (1.0 - decay) * l_agi
    total = human_income + agi_income
    if total == 0.0:
        raise UndefinedIndexError(
            f"no labor income at l_agi={l_agi!r}: power index undefined"
        )
    return human_income / total


def power_curve(tp: TransitionParams, n_points: int) -> list[PowerCurvePoint]:
    """Uniform grid of n_points over l_agi in [0, 1].

    Points where the index is undefined carry p_h = NaN instead of
    poisoning the whole curve.  The grid is uniform on purpose: output is
    deterministic and golden-file friendly.
    """
    if not isinstance(n_points, int) or isinstance(n_points, bool) or n_points < 2:
        raise DomainError(f"n_points must be an integer >= 2, got {n_points!r}")
    points: list[PowerCurvePoint] = []
    for i in range(n_points):
        l_agi = i / (n_points - 1)
        try:
            p_h = human_power(tp, l_agi)
        except UndefinedIndexError:
            p_h = math.nan
        points.append(
            PowerCurvePoint(
                l_agi=l_agi,
                w_h=human_wage(tp, l_agi),
                w_agi=agi_wage(tp, l_agi),
                p_h=p_h,
            )
        )
    return points
