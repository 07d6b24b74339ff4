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

``power_columns`` is the only statement of these formulas: it evaluates
them over a whole column of shares.  ``human_wage``, ``agi_wage`` and
``human_power`` are its columns at one checked share, ``power_curve`` runs
it over a uniform grid and returns the curve by column, as a
``PowerCurve`` of tuples, and ``run_scenario`` runs it over a scenario's
adoption shares.  ``sweep`` runs it over its first curve's grid for each
further decay constant, so a sweep shares one grid without a cache.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul, sub, truediv

from .errors import DomainError, UndefinedIndexError
from .record import Record

# A grid point of ``power_curve`` peaks at about 250 bytes of heap (VmHWM at 10**6
# points, CPython 3.11, x86-64 Linux), and ``sweep`` peaks no higher than its first
# curve, so this bound keeps one curve near 2.5 GB: a larger grid is a DomainError,
# not a MemoryError.
MAX_N_POINTS = 10_000_000


class TransitionParams(Record):
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


class PowerCurve(Record):
    """A power curve by column, one tuple per quantity and one entry per grid
    point; p_h is NaN where the index is undefined (0/0)."""

    l_agi: tuple[float, ...]
    w_h: tuple[float, ...]
    w_agi: tuple[float, ...]
    p_h: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.l_agi)


def _check_share(l_agi: float) -> float:
    l_agi = float(l_agi)
    if not (0.0 <= l_agi <= 1.0):
        raise DomainError(f"AGI labor share must lie in [0, 1], got {l_agi!r}")
    return l_agi


def human_wage(tp: TransitionParams, l_agi: float) -> float:
    """w0 * exp(-lam * l_agi); strictly decreasing, w0 at l_agi = 0."""
    return tp.w0 * power_columns(tp, [_check_share(l_agi)])[0][0]


def agi_wage(tp: TransitionParams, l_agi: float) -> float:
    """w_inf * (1 - exp(-lam * l_agi)); non-decreasing, 0 at l_agi = 0."""
    return tp.w_inf * power_columns(tp, [_check_share(l_agi)])[1][0]


def human_power(tp: TransitionParams, l_agi: float) -> float:
    """Human share of total labor income at AGI labor share l_agi.

    Raises UndefinedIndexError where no labor income exists (for example
    w_inf = 0 at l_agi = 1): with both wage incomes zero the 0/0 form has
    no safe imputation, so nothing is imputed.  Any positive income, however
    small, defines the index: the ratio of two non-negative floats with a
    positive sum is always in [0, 1].
    """
    l_agi = _check_share(l_agi)
    p_h = power_columns(tp, [l_agi])[2][0]
    if math.isnan(p_h):
        raise UndefinedIndexError(f"no labor income at l_agi={l_agi!r}: power index undefined")
    return p_h


def _zeros(column: list) -> list[int]:
    """Indices of the entries equal to 0 (-0.0 too, NaN not), in order.

    ``count`` and ``index`` compare at C level, so a column with a handful
    of zeros costs a few passes that make no Python call per entry.
    """
    found, i = [], -1
    for _ in range(column.count(0.0)):
        i = column.index(0.0, i + 1)
        found.append(i)
    return found


def check_n_points(n_points: int) -> None:
    """Raise the DomainError of a grid size ``power_curve`` rejects."""
    if not isinstance(n_points, int) or isinstance(n_points, bool) or not (
        2 <= n_points <= MAX_N_POINTS
    ):
        raise DomainError(f"n_points must be an integer in [2, {MAX_N_POINTS}], got {n_points!r}")


def power_columns(tp: TransitionParams, l_agi) -> tuple[list, list, list]:
    """(decay, rise, p_h) over a column of shares in [0, 1], unchecked.

    Entry i is exp(-lam * l), 1 - exp(-lam * l) and the human share of labor
    income, or NaN where no labor income exists, at l = l_agi[i]: each
    column is one ``map`` over the shares, from one exp per point.  Both
    incomes are taken relative to w0, so subnormal wages keep their
    precision.  The few points with a zero income weight are settled after
    the maps: then an overflowing w_inf / w0 never meets a zero weight
    (inf * 0 is nan), and an underflowing one never hides the positive AGI
    income at l = 1.
    """
    w0, w_inf = tp.w0, tp.w_inf
    decay = list(map(math.exp, map(mul, repeat(-tp.lam), l_agi)))
    rise = list(map(sub, repeat(1.0), decay))
    human_income = list(map(mul, decay, map(sub, repeat(1.0), l_agi)))
    agi_weight = list(map(mul, rise, l_agi))
    no_agi = _zeros(agi_weight)
    for i in no_agi:
        if not rise[i]:
            # exp rounds to 1 where 0 < lam * l < about 1.1e-16, so 1 - exp is
            # 0; -expm1 keeps the small positive rise (0 at l = 0 too)
            rise[i] = -math.expm1(-tp.lam * l_agi[i])
            agi_weight[i] = rise[i] * l_agi[i]
    no_agi = [i for i in no_agi if not agi_weight[i]]
    no_human = _zeros(human_income)
    for i in no_human:  # nan / nan, where the total could be 0; p_h is set below
        human_income[i] = math.nan
    agi_income = map(mul, repeat(w_inf / w0), agi_weight)
    p_h = list(map(truediv, human_income, map(add, human_income, agi_income)))
    # the zero-human-income rule comes first, so it is applied last
    for i in no_agi:
        p_h[i] = 1.0  # also where an infinite w_inf / w0 made inf * 0 = nan
    for i in no_human:
        p_h[i] = math.nan if agi_weight[i] == 0.0 or w_inf == 0.0 else 0.0
    return decay, rise, p_h


def power_curve(tp: TransitionParams, n_points: int) -> PowerCurve:
    """Uniform grid of n_points over l_agi in [0, 1].

    Points where the index is undefined carry p_h = NaN instead of
    poisoning the whole curve.  The grid is uniform on purpose: output is
    deterministic and golden-file friendly.

    Point i is (l_agi, human_wage, agi_wage, human_power or NaN) at
    l_agi = i / (n_points - 1), by ``power_columns`` over the grid.  The
    grid needs no share check, since i / (n - 1) lies in [0, 1].  Each call
    builds its own grid, which lives as long as the curve; another decay
    constant over the same grid is ``power_columns(tp, curve.l_agi)``.
    """
    check_n_points(n_points)  # before the grid is allocated
    l_agi = tuple(map(truediv, range(n_points), repeat(n_points - 1)))
    decay, rise, p_h = power_columns(tp, l_agi)
    return PowerCurve(
        l_agi, tuple(map(mul, repeat(tp.w0), decay)), tuple(map(mul, repeat(tp.w_inf), rise)),
        tuple(p_h),
    )
