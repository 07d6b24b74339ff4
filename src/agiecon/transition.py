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

``power_columns`` states the wage columns, decay and rise, over a column of
shares, and ``_power_kernel`` states p_h at one share by the same
operations; ``power_index`` maps it over a column.  ``human_wage``,
``agi_wage`` and ``human_power`` evaluate them at one checked share.
``power_curve`` runs both over a uniform grid, or a window of one, and
returns the curve by column, as a ``PowerCurve`` of tuples, and
``run_scenario`` runs ``power_index`` over a scenario's adoption shares.
``sweep`` takes its grid one window at a time, and runs ``power_index``
over its first curve's window for each further decay constant, so it
holds one window of every curve at any grid size.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import repeat
from operator import mul, sub, truediv

from .errors import ContractViolationError, DomainError, UndefinedIndexError
from .record import Record

# A grid point of a whole ``power_curve`` peaks at about 250 bytes of heap (VmHWM at
# 10**6 points, CPython 3.11, x86-64 Linux), so this bound keeps one curve near
# 2.5 GB: a larger grid is a DomainError, not a MemoryError.  ``sweep`` takes the
# grid one window at a time and stays near 17 MB VmHWM at any grid size.
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
    p_h = _power_kernel(tp)(l_agi)
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


def _window(name: str, window: range | None, whole: range) -> range:
    """``window``, or ``whole`` where it is None.  A window is a range of
    consecutive indices within ``whole``; anything else is a
    ContractViolationError that names the argument ``name``."""
    if window is None:
        return whole
    if not (isinstance(window, range) and window.step == 1 and whole.start <= window.start
            and window.stop <= whole.stop):
        raise ContractViolationError(f"{name} must be a window of {whole!r}, got {window!r}")
    return window


def power_columns(tp: TransitionParams, l_agi) -> tuple[list, list]:
    """(decay, rise) over a column of shares in [0, 1], unchecked: the wages
    relative to w0 and w_inf, exp(-lam * l) and 1 - exp(-lam * l), each one
    ``map`` from one exp per point.  Where exp rounds to 1 although
    0 < lam * l < about 1.1e-16, 1 - exp is 0, and -expm1 gives the small
    positive rise (0 at l = 0 too).
    """
    decay = list(map(math.exp, map(mul, repeat(-tp.lam), l_agi)))
    rise = list(map(sub, repeat(1.0), decay))
    for i in _zeros(rise):
        rise[i] = -math.expm1(-tp.lam * l_agi[i])
    return decay, rise


def _power_kernel(tp: TransitionParams) -> Callable[[float], float]:
    """``l -> p_h(l)`` for ``tp`` at a share in [0, 1], unchecked; NaN where
    no labor income exists.

    Its decay and rise are ``power_columns``' entries, by the same
    operations.  Incomes are relative to w0, so subnormal wages keep their
    precision, and a zero income weight is settled before the ratio: an
    overflowing w_inf / w0 never meets it (inf * 0 is nan), and an
    underflowing one never hides the positive AGI income at l = 1.
    """
    neg_lam, w_inf, ratio = -tp.lam, tp.w_inf, tp.w_inf / tp.w0
    exp, expm1, nan = math.exp, math.expm1, math.nan

    def p_h(l: float) -> float:
        decay = exp(neg_lam * l)
        rise = 1.0 - decay
        if not rise:
            rise = -expm1(neg_lam * l)
        human_income = decay * (1.0 - l)
        agi_weight = rise * l
        if human_income == 0.0:  # 0 against any AGI income, undefined without one
            return nan if agi_weight == 0.0 or w_inf == 0.0 else 0.0
        if agi_weight == 0.0:
            return 1.0
        return human_income / (human_income + ratio * agi_weight)

    return p_h


def power_index(tp: TransitionParams, l_agi) -> list[float]:
    """``_power_kernel`` over a column of shares in [0, 1], unchecked."""
    return list(map(_power_kernel(tp), l_agi))


def power_curve(tp: TransitionParams, n_points: int, points: range | None = None) -> PowerCurve:
    """Uniform grid of n_points over l_agi in [0, 1], or the window ``points``
    of it.

    Points where the index is undefined carry p_h = NaN instead of
    poisoning the whole curve.  The grid is uniform on purpose: output is
    deterministic and golden-file friendly.

    Point i is (l_agi, human_wage, agi_wage, human_power or NaN) at
    l_agi = i / (n_points - 1), by ``power_columns`` and ``_power_kernel``
    over the grid.  The grid needs no share check, since i / (n - 1) lies in
    [0, 1].  Each call builds its own grid, which lives as long as the
    curve; another decay constant's index over the same grid is
    ``power_index(tp, curve.l_agi)``.

    ``points`` is a range of consecutive grid indices within
    ``range(n_points)``; the curve of a window is those points of the
    whole curve, so the curves of consecutive windows join to it.
    """
    check_n_points(n_points)  # before the grid is allocated
    points = _window("points", points, range(n_points))
    l_agi = tuple(map(truediv, points, repeat(n_points - 1)))
    decay, rise = power_columns(tp, l_agi)
    return PowerCurve(
        l_agi, tuple(map(mul, repeat(tp.w0), decay)), tuple(map(mul, repeat(tp.w_inf), rise)),
        tuple(map(_power_kernel(tp), l_agi)),
    )
