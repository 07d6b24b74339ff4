"""Dependency-free SVG line charts with deterministic bytes.

Emitting the markup directly (no plotting library) keeps repeated runs
byte-identical, which golden tests rely on.  A chart has one x column and
a y column per curve, as a sweep's curves share one grid; each curve is
mapped affinely into the plot rectangle left after 10% margins on every
side, and dense curves are decimated per pixel column with C-level passes
over those columns.  The pixel columns of the x column are found once per
NaN mask: curves with NaN at the same points share one partition.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import compress, groupby, repeat
from operator import add, and_, eq, mul

from .errors import DomainError


def escape(text: str) -> str:
    """``xml.sax.saxutils.escape`` without its import, which loads urllib and http."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
)

# one colour and one legend row inside the plot per curve
MAX_CURVES = len(_PALETTE)

_TICKS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

_WIDTH = 800
_HEIGHT = 600


def _partition(xs: Sequence[float], left: float, right: float) -> tuple[list, list]:
    """px(x) of each x, and the (start, end) bounds of each run of
    consecutive points in one pixel column, floor(px(x))."""
    pxs = list(map(add, repeat(left), map(mul, xs, repeat(right - left))))
    runs, start = [], 0
    for _, run in groupby(map(math.floor, pxs)):
        end = start + len(list(run))
        runs.append((start, end))
        start = end
    return pxs, runs


def check_n_curves(n_curves: int) -> None:
    """Raise the DomainError of a curve count ``line_chart`` rejects."""
    if n_curves > MAX_CURVES:
        raise DomainError(f"a chart draws at most {MAX_CURVES} curves, got {n_curves}")


def line_chart(
    xs: Sequence[float],
    curves: list[tuple[str, Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Chart of unit-square data (x and y both in [0, 1]).

    One polyline per (label, ys) curve over the x column xs, plus a legend
    entry for each, in its own colour; at most ``MAX_CURVES`` curves.  A
    curve skips the points where x or its y is NaN.  Axes carry six labeled
    ticks.

    M4 aggregation (Jugel et al., PVLDB 7(10), 2014): of each run of
    consecutive points in one pixel column, floor(px(x)), at most the first,
    last, lowest-y and highest-y point (the earliest of tied extremes) are
    drawn, in their original order, so a dense curve costs about four
    vertices per column; a run of at most four points is drawn whole.  A
    polyline through the kept points spans each pixel column over the same
    vertical extent, and joins neighbouring columns by the same segments, as
    one through every point.  x need not be sorted: a column visited twice
    is two runs.
    """
    check_n_curves(len(curves))
    left = 0.1 * _WIDTH
    right = 0.9 * _WIDTH
    top = 0.1 * _HEIGHT
    bottom = 0.9 * _HEIGHT

    def px(x: float) -> float:
        return left + x * (right - left)

    def py(y: float) -> float:
        return bottom - y * (bottom - top)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text class="title" x="{_WIDTH / 2:.2f}" y="{top - 18:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="18">{escape(title)}</text>',
        f'<line class="axis" x1="{left:.2f}" y1="{bottom:.2f}" x2="{right:.2f}" y2="{bottom:.2f}" '
        f'stroke="#000000" stroke-width="1.5"/>',
        f'<line class="axis" x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{bottom:.2f}" '
        f'stroke="#000000" stroke-width="1.5"/>',
    ]

    for tick in _TICKS:
        x = px(tick)
        lines.append(
            f'<line class="tick" x1="{x:.2f}" y1="{bottom:.2f}" x2="{x:.2f}" y2="{bottom + 6:.2f}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text class="xtick" x="{x:.2f}" y="{bottom + 22:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{tick:.1f}</text>'
        )
        y = py(tick)
        lines.append(
            f'<line class="tick" x1="{left - 6:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text class="ytick" x="{left - 10:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{tick:.1f}</text>'
        )

    lines.append(
        f'<text class="xlabel" x="{(left + right) / 2:.2f}" y="{bottom + 44:.2f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="14">{escape(x_label)}</text>'
    )
    lines.append(
        f'<text class="ylabel" x="{left - 44:.2f}" y="{(top + bottom) / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 {left - 44:.2f} {(top + bottom) / 2:.2f})">{escape(y_label)}</text>'
    )

    # which points are drawn (x == x: not NaN), or None for all; a sum
    # holding a NaN is NaN
    x_drawn = list(map(eq, xs, xs)) if math.isnan(sum(xs)) else None
    partitions = []  # (drawn, pxs, runs) for each NaN mask met so far
    for index, (label, ys) in enumerate(curves):
        color = _PALETTE[index]
        drawn = x_drawn
        if math.isnan(sum(ys)):
            y_drawn = map(eq, ys, ys)
            drawn = list(y_drawn if x_drawn is None else map(and_, x_drawn, y_drawn))
        if drawn is not None:
            ys = list(compress(ys, drawn))
        for seen, pxs, runs in partitions:
            if seen == drawn:
                break
        else:
            pxs, runs = _partition(xs if drawn is None else list(compress(xs, drawn)), left, right)
            partitions.append((drawn, pxs, runs))
        kept = []
        for start, end in runs:
            if end - start <= 4:
                kept += range(start, end)
            else:
                run_ys = ys[start:end]
                low, high = run_ys.index(min(run_ys)), run_ys.index(max(run_ys))
                kept += sorted({start, start + low, start + high, end - 1})
        coords = " ".join(f"{pxs[i]:.2f},{py(ys[i]):.2f}" for i in kept)
        lines.append(
            f'<polyline class="curve" fill="none" stroke="{color}" stroke-width="2" '
            f'points="{coords}"/>'
        )
        swatch_y = top + 16 + 20 * index
        lines.append(
            f'<line class="legend-swatch" x1="{right - 150:.2f}" y1="{swatch_y:.2f}" '
            f'x2="{right - 122:.2f}" y2="{swatch_y:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text class="legend" x="{right - 114:.2f}" y="{swatch_y + 4:.2f}" '
            f'text-anchor="start" font-family="sans-serif" font-size="12">{escape(label)}</text>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
