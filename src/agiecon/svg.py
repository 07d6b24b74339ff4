"""Dependency-free SVG line charts with deterministic bytes.

Emitting the markup directly (no plotting library) keeps repeated runs
byte-identical, which golden tests rely on.  A chart has one x column and
a y column per curve, as a sweep's curves share one grid; each curve is
mapped affinely into the plot rectangle left after 10% margins on every
side, and dense curves are decimated per pixel column with C-level passes
over those columns.  A ``Chart`` is fed its columns one window at a time,
carrying across windows only each curve's run still open in a pixel column,
so a caller holds one window of a long grid, never the grid.  Within a
window the pixel columns of the x column are found once per NaN mask:
curves with NaN at the same points share one partition.
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
# the plot rectangle inside 10% margins on every side
_LEFT, _RIGHT = 0.1 * _WIDTH, 0.9 * _WIDTH
_TOP, _BOTTOM = 0.1 * _HEIGHT, 0.9 * _HEIGHT


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


def _kept(ys: Sequence[float], start: int, end: int, count: int) -> Sequence[int]:
    """Indices of the points M4 keeps of a run of ``count`` points, in order.

    ys[start:end] holds the run's points, or the points kept of its first
    part followed by the rest: the first, lowest, highest and last of those
    are the run's own, the earliest of tied extremes included.  All are
    kept where ``count`` is at most 4.
    """
    if count <= 4:
        return range(start, end)
    run_ys = ys[start:end]
    low, high = run_ys.index(min(run_ys)), run_ys.index(max(run_ys))
    return sorted({start, start + low, start + high, end - 1})


class Chart:
    """A line chart of unit-square data (x and y both in [0, 1]) with one
    curve per label, fed by ``add`` one window of its columns at a time and
    drawn by ``draw``; at most ``MAX_CURVES`` curves.

    M4 aggregation (Jugel et al., PVLDB 7(10), 2014): of each run of
    consecutive points in one pixel column, floor(px(x)), at most the first,
    last, lowest-y and highest-y point (the earliest of tied extremes) are
    drawn, in their original order, so a dense curve costs about four
    vertices per column; a run of at most four points is drawn whole.  A
    polyline through the kept points spans each pixel column over the same
    vertical extent, and joins neighbouring columns by the same segments, as
    one through every point.  x need not be sorted: a column visited twice
    is two runs.  A run may span windows: the run still open at a window's
    end is carried as its pixel column, its point count and the points it
    keeps so far, so the windows a chart is fed in never change what it
    draws.
    """

    def __init__(self, labels: Sequence[str]) -> None:
        if len(labels) > MAX_CURVES:
            raise DomainError(f"a chart draws at most {MAX_CURVES} curves, got {len(labels)}")
        self.labels = list(labels)
        self._kept: list[list] = [[] for _ in self.labels]  # (px, y) of closed runs' kept points
        # per curve, (pixel column, count, pxs, ys) of the run the last window ended in
        self._open: list = [None] * len(self.labels)

    def add(self, xs: Sequence[float], ys_per_curve: Sequence[Sequence[float]]) -> None:
        """Append the next window of the x column and of each curve's y column.

        A curve skips the points where x or its y is NaN.
        """
        # which points are drawn (x == x: not NaN), or None for all; a sum
        # holding a NaN is NaN
        x_drawn = list(map(eq, xs, xs)) if math.isnan(sum(xs)) else None
        partitions = []  # (drawn, pxs, runs) for each NaN mask met so far
        for index, ys in enumerate(ys_per_curve):
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
                pxs, runs = _partition(
                    xs if drawn is None else list(compress(xs, drawn)), _LEFT, _RIGHT
                )
                partitions.append((drawn, pxs, runs))
            if runs:
                self._extend(index, pxs, ys, runs)

    def _extend(self, index: int, pxs: list, ys: Sequence[float], runs: list) -> None:
        """Decimate the runs of one window of curve ``index``; the last stays open."""
        kept = self._kept[index]
        # (pxs, ys, start, end, count) of each run
        pieces = [(pxs, ys, start, end, end - start) for start, end in runs]
        if self._open[index] is not None:
            column, count, open_pxs, open_ys = self._open[index]
            end = runs[0][1]
            if column == math.floor(pxs[0]):  # the first run continues the open one
                pieces[0] = ([*open_pxs, *pxs[:end]], [*open_ys, *ys[:end]],
                             0, len(open_pxs) + end, count + end)
            else:
                kept += zip(open_pxs, open_ys)
        for run_pxs, run_ys, start, end, count in pieces[:-1]:
            kept += [(run_pxs[i], run_ys[i]) for i in _kept(run_ys, start, end, count)]
        run_pxs, run_ys, start, end, count = pieces[-1]
        indices = _kept(run_ys, start, end, count)
        self._open[index] = (math.floor(run_pxs[start]), count,
                             [run_pxs[i] for i in indices], [run_ys[i] for i in indices])


def draw(chart: Chart, title: str, x_label: str, y_label: str) -> str:
    """The SVG text of ``chart``: one polyline per curve, plus a legend entry
    for each, in its own colour; axes carry six labeled ticks."""
    left, right, top, bottom = _LEFT, _RIGHT, _TOP, _BOTTOM

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

    for index, label in enumerate(chart.labels):
        color = _PALETTE[index]
        points = chart._kept[index]
        if chart._open[index] is not None:  # the run the last window ended in
            _, _, open_pxs, open_ys = chart._open[index]
            points = points + list(zip(open_pxs, open_ys))
        coords = " ".join(f"{x:.2f},{py(y):.2f}" for x, y in points)
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
