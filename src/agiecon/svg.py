"""Dependency-free SVG line charts with deterministic bytes.

Emitting the markup directly (no plotting library) keeps repeated runs
byte-identical, which golden tests rely on.  Data is mapped affinely into
the plot rectangle left after 10% margins on every side.
"""

from __future__ import annotations

import math


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

_TICKS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

_WIDTH = 800
_HEIGHT = 600


def _pixel_extremes(points: list[tuple[float, float]], columns: list[int]) -> list:
    """The points of each run of consecutive equal ``columns`` that can change a pixel.

    M4 aggregation (Jugel et al., PVLDB 7(10), 2014): a run of more than four
    points keeps its first, last, lowest-y and highest-y point (the earliest
    of tied extremes), in their original order; a shorter run is kept whole.
    A polyline through the kept points spans each pixel column over the same
    vertical extent, and joins neighbouring columns by the same segments, as
    one through every point.
    """
    kept = []
    start = 0
    ends = [i for i in range(1, len(columns)) if columns[i] != columns[i - 1]]
    for end in [*ends, len(columns)]:
        run = points[start:end]
        if len(run) <= 4:
            kept += run
        else:
            ys = [y for _, y in run]
            picks = {0, ys.index(min(ys)), ys.index(max(ys)), len(run) - 1}
            kept += [run[i] for i in sorted(picks)]
        start = end
    return kept


def line_chart(
    curves: list[tuple[str, list[tuple[float, float]]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Chart of unit-square data (x and y both in [0, 1]).

    One polyline per (label, points) curve plus a legend entry for each;
    NaN points are skipped.  Axes carry six labeled ticks.  Of each run of
    consecutive points in one pixel column, floor(px(x)), at most the first,
    last, lowest and highest are drawn, so a dense curve costs about four
    vertices per column; a run of at most four points is drawn whole.
    """
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

    for index, (label, points) in enumerate(curves):
        color = _PALETTE[index % len(_PALETTE)]
        drawn = [(x, y) for x, y in points if not (math.isnan(x) or math.isnan(y))]
        coords = " ".join(
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in _pixel_extremes(drawn, [math.floor(px(x)) for x, _ in drawn])
        )
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
