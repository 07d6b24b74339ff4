import math
import random
import re
from itertools import groupby

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from agiecon import DomainError, TransitionParams, power_curve
from agiecon import svg
from agiecon.svg import _partition as partition
from agiecon.svg import line_chart

# the plot rectangle inside the chart's 10 % margins, by the chart's own expressions
LEFT, RIGHT = 0.1 * 800, 0.9 * 800
TOP, BOTTOM = 0.1 * 600, 0.9 * 600


def chart_vertices(points):
    """The "x,y" vertices of the one polyline a chart of ``points`` draws."""
    xs, ys = [x for x, _ in points], [y for _, y in points]
    svg = line_chart(xs=xs, curves=[("c", ys)], title="t", x_label="x", y_label="y")
    (coords,) = re.findall(r'<polyline class="curve"[^>]* points="([^"]*)"', svg)
    return coords.split()


def full_polyline(points):
    """Every non-NaN point as (pixel column, "x,y" vertex, py): the undecimated polyline."""
    return [
        (
            math.floor(LEFT + x * (RIGHT - LEFT)),
            f"{LEFT + x * (RIGHT - LEFT):.2f},{BOTTOM - y * (BOTTOM - TOP):.2f}",
            BOTTOM - y * (BOTTOM - TOP),
        )
        for x, y in points
        if not (math.isnan(x) or math.isnan(y))
    ]


def column_runs(full):
    """Index ranges of the runs of consecutive vertices in one pixel column."""
    runs, start = [], 0
    for i in range(1, len(full) + 1):
        if i == len(full) or full[i][0] != full[start][0]:
            runs.append(range(start, i))
            start = i
    return runs


def shuffled_columns(xs, rng):
    """``xs`` with each pixel column's points shuffled and split in up to
    three pieces, and the pieces shuffled: x is not sorted, and a column is
    visited in several runs."""
    pieces = []
    for _, run in groupby(xs, key=lambda x: math.floor(LEFT + x * (RIGHT - LEFT))):
        run = list(run)
        rng.shuffle(run)
        cuts = sorted(rng.sample(range(1, len(run)), min(2, len(run) - 1)))
        pieces += [run[a:b] for a, b in zip([0, *cuts], [*cuts, len(run)])]
    rng.shuffle(pieces)
    return [x for piece in pieces for x in piece]


@st.composite
def dense_curves(draw):
    """Curves on a grid of 1/64000 steps: 100 grid x per pixel column, so each
    vertex string is unique and the SVG can be read back point by point.
    x rises, falls or is shuffled, and NaN x or y fall inside pixel columns."""
    step = draw(st.sampled_from([1, 2, 3, 7, 30, 101]))
    n = draw(st.integers(1, min(2000, 64000 // step + 1)))
    start = draw(st.integers(0, 64000 - step * (n - 1)))
    xs = [(start + step * i) / 64000 for i in range(n)]
    order = draw(st.sampled_from(["ascending", "descending", "shuffled"]))
    if order == "descending":
        xs.reverse()
    elif order == "shuffled":
        xs = shuffled_columns(xs, draw(st.randoms(use_true_random=False)))
    kind = draw(st.sampled_from(["rising", "falling", "any"]))
    ys = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    if kind != "any":
        ys.sort(reverse=kind == "falling")
    points = list(zip(xs, ys))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n // 10)):
        x, y = points[i]
        points[i] = (math.nan, y) if i % 2 else (x, math.nan)
    return points


def assert_columns_keep_ends_and_extremes(points):
    """In each pixel column the chart keeps the undecimated polyline's first
    and last vertex and its lowest and highest py, and nothing else."""
    full = full_polyline(points)
    index = {vertex: i for i, (_, vertex, _) in enumerate(full)}
    assert len(index) == len(full)
    kept = [index[vertex] for vertex in chart_vertices(points)]
    assert kept == sorted(set(kept))  # a subsequence of the undecimated polyline
    kept_set = set(kept)
    for run in column_runs(full):
        mine = [i for i in run if i in kept_set]
        if len(run) <= 4:
            assert mine == list(run)
            continue
        assert len(mine) <= 4
        assert mine[0] == run[0] and mine[-1] == run[-1]
        assert min(full[i][2] for i in mine) == min(full[i][2] for i in run)
        assert max(full[i][2] for i in mine) == max(full[i][2] for i in run)


# two runs of five drawn points in pixel column 80 (x < 1/640), one on each
# side of column 81; the first has a NaN y and a NaN x between its lowest
# and its highest point
@example([(0.001, 0.5), (0.0002, 0.1), (0.0011, math.nan), (0.0005, 0.9), (math.nan, 0.3),
          (0.0003, 0.2), (0.0009, 0.45), (0.0016, 0.6), (0.0004, 0.4), (0.0007, 0.95),
          (0.0001, 0.05), (0.0006, 0.5), (0.0008, 0.7)])
@given(dense_curves())
def test_each_pixel_column_keeps_its_ends_and_extremes(points):
    assert_columns_keep_ends_and_extremes(points)


@pytest.mark.parametrize("n", [2, 101, 641])
@pytest.mark.parametrize("w_inf", [0.0, 1.0])
def test_at_most_641_grid_points_are_drawn_whole(n, w_inf):
    # a uniform grid this coarse puts at most 4 points in a pixel column
    for lam in (0.5, 2.0, 10.0):
        curve = power_curve(TransitionParams(1.0, w_inf, lam), n)
        points = list(zip(curve.l_agi, curve.p_h))
        assert chart_vertices(points) == [vertex for _, vertex, _ in full_polyline(points)]


def test_dense_power_curve_keeps_at_most_four_vertices_per_column():
    curve = power_curve(TransitionParams(1.0, 2.0, 3.0), 50000)
    points = list(zip(curve.l_agi, curve.p_h))
    assert_columns_keep_ends_and_extremes(points)
    assert len(chart_vertices(points)) <= 4 * 641


def chart_of(xs, curves):
    return line_chart(xs=xs, curves=curves, title="t", x_label="x", y_label="y")


@pytest.mark.parametrize("n", [1, 4, 5, 50000])
@pytest.mark.parametrize("order", ["ascending", "unsorted"])
def test_curves_sharing_an_x_column_draw_as_over_copies(n, order, monkeypatch):
    rng = random.Random(n)
    xs = [i / max(n - 1, 1) for i in range(n)]
    if order == "unsorted":
        xs = shuffled_columns(xs, rng)
    xs = tuple(xs)
    falling = [1.0 - x for x in xs]
    noisy = [rng.random() for _ in xs]
    holes = sorted({0, n // 3, n - 1})
    ys_family = [falling, noisy, list(falling), list(noisy), falling]
    for ys in ys_family[2:4]:  # the same NaN mask in two curves
        for i in holes:
            ys[i] = math.nan
    calls = []
    monkeypatch.setattr(svg, "_partition", lambda *args: calls.append(1) or partition(*args))
    nan_x = list(xs)
    nan_x[n // 2] = math.nan  # off the holes where n > 1; it masks every curve
    for xs in [xs, nan_x] if n > 1 else [xs]:
        del calls[:]
        chart = chart_of(xs, [(f"c{i}", ys) for i, ys in enumerate(ys_family)])
        # one partition per NaN mask: no hole and the holes, each with any NaN x
        assert len(calls) == 2
        # each curve is drawn as it is alone, over its own copy of xs
        curves = re.findall(r'points="([^"]*)"', chart)
        assert curves == [re.findall(r'points="([^"]*)"', chart_of(list(xs), [("c", ys)]))[0]
                          for ys in ys_family]


def test_a_chart_draws_at_most_one_curve_per_colour():
    xs = [0.0, 1.0]
    chart = chart_of(xs, [(f"c{i}", xs) for i in range(svg.MAX_CURVES)])
    colours = re.findall(r'<polyline class="curve" fill="none" stroke="([^"]*)"', chart)
    assert len(set(colours)) == len(colours) == svg.MAX_CURVES == 7
    with pytest.raises(DomainError, match=r"^a chart draws at most 7 curves, got 8$"):
        chart_of(xs, [(f"c{i}", xs) for i in range(svg.MAX_CURVES + 1)])
