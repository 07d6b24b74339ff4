import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agiecon import SerializationError, format_number
from agiecon.cli import _WINDOW as BLOCK
from agiecon.formatting import format_columns, format_number_or_nan

PATTERN = re.compile(r"^-?\d\.\d{9}e-?(0|[1-9]\d*)$")


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.0, "0.000000000e0"),
        (-0.0, "0.000000000e0"),
        (1.0, "1.000000000e0"),
        (1, "1.000000000e0"),
        (math.exp(-1.0), "3.678794412e-1"),
        (-math.exp(-1.0), "-3.678794412e-1"),
        (12.0, "1.200000000e1"),
        (1e10, "1.000000000e10"),  # the smallest exponent that keeps its "+" past "e+0"
        (1.23e17, "1.230000000e17"),
        (5e-324, "4.940656458e-324"),
        (5.0e-9, "5.000000000e-9"),
        (9.9999999995e-1, "9.999999999e-1"),  # stored just below the midpoint
        (0.999999999951, "1.000000000e0"),  # carries into the exponent
    ],
)
def test_known_values(value, expected):
    assert format_number(value) == expected


def test_round_half_even_at_ninth_digit():
    # 0.36787944117144233 -> ...4412 (the dropped tail exceeds half an ulp)
    assert format_number(0.36787944117144233).startswith("3.678794412")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rejected(bad):
    with pytest.raises(SerializationError):
        format_number(bad)


@given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
def test_shape_and_accuracy(x):
    text = format_number(x)
    assert PATTERN.match(text), text
    parsed = float(text)
    assert abs(parsed - x) <= 6e-10 * abs(x) + 1e-300


@given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
def test_deterministic(x):
    assert format_number(x) == format_number(x)


def split_exponent_oracle(x):
    """An independent single-value definition: split at "e", reparse the exponent."""
    mantissa, exponent = f"{float(x) + 0.0:.9e}".split("e")
    return f"{mantissa}e{int(exponent)}"


# signed zeros, subnormals, the ends of the range, and ninth-digit round-ups
EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1e-308, -1e-308, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    0.999999999951, -0.999999999951, 9.9999999995e-1, 9.9999999995e99, 1e-5, 12.0,
)
finite = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@given(finite)
def test_format_number_matches_split_exponent_oracle(x):
    assert format_number(x) == split_exponent_oracle(x)


# rows laid out like series.csv: an integer step, numbers, and nan-able columns
NAN_COLUMNS = (2, 4)
rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 10**6),
        finite,
        st.one_of(finite, st.just(math.nan)),
        finite,
        st.one_of(finite, st.just(math.nan)),
    ),
    min_size=1,
    max_size=20,
)


def by_column(rows):
    """The columns of ``rows``, each a list."""
    return [list(column) for column in zip(*rows)]


def per_cell(rows):
    return "".join(
        ",".join(
            [str(row[0]), format_number(row[1]), format_number_or_nan(row[2]),
             format_number(row[3]), format_number_or_nan(row[4])]
        ) + "\n"
        for row in rows
    )


@given(rows_strategy)
def test_format_rows_matches_per_cell_formatting(rows):
    assert format_columns(by_column(rows), NAN_COLUMNS) == per_cell(rows).encode("ascii")


@given(rows_strategy, st.data())
def test_format_rows_rejects_non_finite_cells(rows, data):
    index = data.draw(st.integers(0, len(rows) - 1))
    column = data.draw(st.sampled_from((1, 2, 3, 4)))
    # nan is accepted only in NAN_COLUMNS; inf nowhere
    rejected = (math.inf, -math.inf) if column in NAN_COLUMNS else (math.inf, -math.inf, math.nan)
    bad = data.draw(st.sampled_from(rejected))
    row = list(rows[index])
    row[column] = bad
    rows[index] = tuple(row)
    with pytest.raises(SerializationError):
        format_columns(by_column(rows), NAN_COLUMNS)


def per_cell_columns(columns, nan_columns):
    """Each cell of ``columns`` by ``format_number`` or ``format_number_or_nan``,
    row by row, so a bad cell raises the first bad row's error."""
    return "".join(
        ",".join(
            str(value) if isinstance(value, int)
            else format_number_or_nan(value) if i in nan_columns else format_number(value)
            for i, value in enumerate(row)
        ) + "\n"
        for row in zip(*columns)
    ).encode("ascii")


# equal values that are not one float: both zeros, and the ends of the range
CONSTANTS = (0.0, -0.0, 5e-324, 1.7976931348623157e308, -2.5e-5, 12.0, math.inf, -math.inf,
             math.nan)


@st.composite
def column_tables(draw):
    """(columns, nan_columns) with varying, constant, repeated and int
    columns, some column objects given twice, and 1 to 20 rows."""
    n_rows = draw(st.integers(1, 20))
    columns = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("varying", "constant", "zeros", "int", "again")))
        if kind == "again" and columns:
            columns.append(draw(st.sampled_from(columns)))  # the same object again
        elif kind == "constant":
            columns.append([draw(st.sampled_from(CONSTANTS))] * n_rows)
        elif kind == "zeros":
            columns.append(draw(st.lists(st.sampled_from((0.0, -0.0)), min_size=n_rows,
                                         max_size=n_rows)))
        elif kind == "int":
            start = draw(st.integers(0, 10**6))
            shape = draw(st.sampled_from(("constant", "range", "list")))
            if shape == "list":
                columns.append(draw(st.lists(st.integers(-10**12, 10**12), min_size=n_rows,
                                             max_size=n_rows)))
            else:
                columns.append([start] * n_rows if shape == "constant"
                               else range(start, start + n_rows))
        else:
            cell = st.one_of(finite, st.sampled_from((math.nan, math.inf, -math.inf)))
            columns.append(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
    nan_columns = draw(st.sets(st.integers(0, len(columns) - 1)))
    return columns, nan_columns


@given(column_tables())
def test_format_columns_matches_per_cell_formatting_or_its_first_error(table):
    columns, nan_columns = table
    want = format_outcome(lambda columns: per_cell_columns(columns, nan_columns), columns)
    assert format_outcome(lambda columns: format_columns(columns, nan_columns), columns) == want


@pytest.mark.parametrize(
    "column,want",
    [
        ([0.0, -0.0, 0.0], b"0.000000000e0"),
        ([-0.0, 0.0, -0.0], b"0.000000000e0"),
        ([-0.0] * 3, b"0.000000000e0"),
        ([-2.5e-5] * 3, b"-2.500000000e-5"),
        ([7] * 3, b"7"),
    ],
    ids=["plus-zero-first", "minus-zero-first", "minus-zeros", "float", "int"],
)
def test_a_constant_column_is_written_on_every_row(column, want):
    assert format_columns([range(3), column]) == b"".join(b"%d,%s\n" % (t, want) for t in range(3))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_constant_non_finite_column_raises_as_each_cell_would(bad):
    message = f"cannot serialize non-finite value {bad!r}"
    with pytest.raises(SerializationError, match=re.escape(message)):
        format_columns([range(4), [1.0, 2.0, 3.0, 4.0], [bad] * 4])


def test_a_constant_nan_column_listed_as_nan_is_written_as_nan():
    assert format_columns([range(2), [math.nan] * 2], nan_columns=(1,)) == b"0,nan\n1,nan\n"


def test_a_column_given_twice_is_written_in_both_places():
    s, t = [0.0, 2.5e-5, -0.0, 1e10], range(5, 9)
    text = format_columns([t, s, [1.0, 2.0, 3.0, 4.0], s, t])
    assert text == per_cell_columns([t, s, [1.0, 2.0, 3.0, 4.0], list(s), list(t)], ())


def test_a_column_given_twice_keeps_the_first_bad_rows_error():
    s = [0.5, math.nan, math.inf]
    with pytest.raises(SerializationError, match="nan"):
        format_columns([range(3), s, s], nan_columns=(2,))
    assert format_columns([range(2), s[:2], s[:2]], nan_columns=(1, 2)) == (
        b"0,5.000000000e-1,5.000000000e-1\n1,nan,nan\n"
    )


@pytest.mark.parametrize("columns", [[[3], [0.5], [-0.0]], [[0.5], [0.5]], [[1e300]]])
def test_a_one_row_window_is_one_row(columns):
    # every column of one row is constant, so the template is the whole row
    assert format_columns(columns) == per_cell_columns(columns, ())
    assert format_columns(columns).count(b"\n") == 1


def test_constant_columns_alone_give_every_row():
    assert format_columns([[2] * 3, [0.5] * 3]) == b"2,5.000000000e-1\n" * 3


def block_table(n_rows, seed, nan_rows=()):
    """Rows in the layout of ``per_cell``, with cells whose ``%.9e`` form
    needs every ``_normalize`` rewrite, and NaN in both NaN columns of
    ``nan_rows``."""
    rng = random.Random(seed)
    cells = (0.0, -0.0, 1.0, -2.5e-5, 3.0e5, 1.5e100, -7.0e-300, 5e-324)
    rows = [
        (t, rng.choice(cells), rng.choice(cells) * rng.random(), rng.uniform(-1e3, 1e3),
         rng.choice(cells))
        for t in range(n_rows)
    ]
    for i in nan_rows:
        rows[i] = (rows[i][0], rows[i][1], math.nan, rows[i][3], math.nan)
    return rows


def format_outcome(render, rows):
    try:
        return render(rows)
    except SerializationError as exc:
        return str(exc)


def in_windows(rows):
    """``format_columns`` of each window of ``BLOCK`` rows, joined, as a command writes them."""
    return b"".join(format_columns(by_column(rows[start:start + BLOCK]), NAN_COLUMNS)
                    for start in range(0, len(rows), BLOCK))


@pytest.mark.parametrize("n_rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_format_rows_blocks_match_per_cell_formatting(n_rows):
    nan_rows = sorted({0, n_rows // 2, n_rows - 1, min(BLOCK, n_rows - 1)})
    rows = block_table(n_rows, seed=n_rows, nan_rows=nan_rows)
    assert format_columns(by_column(rows), NAN_COLUMNS) == per_cell(rows).encode("ascii")
    assert in_windows(rows) == per_cell(rows).encode("ascii")


@pytest.mark.parametrize("n_rows", [2 * BLOCK + 2, 3 * BLOCK + 7])
@pytest.mark.parametrize("first_bad", [0, BLOCK - 1, BLOCK])
def test_format_rows_blocks_raise_the_first_bad_row(n_rows, first_bad):
    # NaN in the NaN columns everywhere is accepted; the first row with a
    # non-finite cell elsewhere is the one reported, whichever window holds it
    rows = block_table(n_rows, seed=first_bad, nan_rows=range(0, n_rows, 97))
    for i, bad in ((first_bad, math.inf), (first_bad + BLOCK, math.nan), (n_rows - 1, -math.inf)):
        rows[i] = rows[i][:3] + (bad,) + rows[i][4:]
    message = format_outcome(per_cell, rows)
    assert message == f"cannot serialize non-finite value {math.inf!r}"
    assert format_outcome(lambda rows: format_columns(by_column(rows), NAN_COLUMNS), rows) == message
    assert format_outcome(in_windows, rows) == message


def test_an_int_cell_is_written_with_d_in_any_column():
    # t last, and a NaN in a NaN column sends the second row cell by cell
    columns = [[0.5, 1e-5, 2.0], [-0.0, math.nan, 3.0], [7, 12, 4096]]
    assert format_columns(columns, nan_columns=(1,)) == (
        b"5.000000000e-1,0.000000000e0,7\n1.000000000e-5,nan,12\n2.000000000e0,3.000000000e0,4096\n"
    )


@pytest.mark.parametrize(
    "cells",
    [
        # every exponent below 10, so every one has a padding zero
        (0.5, -0.0, 3.0e5, -2.5e-5, 9.9e9, 1e-10),
        # exponents of 10 and more, both signs, and the smallest subnormal
        (1e10, -1e-10, 1.5e100, 5e-324, -0.0, 12.0),
    ],
    ids=["small-exponents", "large-exponents"],
)
def test_format_rows_normalizes_either_branch_as_format_number(cells):
    rows = [(t, *cells[t:], *cells[:t]) for t in range(len(cells))]
    text = format_columns(by_column(rows))
    want = "".join(",".join([str(row[0]), *map(format_number, row[1:])]) + "\n" for row in rows)
    assert text == want.encode("ascii")
    # the "#" that marks a padding zero is deleted with every "+"
    assert b"+" not in text and b"#" not in text
