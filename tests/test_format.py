import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agiecon import SerializationError, format_number
from agiecon.cli import _WINDOW as BLOCK
from agiecon.formatting import format_number_or_nan, format_rows

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
    assert format_rows(rows, NAN_COLUMNS) == per_cell(rows).encode("ascii")


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
        format_rows(rows, NAN_COLUMNS)


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
    """``format_rows`` of each window of ``BLOCK`` rows, joined, as a command writes them."""
    return b"".join(format_rows(rows[start:start + BLOCK], NAN_COLUMNS)
                   for start in range(0, len(rows), BLOCK))


@pytest.mark.parametrize("n_rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_format_rows_blocks_match_per_cell_formatting(n_rows):
    nan_rows = sorted({0, n_rows // 2, n_rows - 1, min(BLOCK, n_rows - 1)})
    rows = block_table(n_rows, seed=n_rows, nan_rows=nan_rows)
    assert format_rows(rows, NAN_COLUMNS) == per_cell(rows).encode("ascii")
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
    assert format_outcome(lambda rows: format_rows(rows, NAN_COLUMNS), rows) == message
    assert format_outcome(in_windows, rows) == message


def test_an_int_cell_is_written_with_d_in_any_column():
    # t last, and a NaN in a NaN column sends the second row cell by cell
    rows = [(0.5, -0.0, 7), (1e-5, math.nan, 12), (2.0, 3.0, 4096)]
    assert format_rows(rows, nan_columns=(1,)) == (
        b"5.000000000e-1,0.000000000e0,7\n1.000000000e-5,nan,12\n2.000000000e0,3.000000000e0,4096\n"
    )


@pytest.mark.parametrize(
    "cells",
    [
        # no exponent of 10 or more is left after the "e+0" pass, so the
        # "e+" pass is skipped
        (0.5, -0.0, 3.0e5, -2.5e-5, 9.9e9, 1e-10),
        # exponents of 10 and more, both signs, and the smallest subnormal
        (1e10, -1e-10, 1.5e100, 5e-324, -0.0, 12.0),
    ],
    ids=["small-exponents", "large-exponents"],
)
def test_format_rows_normalizes_either_branch_as_format_number(cells):
    rows = [(t, *cells[t:], *cells[:t]) for t in range(len(cells))]
    # the "e+" pass runs only where "%.9e" wrote an exponent of 10 or more
    raw = b",".join(b"%.9e" % cell for cell in cells)
    assert (b"+" in raw.replace(b"e+0", b"e")) == (1e10 in cells)
    text = format_rows(rows)
    want = "".join(",".join([str(row[0]), *map(format_number, row[1:])]) + "\n" for row in rows)
    assert text == want.encode("ascii")
    assert b"+" not in text
