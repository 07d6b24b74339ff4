"""Fixed-width scientific number formatting for all emitted artifacts.

Nine digits after the decimal point beat shortest-round-trip printing for
golden files: shortest-round-trip output differs across language runtimes,
fixed-digit output does not.

``format_number`` writes one value.  ``format_columns`` writes one window
of CSV rows, given by column, with the same definition, as ``bytes`` ready
for a file opened in binary mode: each row goes through a single bytes
``%``-format of one row template, in place of one Python-level call per
cell.  A column of one repeated finite value is in the template as its
text, so it is converted once per window, not once per row.  One
normalizer, ``_normalize``, then rewrites the exponents of a single cell
or of a whole window: one pass drops the sign of a negative zero, two
``bytes.replace`` passes that keep the text's length mark each exponent's
padding zero with ``#``, and one ``bytes.translate`` deletes every ``+``
and ``#``.  No pass is skipped or added for large exponents.
"""

from __future__ import annotations

import math
from collections.abc import Container, Sequence
from itertools import repeat
from operator import mod

from .errors import SerializationError

_NUMBER = b"%.9e"


def _normalize(text: bytes) -> bytes:
    """Rewrite ``%.9e`` output into the artifact form: no signed zero, no
    ``+`` and no zero padding in exponents (``e+05`` -> ``e5``, ``e-05`` ->
    ``e-5``, ``e+00`` -> ``e0``, ``e+100`` -> ``e100``)."""
    text = text.replace(b"-0.000000000e+00", b"0.000000000e+00")
    # same-length passes mark each padding zero with "#", which formatted text
    # never holds; "+" occurs only in exponents, so one pass deletes both
    text = text.replace(b"e+0", b"e+#").replace(b"e-0", b"e-#")
    return text.translate(None, b"+#")


def format_number(x: float) -> str:
    """Scientific notation, 9 fractional digits, lowercase ``e``, no exponent
    zero-padding, minus sign only when negative: ``3.678794412e-1``.

    Rounding at the ninth digit is round-half-even (IEEE binary-to-decimal).
    Non-finite input raises SerializationError.
    """
    value = float(x)
    if not math.isfinite(value):
        raise SerializationError(f"cannot serialize non-finite value {x!r}")
    return _normalize(_NUMBER % value).decode()


def format_number_or_nan(x: float) -> str:
    """``format_number``, except that NaN is written as the token ``nan``
    (an undefined point that stays on the grid)."""
    return "nan" if math.isnan(x) else format_number(x)


def format_columns(columns: Sequence[Sequence[float]], nan_columns: Container[int] = ()) -> bytes:
    """CSV bytes of the rows that ``columns`` hold, one ``\\n``-terminated
    line per row.

    ``columns`` is a non-empty sequence of equally long, non-empty columns,
    such as one window of a command's output, and every value of a column
    has the type of its first.  An ``int`` column is written with ``%d``;
    every other value is written as ``format_number`` would write it, or as
    ``format_number_or_nan`` for a column listed in ``nan_columns``.  Raises
    SerializationError for an infinite value, or a NaN outside
    ``nan_columns``: the first such row's.  The bytes end at a ``\\n``,
    which no ``_normalize`` pattern holds, so the bytes of consecutive
    windows join to the bytes of all their rows.

    A column whose values are all equal and finite is written into the row
    template as its own text, converted once; equal floats differ at most
    in the sign of zero, which ``_normalize`` erases.
    """
    rows = len(columns[0])
    cells: list[bytes] = []  # the row template's cells
    varying: list[Sequence] = []  # the values for its % specifiers, by column
    for column in columns:
        first = column[0]
        integer = isinstance(first, int)
        spec = b"%d" if integer else _NUMBER
        if first == column[-1] and (integer or math.isfinite(first)) and column.count(first) == rows:
            cells.append(spec % first)
        else:
            cells.append(spec)
            varying.append(column)
    template = b",".join(cells) + b"\n"
    # zip hands each row to the template without keeping it
    lines = list(map(mod, repeat(template), zip(*varying))) if varying else [template] * rows
    text = b"".join(lines)
    # finite cells use only digits, ".", "e", "+" and "-"; "nan" and "inf" hold
    # an "n", and "%.9e" writes every NaN, a negative one too, as "nan"
    if b"n" in text:
        for line, row in zip(lines, zip(*columns)):
            if b"n" in line:
                for i, value in enumerate(row):
                    if not (isinstance(value, int) or (i in nan_columns and math.isnan(value))):
                        format_number(value)
    return _normalize(text)
