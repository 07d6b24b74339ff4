"""Fixed-width scientific number formatting for all emitted artifacts.

Nine digits after the decimal point beat shortest-round-trip printing for
golden files: shortest-round-trip output differs across language runtimes,
fixed-digit output does not.

``format_number`` writes one value.  ``format_rows`` writes one window of
CSV rows with the same definition, as ``bytes`` ready for a file opened in
binary mode: each row goes through a single bytes ``%``-format (``%d`` per
``int`` cell, ``%.9e`` per number cell), in place of one Python-level call
per cell.  One normalizer, ``_normalize``, then rewrites the exponents of a
single cell or of a whole window: one pass drops the sign of a negative
zero, two ``bytes.replace`` passes that keep the text's length mark each
exponent's padding zero with ``#``, and one ``bytes.translate`` deletes
every ``+`` and ``#``.  No pass is skipped or added for large exponents.
A row that formats to ``nan`` or ``inf`` is rewritten cell by cell with
``format_number`` and ``format_number_or_nan``, which accept or reject it
exactly as they would alone.
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


def format_rows(rows: Sequence[Sequence[float]], nan_columns: Container[int] = ()) -> bytes:
    """CSV bytes of ``rows``, one ``\\n``-terminated line per row.

    ``rows`` is a non-empty sequence, such as one window of a command's
    records, and every row has the types of the first.  An ``int`` cell is
    written with ``%d``; every other cell is written as ``format_number``
    would write it, or as ``format_number_or_nan`` for a column listed in
    ``nan_columns``.  Raises SerializationError for an infinite cell, or a
    NaN cell outside ``nan_columns``: the first such row's.  The bytes end
    at a ``\\n``, which no ``_normalize`` pattern holds, so the bytes of
    consecutive windows join to the bytes of all their rows.
    """
    template = b",".join(b"%d" if isinstance(cell, int) else _NUMBER for cell in rows[0]) + b"\n"
    lines = list(map(mod, repeat(template), rows))
    text = b"".join(lines)
    # finite cells use only digits, ".", "e", "+" and "-"; "nan" and "inf" hold an "n"
    if b"n" in text:
        for i, line in enumerate(lines):
            if b"n" in line:
                lines[i] = _checked_line(rows[i], nan_columns)
        text = b"".join(lines)
    return _normalize(text)


def _checked_line(row, nan_columns) -> bytes:
    cells = [
        "%d" % value if isinstance(value, int)
        else format_number_or_nan(value) if i in nan_columns
        else format_number(value)
        for i, value in enumerate(row)
    ]
    return (",".join(cells) + "\n").encode()
