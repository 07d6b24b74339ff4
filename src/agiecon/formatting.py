"""Fixed-width scientific number formatting for all emitted artifacts.

Nine digits after the decimal point beat shortest-round-trip printing for
golden files: shortest-round-trip output differs across language runtimes,
fixed-digit output does not.

``format_number`` writes one value.  ``format_rows`` writes whole CSV rows
with the same definition, as an iterator of text blocks that a caller can
write out one by one: each row goes through a single ``%``-format
(``%.9e`` per number cell), and the exponents of a block are then
normalized by a few ``str.replace`` passes over its text, in place of one
Python-level call per cell.  A row that formats to ``nan`` or ``inf`` is
rewritten cell by cell with ``format_number`` and ``format_number_or_nan``,
which accept or reject it exactly as they would alone.
"""

from __future__ import annotations

import math
from collections.abc import Container, Iterable, Iterator, Sequence
from itertools import islice, repeat
from operator import mod

from .errors import SerializationError

_NUMBER = "%.9e"
_BLOCK_ROWS = 2048  # rows per block of format_rows: a few hundred kB of text


def _normalize(text: str) -> str:
    """Rewrite ``%.9e`` output into the artifact form: no signed zero, no
    ``+`` and no zero padding in exponents (``e+05`` -> ``e5``, ``e-05`` ->
    ``e-5``, ``e+00`` -> ``e0``)."""
    return (
        text.replace("-0.000000000e+00", "0.000000000e+00")
        .replace("e+0", "e")
        .replace("e+", "e")
        .replace("e-0", "e-")
    )


def format_number(x: float) -> str:
    """Scientific notation, 9 fractional digits, lowercase ``e``, no exponent
    zero-padding, minus sign only when negative: ``3.678794412e-1``.

    Rounding at the ninth digit is round-half-even (IEEE binary-to-decimal).
    Non-finite input raises SerializationError.
    """
    value = float(x)
    if not math.isfinite(value):
        raise SerializationError(f"cannot serialize non-finite value {x!r}")
    return _normalize(_NUMBER % value)


def format_number_or_nan(x: float) -> str:
    """``format_number``, except that NaN is written as the token ``nan``
    (an undefined point that stays on the grid)."""
    return "nan" if math.isnan(x) else format_number(x)


def format_rows(
    rows: Iterable[Sequence[float]],
    integer_columns: Container[int] = (),
    nan_columns: Container[int] = (),
) -> Iterator[str]:
    """CSV text of ``rows`` in blocks, one ``\\n``-terminated line per row.

    ``rows`` is any iterable, such as a list or a lazy ``zip`` of columns;
    it is read one block of rows at a time, so a lazy one is never held
    whole.  Every row has the length of the first.  A column listed in
    ``integer_columns`` is written with ``%d``; every other cell is written
    as ``format_number`` would write it, or as ``format_number_or_nan``
    for a column listed in ``nan_columns``.  Raises SerializationError for
    an infinite cell, or a NaN cell outside ``nan_columns``: the first such
    row's, once the blocks before it have been yielded.

    Each block holds ``_BLOCK_ROWS`` rows (the last may hold fewer) and
    ends at a ``\\n``.  No ``_normalize`` pattern holds one, so the blocks
    join to the text a single pass over all rows would give.  No rows give
    no block.
    """
    rows = iter(rows)
    block = list(islice(rows, _BLOCK_ROWS))
    if not block:
        return
    template = ",".join(
        "%d" if i in integer_columns else _NUMBER for i in range(len(block[0]))
    ) + "\n"
    while block:
        lines = list(map(mod, repeat(template), block))
        text = "".join(lines)
        # finite cells use only digits, ".", "e", "+" and "-"; "nan" and "inf" hold an "n"
        if "n" in text:
            for i, line in enumerate(lines):
                if "n" in line:
                    lines[i] = _checked_line(block[i], integer_columns, nan_columns)
            text = "".join(lines)
        yield _normalize(text)
        block = list(islice(rows, _BLOCK_ROWS))


def _checked_line(row, integer_columns, nan_columns) -> str:
    cells = [
        "%d" % value if i in integer_columns
        else format_number_or_nan(value) if i in nan_columns
        else format_number(value)
        for i, value in enumerate(row)
    ]
    return ",".join(cells) + "\n"
