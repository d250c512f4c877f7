"""Coefficient raster of the Fibonacci family, a right-angled Sierpinski gasket.

Row n of the image (top row is n = 1) shows the coefficients of f_n,
column i holding the coefficient of x^i with column 0 on the left.  The
raster is square: n_rows rows of n_rows columns, which fits because
deg f_n = n - 1.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator

from .fibpoly import fib_sequence

__all__ = ["SierpinskiRaster", "render", "to_pbm", "to_ascii"]


class SierpinskiRaster(namedtuple("SierpinskiRaster", "n_rows rows")):
    """Bit rows of f_1 .. f_{n_rows}; rows[k] packs row k+1, bit i = column i."""

    __slots__ = ()

    @property
    def width(self) -> int:
        return self.n_rows


def render(n_rows: int) -> SierpinskiRaster:
    """Raster of the first n_rows polynomials, each row one recurrence step from the last."""
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    rows = itertools.islice(fib_sequence(n_rows), 1, None)  # f_0 is not drawn
    return SierpinskiRaster(n_rows, tuple(f.bits for f in rows))


def _cells(raster: SierpinskiRaster) -> Iterator[str]:
    """Each row as width 0/1 characters, character i being column i, from one binary string."""
    width = raster.width
    return (format(bits, f"0{width}b")[::-1][:width] for bits in raster.rows)


def to_pbm(raster: SierpinskiRaster) -> str:
    """Plain PBM (P1): header, then space-separated 0/1 rows, 1 for a set coefficient."""
    lines = [f"P1\n{raster.width} {raster.n_rows}", *map(" ".join, _cells(raster))]
    return "\n".join(lines) + "\n"


_ASCII_CELLS = str.maketrans("01", ".#")


def to_ascii(raster: SierpinskiRaster) -> str:
    """Terminal rendering: '#' for a set coefficient, '.' otherwise."""
    return "\n".join(row.translate(_ASCII_CELLS) for row in _cells(raster)) + "\n"
