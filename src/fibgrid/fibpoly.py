"""The Fibonacci polynomial family over GF(2), one builder per request shape.

f_0 = 0, f_1 = 1, f_n = x*f_{n-1} + f_{n-2}.  Over GF(2) the family is
strictly divisibility-ordered (f_m | f_n whenever m | n).

One index comes from the doubling ladder (fib_hmp), a run f_0 .. f_n from
the recurrence (fib_sequence).  The nullity routes run the same two builds
on the y-parts of f_n instead (nullity), so fib_hmp serves `fib` and the
family's own identity checks.  fib_binomial reads each coefficient off a
binomial parity, using neither identity: it is the oracle they are checked by.
render draws f_1 .. f_n from one fib_sequence run as a square raster, a
right-angled Sierpinski gasket: row k holds f_k, x^0 on the left, deg f_k < n.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .polygf2 import PolyGF2, _square_bits

__all__ = [
    "fib_binomial",
    "fib_hmp",
    "fib_sequence",
    "render",
    "to_pbm",
    "to_ascii",
]


def fib_sequence(n_max: int) -> Iterator[PolyGF2]:
    """Yield f_0 .. f_{n_max} in order, amortizing the recurrence across a sweep."""
    if n_max < 0:
        raise ValueError("index must be nonnegative")
    prev, cur = 0, 1
    yield PolyGF2(0)
    for _ in range(n_max):
        yield PolyGF2(cur)
        prev, cur = cur, (cur << 1) ^ prev


def fib_binomial(n: int) -> PolyGF2:
    """f_n from its closed coefficient form: bit i is C(n+i, 2i+1) mod 2.

    A binomial coefficient is odd exactly when the lower index's base-2
    digits are a subset of the upper index's, so each bit is one AND and
    one compare.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    bits = 0
    for i in range(n):
        lo = 2 * i + 1
        if (n + i) & lo == lo:
            bits |= 1 << i
    return PolyGF2(bits)


def fib_hmp(n: int) -> PolyGF2:
    """f_n via the doubling ladder, n >= 0.

    The ladder's even step is the hmp identity f_{2m} = x*f_m^2; its odd
    step is f_{2m+1} = f_m^2 + f_{m+1}^2.  Over GF(2) squaring is a
    linear-time bit interleave, so each bit of n costs two squarings and
    one shift.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    a, b = 0, 1  # f_0, f_1
    for bit in bin(n)[2:]:
        a2, b2 = _square_bits(a), _square_bits(b)
        a, b = (a2 ^ b2, b2 << 1) if bit == "1" else (a2 << 1, a2 ^ b2)
    return PolyGF2(a)


def render(n_rows: int) -> tuple[int, ...]:
    """Rows of the square raster of f_1 .. f_{n_rows}, one recurrence step apart.

    rows[k] packs f_{k+1}, bit i = column i; the side is len(rows), as
    deg f_{n_rows} = n_rows - 1.
    """
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    rows = itertools.islice(fib_sequence(n_rows), 1, None)  # f_0 is not drawn
    return tuple(f.bits for f in rows)


def _cells(rows: tuple[int, ...]) -> Iterator[str]:
    """Each row as len(rows) 0/1 characters, character i being column i, from one binary string."""
    width = len(rows)
    return (format(bits, f"0{width}b")[::-1][:width] for bits in rows)


def to_pbm(rows: tuple[int, ...]) -> str:
    """Plain PBM (P1): header, then space-separated 0/1 rows, 1 for a set coefficient."""
    header = f"P1\n{len(rows)} {len(rows)}"
    return "\n".join([header, *map(" ".join, _cells(rows)), ""])


_ASCII_CELLS = str.maketrans("01", ".#")


def to_ascii(rows: tuple[int, ...]) -> str:
    """Terminal rendering: '#' for a set coefficient, '.' otherwise."""
    return "\n".join(row.translate(_ASCII_CELLS) for row in _cells(rows)) + "\n"
