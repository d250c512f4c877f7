"""The Fibonacci polynomial family over GF(2), one builder per request shape.

f_0 = 0, f_1 = 1, f_n = x*f_{n-1} + f_{n-2}.  Over GF(2) the family is
strictly divisibility-ordered (f_m | f_n whenever m | n).

The package's one doubling ladder (_y_pair) runs on the y-parts of f_n,
f_n = A_n(y) + x B_n(y) with y = x^2 + x.  The nullity routes read them as
they are; fib_hmp carries them up to x for `fib` and the family's own
identity checks, so those check the ladder that d runs.  A run f_0 .. f_n
comes from the recurrence (fib_sequence).  fib_binomial reads each
coefficient off a binomial parity, using neither identity: it is the oracle
they are checked by.
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


def _y_pair(m: int) -> tuple[int, int, int, int]:
    """(A_m, B_m, A_{m+1}, B_{m+1}) with f_j = A_j(y) + x B_j(y), y = x^2 + x, m >= 0.

    The doubling ladder f_{2j} = x f_j^2, f_{2j+1} = f_j^2 + f_{j+1}^2, run
    on (A, B) pairs.  With x^2 = x + y, squaring is
    (A + x B)^2 = (A^2 + y B^2) + x B^2, with A^2 and B^2 squared in y, and
    multiplying by x is x (A + x B) = y B + x (A + B).
    """
    a0, b0, a1, b1 = 0, 0, 1, 0  # f_0, f_1
    for bit in bin(m)[2:]:
        b0, b1 = _square_bits(b0), _square_bits(b1)
        a0, a1 = _square_bits(a0) ^ (b0 << 1), _square_bits(a1) ^ (b1 << 1)
        # (a0, b0) is now f_j^2 and (a1, b1) is f_{j+1}^2
        if bit == "1":
            a0, b0, a1, b1 = a0 ^ a1, b0 ^ b1, b1 << 1, a1 ^ b1
        else:
            a0, b0, a1, b1 = b0 << 1, a0 ^ b0, a0 ^ a1, b0 ^ b1
    return a0, b0, a1, b1


def _fold_to_x(z: int) -> int:
    """A(x^2 + x) + x B(x^2 + x), given z = A(x^2) + x B(x^2).

    For s = 1, 2, 4, ... while 2s < z.bit_length(), one fold adds the upper
    half of every 4s-bit block again, s bits lower.  This is exact.  Write
    s = 2^j.  Before the fold, each term y^i of A stands in z as
    (x^2 + x)^r x^(2(i - r)) with r = i mod 2^j: the low j bits of i are
    carried to x^2 + x, the others still read y as x^2.  Its bits lie from
    2(i - r) + r to 2(i - r) + 2r, and 2(i - r) is a multiple of 2s while
    2r < 2s, so the term sits in one half of a 4s-bit block, the upper half
    exactly when bit j of i is set.  B's terms, one bit higher, stay inside
    the same halves, as 2r + 1 < 2s.  The fold is linear and multiplies the
    terms in upper halves by 1 + x^-s, and
    x^(2s) (1 + x^-s) = x^(2s) + x^s = (x^2 + x)^(2^j), so bit j of i is
    carried as well.  Every s <= max(deg A, deg B) gets a fold, so every
    bit of every i is carried.
    """
    nbits = z.bit_length()
    s = 1
    while 2 * s < nbits:
        # ones on the upper half of one 4s-bit block in s/2 bytes, or of two in a byte at s = 1
        unit = (0xCC if s == 1 else ((1 << 2 * s) - 1) << 2 * s).to_bytes(max(s // 2, 1), "little")
        mask = int.from_bytes(unit * (nbits // (8 * len(unit)) + 1), "little")
        z ^= (z & mask) >> s
        s <<= 1
    return z


def fib_hmp(n: int) -> PolyGF2:
    """f_n = A_n(x^2 + x) + x B_n(x^2 + x), n >= 0, from the ladder's y-parts (_y_pair).

    Squaring spreads them to A_n(x^2) + x B_n(x^2), and _fold_to_x carries
    y = x^2 to x^2 + x, each in time linear in the degree.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    a, b = _y_pair(n)[:2]
    return PolyGF2(_fold_to_x(_square_bits(a) ^ (_square_bits(b) << 1)))


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
