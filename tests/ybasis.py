"""The tests' own ascent from the basis {1, x} over GF(2)[y] to x, y = x^2 + x.

It shares no code with the ladder (fibgrid.fibpoly) or the recurrence
(fibgrid.nullity) that build y-parts, nor with the fold that fib_hmp carries
them up to x by: each byte of p is ascended by Horner's rule in y, and the
bytes are joined by Horner's rule in y^8 = x^16 + x^8 (Frobenius).
"""

from __future__ import annotations

from fibgrid.polygf2 import _mul_bits


def _ascend_bitwise(p: int) -> int:
    z = 0
    for i in range(p.bit_length() - 1, -1, -1):
        z = _mul_bits(z, 0b110) ^ (p >> i & 1)
    return z


_ASCEND_BYTE = [_ascend_bitwise(byte) for byte in range(256)]


def ascend(p: int) -> int:
    """p(x^2 + x) for p a polynomial in y."""
    z = 0
    for byte in reversed(p.to_bytes((p.bit_length() + 7) // 8, "little")):
        z = (z << 16) ^ (z << 8) ^ _ASCEND_BYTE[byte]
    return z


def join(a: int, b: int) -> int:
    """A(y) + x B(y)."""
    return ascend(a) ^ (ascend(b) << 1)
