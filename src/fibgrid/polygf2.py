"""Exact arithmetic for polynomials over GF(2), bit-packed into integers.

Bit i of the backing integer holds the coefficient of x^i, so Python's
arbitrary-precision ints double as dense, word-packed coefficient vectors:
addition is XOR, multiplication by x is a shift, and canonical form (equal
bit patterns iff equal polynomials, degree from bit_length) comes for free.
Every nonzero polynomial is monic, which makes GCDs unique outright.
"""

from __future__ import annotations

__all__ = [
    "MAX_PARSE_DEGREE",
    "PolyGF2",
    "gcd",
    "subst_x_plus_1",
]


# -- integer kernels ---------------------------------------------------------
# These operate on raw coefficient masks and carry essentially the whole cost
# of the package; everything public wraps them.


def _mul_bits(a: int, b: int) -> int:
    """Carry-less product: XOR shifted copies, iterating over the sparser operand."""
    if a.bit_count() < b.bit_count():
        a, b = b, a
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


def _divmod_bits(a: int, b: int) -> tuple[int, int]:
    """Long division, clearing the leading remainder bit each step."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    nb = b.bit_length()
    na = a.bit_length()
    q = 0  # an int, copied per quotient bit; each step's b << shift copies more
    while na >= nb:
        shift = na - nb
        q |= 1 << shift
        a ^= b << shift
        na = a.bit_length()
    return q, a


def _gcd_bits(a: int, b: int) -> int:
    """Euclid in one remainder loop, a mod b; then a and b swap, building no tuple.

    The loop shifts only while the dividend's degree is above the divisor's
    and XORs the last, x^0 quotient term in place.  On CPython a shift of a
    1,000-digit int costs about 4x an XOR, and ``b << 0`` is a full copy,
    not a no-op; about a quarter of all Euclid steps have equal degrees.
    """
    na, nb = a.bit_length(), b.bit_length()
    while nb:
        while na > nb:
            a ^= b << (na - nb)
            na = a.bit_length()
        if na == nb:
            a ^= b
            na = a.bit_length()
        a, b = b, a
        na, nb = nb, na
    return a


# byte -> its low or high nibble with bit i moved to bit 2i (binary digits read in base 4)
_NIBBLE_SPREAD = [int(format(v, "04b"), 4) for v in range(16)]
_SPREAD_LOW = bytes(_NIBBLE_SPREAD[v & 15] for v in range(256))
_SPREAD_HIGH = bytes(_NIBBLE_SPREAD[v >> 4] for v in range(256))


def _square_bits(z: int) -> int:
    """Square a polynomial: interleave zero bits (Frobenius in characteristic 2).

    Input byte i spreads to output bytes 2i and 2i+1, so two translate calls
    fill the even and odd byte slices.
    """
    data = z.to_bytes((z.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(data))
    out[0::2] = data.translate(_SPREAD_LOW)
    out[1::2] = data.translate(_SPREAD_HIGH)
    return int.from_bytes(out, "little")


def _subst_bits(z: int) -> int:
    """Map p(x) to p(x+1) by XOR-folding bit blocks at power-of-two strides.

    Output bit j is the parity of C(i, j) over the set input bits i, an XOR
    over bitwise supersets of j; one fold per stride computes exactly that,
    and the whole transform is an involution.
    """
    nbits = z.bit_length()
    stride = 1
    while stride < nbits:
        # ones on the low half of each 2*stride block, repeated to cover z
        mask = (1 << stride) - 1
        width = 2 * stride
        while width < nbits + stride:
            mask |= mask << width
            width <<= 1
        z ^= (z >> stride) & mask
        stride <<= 1
    return z


# -- public value type -------------------------------------------------------

# The largest exponent PolyGF2.parse accepts.  It is far above the largest
# degree the CLI prints (fib N, N <= 1,000,000) and keeps a parsed
# polynomial within 2 MiB.
MAX_PARSE_DEGREE = 1 << 24


class _Frozen:
    """Base of the value types: slots named by __match_args__, written once in __init__.

    Assigning or deleting any attribute raises AttributeError.  Pickle and
    copy rebuild through the constructor, so its validation runs.  Values
    hash and compare by their field tuple and never equal another class.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])


class PolyGF2(_Frozen):
    """An immutable polynomial over the two-element field.

    ``bits`` packs the coefficients, bit i being the coefficient of x^i.
    The zero polynomial has degree -1.  Values hash and compare by their
    packed bits, so structural equality is semantic equality.
    """

    __slots__ = ("bits",)
    __match_args__ = ("bits",)

    def __init__(self, bits: int = 0) -> None:
        if bits < 0:
            raise ValueError("coefficient bits must be nonnegative")
        object.__setattr__(self, "bits", bits)

    # construction

    @classmethod
    def parse(cls, text: str) -> "PolyGF2":
        """Inverse of to_text: terms 1, x, x^k joined by +, or the single term 0.

        Raises ValueError on any other text, including an exponent above
        MAX_PARSE_DEGREE.
        """
        s = text.strip()
        if s == "0":
            return cls(0)
        exponents: set[int] = set()
        for raw in s.split("+"):
            term = raw.strip()
            if term == "1":
                k = 0
            elif term == "x":
                k = 1
            elif term.startswith("x^") and term[2:].isascii() and term[2:].isdigit():
                digits = term[2:].lstrip("0") or "0"
                if len(digits) > len(str(MAX_PARSE_DEGREE)) or int(digits) > MAX_PARSE_DEGREE:
                    raise ValueError(f"exponent of {term!r} exceeds {MAX_PARSE_DEGREE}")
                k = int(digits)
            else:
                raise ValueError(f"bad term {term!r}")
            if k in exponents:
                raise ValueError(f"repeated term {term!r}")
            exponents.add(k)
        # set the bits in one buffer: OR-ing each term into an int would
        # copy the whole int per term
        buf = bytearray(max(exponents) // 8 + 1)
        for k in exponents:
            buf[k >> 3] |= 1 << (k & 7)
        return cls(int.from_bytes(buf, "little"))

    # inspection

    @property
    def degree(self) -> int:
        """Highest power with a set coefficient, or -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    # rendering

    def to_text(self) -> str:
        """Canonical text form: terms in descending degree joined by " + "."""
        if not self.bits:
            return "0"
        digits = bin(self.bits)[2:]  # character i is the coefficient of x^(degree - i)
        terms = []
        i = digits.find("1")
        while i >= 0:
            k = len(digits) - 1 - i
            terms.append("x^%d" % k if k >= 2 else ("x" if k == 1 else "1"))
            i = digits.find("1", i + 1)
        return " + ".join(terms)

    def to_hex(self) -> str:
        """Little-endian coefficient bytes as lowercase hex; zero is the empty string."""
        if not self.bits:
            return ""
        return self.bits.to_bytes((self.bits.bit_length() + 7) // 8, "little").hex()

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"PolyGF2({self.to_text()!r})"

    # arithmetic

    def __add__(self, other: "PolyGF2") -> "PolyGF2":
        if not isinstance(other, PolyGF2):
            return NotImplemented
        return PolyGF2(self.bits ^ other.bits)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "PolyGF2") -> "PolyGF2":
        if not isinstance(other, PolyGF2):
            return NotImplemented
        return PolyGF2(_mul_bits(self.bits, other.bits))

    def __divmod__(self, other: "PolyGF2") -> tuple["PolyGF2", "PolyGF2"]:
        if not isinstance(other, PolyGF2):
            return NotImplemented
        q, r = _divmod_bits(self.bits, other.bits)
        return PolyGF2(q), PolyGF2(r)

    def __mod__(self, other: "PolyGF2") -> "PolyGF2":
        if not isinstance(other, PolyGF2):
            return NotImplemented
        return PolyGF2(_divmod_bits(self.bits, other.bits)[1])

    def __bool__(self) -> bool:
        return bool(self.bits)


# -- module-level operations -------------------------------------------------


def gcd(p: PolyGF2, q: PolyGF2) -> PolyGF2:
    """Euclidean GCD, unique because nonzero GF(2) polynomials are monic.

    gcd(p, 0) is p for nonzero p; gcd(0, 0) is undefined and raises.
    """
    if not p.bits and not q.bits:
        raise ValueError("gcd(0, 0) is undefined")
    return PolyGF2(_gcd_bits(p.bits, q.bits))


def subst_x_plus_1(p: PolyGF2) -> PolyGF2:
    """Compose with x + 1: output coefficient j is sum over i of C(i, j) c_i mod 2.

    A ring homomorphism and an involution, since (x+1)+1 is x again.
    """
    return PolyGF2(_subst_bits(p.bits))
