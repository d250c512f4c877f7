"""Polynomial arithmetic: pinned examples plus algebraic laws."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibgrid import (
    PolyGF2,
    fib_hmp,
    gcd,
    ore_product_gcd,
    subst_x_plus_1,
)
from fibgrid.polygf2 import (
    _SPREAD_HIGH,
    _SPREAD_LOW,
    MAX_PARSE_DEGREE,
    _gcd_bits,
    _mul_bits,
    _square_bits,
    _subst_bits,
)
from ybasis import ascend, join

P = PolyGF2.parse
ZERO, ONE, X = PolyGF2(0), PolyGF2(1), PolyGF2(2)

polys = st.binary(max_size=256).map(lambda b: PolyGF2(int.from_bytes(b, "little")))
small_polys = st.binary(max_size=48).map(lambda b: PolyGF2(int.from_bytes(b, "little")))
nonzero_polys = polys.filter(bool)
nonzero_small = small_polys.filter(bool)


# -- pinned examples ----------------------------------------------------------


def test_construction_and_degree():
    assert PolyGF2().bits == 0
    assert ZERO.degree == -1
    assert ONE.degree == 0
    assert X.degree == 1
    assert P("x^5 + x").degree == 5
    assert PolyGF2(ONE.bits << 7) == P("x^7")
    assert PolyGF2(0b101) == P("x^2 + 1")
    assert P("x^2 + 1").bits >> 0 & 1 == 1
    assert P("x^2 + 1").bits >> 1 & 1 == 0
    assert P("x^2 + 1").bits >> 100 & 1 == 0


def test_equality_is_structural():
    assert P("x^2 + x") == PolyGF2(0b110)
    assert hash(P("x^2 + x")) == hash(PolyGF2(6))
    assert P("x") != P("x + 1")
    assert not ZERO
    assert ONE


def test_add_examples():
    assert P("x^2 + 1") + P("x^2 + x") == P("x + 1")
    assert P("x^5 + x") + P("x^5 + x") == ZERO
    assert P("x^3") + ZERO == P("x^3")
    # x*f_3 + f_2 = f_4
    assert X * P("x^2 + 1") + X == P("x^3")
    # subtraction is the same operation
    assert P("x^2 + 1") - P("x^2 + x") == P("x + 1")


def test_mul_examples():
    assert X * P("x^2 + 1") == P("x^3 + x")
    assert P("x + 1") * P("x + 1") == P("x^2 + 1")
    assert P("x^2 + 1") * P("x^2 + 1") == P("x^4 + 1")
    assert X * P("x^2 + 1") * P("x^2 + 1") == P("x^5 + x")
    assert ZERO * P("x^9 + x") == ZERO


def test_divrem_examples():
    assert divmod(P("x^3 + x"), P("x + 1")) == (P("x^2 + x"), ZERO)
    assert divmod(X, X) == (ONE, ZERO)
    assert divmod(P("x^4 + x^2 + 1"), P("x^3")) == (X, P("x^2 + 1"))
    assert P("x^4 + x^2 + 1") % P("x^3") == P("x^2 + 1")
    assert divmod(ZERO, P("x + 1")) == (ZERO, ZERO)
    assert divmod(X, P("x^5")) == (ZERO, X)


def test_divrem_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(P("x^3"), ZERO)
    with pytest.raises(ZeroDivisionError):
        P("x^3") % ZERO


def test_gcd_examples():
    assert gcd(X, P("x + 1")) == ONE
    assert gcd(P("x^4 + x^2 + 1"), P("x^4 + x^2 + 1")) == P("x^4 + x^2 + 1")
    assert gcd(P("x^3"), ZERO) == P("x^3")
    assert gcd(ZERO, P("x^3")) == P("x^3")
    with pytest.raises(ValueError):
        gcd(ZERO, ZERO)


def test_subst_examples():
    assert subst_x_plus_1(X) == P("x + 1")
    assert subst_x_plus_1(P("x^2 + 1")) == P("x^2")
    assert subst_x_plus_1(ZERO) == ZERO
    assert _subst_bits(0) == 0
    assert subst_x_plus_1(ONE) == ONE


def test_ore_example():
    # the factors of f_6(x) and f_6(x+1); the combined gcd is x^2 + x
    got = ore_product_gcd(X, P("x^4 + 1"), P("x + 1"), P("x^4"))
    assert got == P("x^2 + x")
    assert got == gcd(X * P("x^4 + 1"), P("x + 1") * P("x^4"))
    with pytest.raises(ValueError):
        ore_product_gcd(ZERO, ONE, ONE, ONE)


def test_validation():
    with pytest.raises(ValueError):
        PolyGF2(-1)
    with pytest.raises(ValueError):
        P("x^2 + y")
    with pytest.raises(ValueError):
        P("x + x")
    with pytest.raises(ValueError):
        P("")
    with pytest.raises(ValueError, match="bad term"):
        P("x^\u0663")  # digits are ASCII only
    with pytest.raises(ValueError, match="bad term"):
        P("x^\u00b2")


def test_parse_bounds_the_exponent():
    # neither an OverflowError nor a huge allocation: the exponent is refused first
    for text in ("x^99999999999999999999", "x^4300000000", f"x^{MAX_PARSE_DEGREE + 1}"):
        with pytest.raises(ValueError, match="exceeds"):
            P(text)
    assert P(f"x^{MAX_PARSE_DEGREE}").degree == MAX_PARSE_DEGREE
    assert P("x^" + "0" * 5000 + "7") == P("x^7")
    # many terms near the bound cost one buffer, not one big-int copy each
    top = [MAX_PARSE_DEGREE - k for k in range(0, 6000, 3)]
    p = P(" + ".join(f"x^{k}" for k in top))
    assert p.degree == MAX_PARSE_DEGREE and p.bits.bit_count() == len(top)


# -- formats ------------------------------------------------------------------


def test_text_format():
    assert P("x^5 + x").to_text() == "x^5 + x"
    assert str(P("x^5 + x")) == "x^5 + x"
    assert ZERO.to_text() == "0"
    assert ONE.to_text() == "1"
    assert (X + ONE).to_text() == "x + 1"
    assert PolyGF2(0b10101).to_text() == "x^4 + x^2 + 1"
    assert repr(X) == "PolyGF2('x')"


def test_hex_format():
    assert P("x^5 + x").to_hex() == "22"
    assert ZERO.to_hex() == ""
    # little-endian byte order: low coefficients come first
    assert P("x^8 + 1").to_hex() == "0101"


@given(polys)
def test_text_round_trip(p):
    assert PolyGF2.parse(p.to_text()) == p


@given(polys)
def test_hex_round_trip(p):
    assert PolyGF2(int.from_bytes(bytes.fromhex(p.to_hex()), "little")) == p


# -- algebraic laws -----------------------------------------------------------


@given(polys, polys)
def test_add_laws(p, q):
    assert p + q == q + p
    assert p + q == PolyGF2(p.bits ^ q.bits)
    assert p + p == ZERO
    assert p + ZERO == p


@given(polys, polys, polys)
def test_add_associative(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys, polys)
def test_mul_commutative_with_degree_sum(p, q):
    assert p * q == q * p
    if p and q:
        assert (p * q).degree == p.degree + q.degree
    assert p * ONE == p
    assert p * ZERO == ZERO


@given(small_polys, small_polys, small_polys)
def test_mul_associative_and_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, nonzero_polys)
def test_divrem_reconstructs(p, q):
    quot, rem = divmod(p, q)
    assert quot * q + rem == p
    assert rem.degree < q.degree


@given(polys, polys)
def test_gcd_divides_both(p, q):
    if not p and not q:
        return
    g = gcd(p, q)
    assert g == gcd(q, p)
    for v in (p, q):
        if v:
            assert v % g == ZERO


@given(small_polys, small_polys, nonzero_small)
def test_gcd_scales(p, q, r):
    if not p and not q:
        return
    assert gcd(p * r, q * r) == r * gcd(p, q)


def reference_gcd(a: int, b: int) -> int:
    """Textbook Euclid on PolyGF2 divmod, independent of _gcd_bits's in-place loop."""
    p, q = PolyGF2(a), PolyGF2(b)
    while q:
        p, q = q, divmod(p, q)[1]
    return p.bits


def test_gcd_bits_edge_cases():
    f = P("x^5 + x^2 + 1").bits
    g = P("x^3 + x + 1").bits
    fg = _mul_bits(f, g)
    cases = {
        (0, 0): 0,
        (f, 0): f,
        (0, f): f,
        (1, 0): 1,
        (0, 1): 1,
        (f, f): f,
        (fg, g): g,  # one divides the other, in either order
        (g, fg): g,
        (fg, fg << 3): fg,
        (g, f): 1,  # deg a < deg b
        (_mul_bits(g, 0b11), fg): g,
        (0b10, 0b110): 0b10,
        # the remainder loop ends on the divisor's degree, so the x^0 quotient
        # term is XORed in place: before and after a swap (x^4 + x^3 + 1, x^2 + x + 1)
        (0b11001, 0b111): 1,
        (0b111, 0b11001): 1,
        (_mul_bits(0b11001, g), _mul_bits(0b111, g)): g,
        (_mul_bits(0b111, g), _mul_bits(0b11001, g)): g,
        (f, f ^ 0b10): 1,  # equal degrees on entry
        (fg, fg ^ g): g,
        # degrees straddling CPython's 30-bit digits: gcd(x^i + 1, x^j + 1) = x^gcd(i, j) + 1
        (1 << 31 | 1, 1 << 29 | 1): 0b11,
        (1 << 30 | 1, 1 << 60 | 1): 1 << 30 | 1,
        (1 << 61 | 1, 1 << 59 | 1): 0b11,
        (1 << 60 | 1, 1 << 29 | 1): 0b11,
        (_mul_bits(1 << 27 | 0b1011, g), _mul_bits(1 << 27 | 0b1010, g)): g,
        (_mul_bits(1 << 57 | 0b1011, g), _mul_bits(1 << 57 | 0b1010, g)): g,
    }
    for (a, b), want in cases.items():
        assert _gcd_bits(a, b) == want == reference_gcd(a, b), (a, b)


@given(polys, polys, small_polys)
def test_gcd_bits_matches_reference_euclid(p, q, r):
    # a shared factor r makes nontrivial GCDs common
    for a, b in ((p.bits, q.bits), (_mul_bits(p.bits, r.bits), _mul_bits(q.bits, r.bits))):
        assert _gcd_bits(a, b) == reference_gcd(a, b)
        assert _gcd_bits(b, a) == reference_gcd(a, b)


def test_gcd_bits_on_fibonacci_pairs_past_60000_bits():
    # gcd(f_m, f_n) = f_gcd(m, n), with both operands past 60,000 bits,
    # where the hypothesis strategies above do not reach
    for m, n in ((65535, 65025), (70070, 69300)):
        a, b = fib_hmp(m).bits, fib_hmp(n).bits
        assert _gcd_bits(a, b) == fib_hmp(math.gcd(m, n)).bits, (m, n)


def test_subst_bits_past_3000_bits_matches_lucas():
    # (x+1)^i has bit j set exactly when j is a submask of i (Lucas)
    for i in (3001, 5000, 8191, 65535, 100000):
        want = int("".join("1" if i & j == j else "0" for j in range(i, -1, -1)), 2)
        assert _subst_bits(1 << i) == want, i
    z = random.Random(20000).getrandbits(20000) | 1 << 19999
    assert _subst_bits(_subst_bits(z)) == z


@given(polys)
def test_subst_involution(p):
    assert subst_x_plus_1(subst_x_plus_1(p)) == p
    assert subst_x_plus_1(p).degree == p.degree


@given(small_polys, small_polys)
def test_subst_is_ring_homomorphism(p, q):
    assert subst_x_plus_1(p + q) == subst_x_plus_1(p) + subst_x_plus_1(q)
    assert subst_x_plus_1(p * q) == subst_x_plus_1(p) * subst_x_plus_1(q)


# -- the basis {1, x} over GF(2)[y], y = x^2 + x -------------------------------


def test_translate_tables_match_per_bit_loops():
    # each table entry rebuilt one coefficient bit at a time
    spread_low, spread_high = bytearray(256), bytearray(256)
    for byte in range(256):
        v = 0
        for i in range(8):
            if byte >> i & 1:
                v |= 1 << (2 * i)
        spread_low[byte], spread_high[byte] = v & 0xFF, v >> 8
    assert (_SPREAD_LOW, _SPREAD_HIGH) == (spread_low, spread_high)


def test_square_bits_matches_the_product_on_two_bytes():
    # every entry of both tables, in the low and in the high input byte
    assert [v for v in range(1 << 16) if _square_bits(v) != _mul_bits(v, v)] == []


@given(polys, polys)
def test_y_parts_b_vanishes_exactly_on_what_x_plus_1_fixes(a, b):
    z = join(a.bits, b.bits)
    assert (_subst_bits(z) == z) == (b.bits == 0)


def test_y_parts_pinned_non_invariants():
    # x, x^3 and x^2 + x + x^4 move under x -> x+1; so does anything of odd degree
    for z in (0b10, 0b1000, 0b10110, 1 << 601, ascend(0b1011) ^ 1 << 9):
        assert _subst_bits(z) != z
    assert join(0, 1) == 0b10  # x
    assert join(0b10, 0b11) == 0b1000  # x^3 = x (x + y) = y + x (1 + y)
    assert join(0b100, 1) == 0b10110  # x^4 + x^2 + x = y^2 + x
    assert join(0b110, 0) == 0b10010  # x^4 + x = y^2 + y, fixed
    assert _subst_bits(0b10010) == 0b10010


@given(polys)
def test_square_consistency(p):
    assert PolyGF2(_square_bits(p.bits)) == p * p


@given(nonzero_small, nonzero_small, nonzero_small, nonzero_small)
def test_ore_matches_direct_product_gcd(a, b, c, d):
    assert ore_product_gcd(a, b, c, d) == gcd(a * b, c * d)
