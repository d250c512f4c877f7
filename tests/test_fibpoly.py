"""Fibonacci polynomial construction routes and the family's divisibility order."""

from __future__ import annotations

import math
import random

import pytest

from fibgrid import (
    ONE,
    X,
    ZERO,
    PolyGF2,
    fib_binomial,
    fib_hmp,
    fib_sequence,
    gcd,
    subst_x_plus_1,
)

P = PolyGF2.parse


def test_first_values():
    want = [ZERO, ONE, X, P("x^2 + 1"), P("x^3"), P("x^4 + x^2 + 1"), P("x^5 + x")]
    for n, expected in enumerate(want):
        assert fib_binomial(n) == expected
        assert fib_hmp(n) == expected
    assert list(fib_sequence(6)) == want
    assert fib_hmp(6).to_text() == "x^5 + x"
    assert fib_hmp(12) == P("x^11 + x^3")


def test_validation():
    with pytest.raises(ValueError):
        fib_binomial(-1)
    with pytest.raises(ValueError):
        fib_hmp(-1)
    with pytest.raises(ValueError):
        list(fib_sequence(-1))


def test_sequence_matches_single_shot():
    seq = list(fib_sequence(50))
    assert len(seq) == 51
    for n, f in enumerate(seq):
        assert f == fib_binomial(n)


def test_three_routes_agree_to_300():
    for n, f in enumerate(fib_sequence(300)):
        assert fib_binomial(n) == f, f"binomial disagrees at n={n}"
        assert fib_hmp(n) == f, f"ladder disagrees at n={n}"


def test_degree_and_monic():
    for n, f in enumerate(fib_sequence(512)):
        if n == 0:
            assert f == ZERO
        else:
            assert f.degree == n - 1


def test_doubling_identity():
    # f_{2n} = x * f_n^2, the k=1 slice of the odd-part identity
    for n in range(1, 65):
        assert fib_hmp(2 * n) == X * fib_hmp(n) ** 2


def test_gcd_of_family_follows_index_gcd():
    rng = random.Random(99)
    for _ in range(50):
        m = rng.randint(1, 2000)
        n = rng.randint(1, 2000)
        assert gcd(fib_hmp(m), fib_hmp(n)) == fib_hmp(math.gcd(m, n))


def test_divisibility_is_periodic():
    # once tau first divides f_v, it divides f_m exactly for multiples of v
    taus = [
        (X, 2),
        (P("x + 1"), 3),
        (P("x^2 + x + 1"), 5),
        (P("x^3 + x^2 + 1"), 7),
        (P("x^3 + x + 1"), 9),
    ]
    for tau, v in taus:
        for m, f in enumerate(fib_sequence(300)):
            if m == 0:
                continue
            assert (f % tau == ZERO) == (m % v == 0), f"tau={tau}, m={m}"


def test_divisibility_periodicity_to_2000():
    # the recurrence projects onto the quotient ring, so residues stay small
    # across a sweep far past what full-size remainders would allow
    for tau, v in [(X, 2), (P("x + 1"), 3), (P("x^2 + x + 1"), 5)]:
        a, b = ZERO, ONE  # f_0 and f_1 reduced mod tau
        for m in range(1, 2001):
            assert (b == ZERO) == (m % v == 0), f"tau={tau}, m={m}"
            a, b = b, (X * b + a) % tau
        assert b == fib_binomial(2001) % tau


def test_degree_one_divisibility_small_range():
    # direct remainders on a small range; the long-range sweep below uses
    # evaluation, which is what divisibility by a degree-one factor means
    x1 = P("x + 1")
    for n, f in enumerate(fib_sequence(256)):
        if n == 0:
            continue
        assert (f % X == ZERO) == (n % 2 == 0)
        assert (f % x1 == ZERO) == (n % 3 == 0)
        fs = subst_x_plus_1(f)
        assert (fs % X == ZERO) == (n % 3 == 0)
        assert (fs % x1 == ZERO) == (n % 2 == 0)


def test_degree_one_divisibility_to_2000():
    # x | p iff p(0) = 0 (no constant term); (x+1) | p iff p(1) = 0 (even weight)
    for n, f in enumerate(fib_sequence(2000)):
        if n == 0:
            continue
        fs = subst_x_plus_1(f)
        assert (f.coefficient(0) == 0) == (n % 2 == 0)
        assert (f.bits.bit_count() % 2 == 0) == (n % 3 == 0)
        assert (fs.coefficient(0) == 0) == (n % 3 == 0)
        assert (fs.bits.bit_count() % 2 == 0) == (n % 2 == 0)
