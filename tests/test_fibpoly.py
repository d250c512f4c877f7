"""Fibonacci polynomial construction routes, the family's divisibility order and its raster."""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest

from fibgrid import (
    PolyGF2,
    fib_binomial,
    fib_hmp,
    fib_sequence,
    gcd,
    render,
    subst_x_plus_1,
    to_ascii,
    to_pbm,
)

P = PolyGF2.parse
ZERO, ONE, X = PolyGF2(0), PolyGF2(1), PolyGF2(2)


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
        f = fib_hmp(n)
        assert fib_hmp(2 * n) == X * f * f


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
        assert (f.bits & 1 == 0) == (n % 2 == 0)
        assert (f.bits.bit_count() % 2 == 0) == (n % 3 == 0)
        assert (fs.bits & 1 == 0) == (n % 3 == 0)
        assert (fs.bits.bit_count() % 2 == 0) == (n % 2 == 0)


def test_render_shape():
    rows = render(8)
    assert len(rows) == 8
    # row n carries f_n: degree n-1 keeps everything inside the square.  render
    # streams the recurrence, so its rows are checked against the binomial form
    for i, bits in enumerate(rows):
        assert bits == fib_binomial(i + 1).bits
        assert bits.bit_length() - 1 == i  # highest lit column sits on the diagonal
    with pytest.raises(ValueError):
        render(0)


def test_single_cell():
    rows = render(1)
    assert rows == (1,)
    assert to_pbm(rows) == "P1\n1 1\n1\n"
    assert to_ascii(rows) == "#\n"


def test_row_six():
    assert render(8)[5] == 0b100010  # f_6 = x^5 + x
    assert to_ascii(render(8)).splitlines()[5] == ".#...#.."


def test_pbm_format():
    text = to_pbm(render(4))
    assert text == "P1\n4 4\n1 0 0 0\n0 1 0 0\n1 0 1 0\n0 0 0 1\n"


def test_ascii_format():
    text = to_ascii(render(4))
    assert text == "#...\n.#..\n#.#.\n...#\n"


def test_pbm_holds_at_most_two_copies_of_its_text():
    # the row strings and the joined text; joining once, with the final line
    # end inside the join, keeps a third copy from appearing at the end
    rows = render(512)
    tracemalloc.start()
    try:
        text = to_pbm(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) == 524_299
    assert peak <= 2.5 * len(text), peak / len(text)


def test_against_binomial_parity_oracle():
    rows = render(64)
    for n in range(1, 65):
        for i in range(64):
            want = math.comb(n + i, 2 * i + 1) % 2
            assert rows[n - 1] >> i & 1 == want, f"n={n}, i={i}"


def test_self_similarity():
    # row 2n is row n squared times x, so the gasket reproduces itself at
    # double scale with a one-column shift
    rows = render(128)
    for n in range(1, 65):
        row = PolyGF2(rows[n - 1])
        doubled = X * row * row
        assert rows[2 * n - 1] == doubled.bits
