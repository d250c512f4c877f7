"""Kernel dimension of the n x n grid toggle system, via polynomial GCDs.

The all-press matrix of the n x n grid has nullity
d_n = deg gcd(f_{n+1}(x), f_{n+1}(x+1)) over GF(2), so the whole table
reduces to one GCD per side length.  The correction term
delta_n = d_{2n+1} - 2 d_n is always 0 or 2 and has both a closed form
(2 exactly when 3 | n+1) and a direct form from the GCD of f_{n+1}(x) and
f_{n+1}(x+1); both are provided, and the sweeps in checks tie everything
together.

Every f_m is built in the basis {1, x} of GF(2)[x] over GF(2)[y], y = x^2 + x,
as f_m = A_m(y) + x B_m(y), and never in x: fibpoly's _y_pair, which fib_hmp
reads too, runs the doubling ladder on (A, B) pairs.  y is fixed by x -> x+1,
so for p = A(y) + x B(y), deg gcd(p(x), p(x+1)) = 2 deg gcd(A, B), one Euclid
at half the degree of p (_gcd_degree).  d_of_n takes it on a factor h of
f_{n+1} at half the degree of the odd part b of n + 1, after two number-theory
steps sharing one ord(2) helper (_order_of_2): _reduce_odd_part lowers each
exponent e_p of b to min(e_p, c_p), caps set by b's primes alone, keeping the
GCD's degree, and on the b* it reaches Euclid is skipped if _gcd_is_trivial,
from b* alone, finds a prime with 2 generating (Z/b*)*/{+-1}.  One helper
builds h for the b* of d_of_n, table and `powers` alike (_odd_degrees): it
steps the y-parts by the defining recurrence from one b* to the next, and
jumps by the ladder only across a gap of more than _LADDER_GAP steps.
_d_and_delta takes it on the unreduced f_{n+1}, always by Euclid; it is the
reference that the `recurrence` sweep reads, because d_of_n's factoring
rests on the identities it checks and the basis does not.
delta_n needs no Euclid: it is read off the y-adic valuations of A and B
(_valuation_delta), by delta_via_gcd and _d_and_delta alike.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable

from .fibpoly import _y_pair
from .polygf2 import _gcd_bits

__all__ = [
    "NullityRecord",
    "d_of_n",
    "delta_closed_form",
    "delta_via_gcd",
    "table",
    "format_csv",
]


def _require_side(n: int) -> None:
    if n < 1:
        raise ValueError("grid side length must be >= 1")


def _gcd_degree(a: int, b: int) -> int:
    """deg gcd(p(x), p(x+1)) for p = A(y) + x B(y), y = x^2 + x, given A and B.

    y is fixed by x -> x+1, so p(x+1) = p + B(y), and
    gcd(p, p(x+1)) = gcd(p, B(y)) = gcd(A(y), B(y)).  GF(2)[x] is free over
    GF(2)[y] with basis {1, x}, so that GCD is gcd(A, B) taken in y, whose
    x-degree is twice its y-degree.
    """
    return 2 * (_gcd_bits(a, b).bit_length() - 1)


def _factor(m: int) -> dict[int, int]:
    """{p: e} for the primes p of m >= 1, p^e exactly dividing m, ascending, by trial division."""
    k = (m & -m).bit_length() - 1
    factors = {2: k} if k else {}
    m >>= k
    q = 3
    while q * q <= m:
        while m % q == 0:
            factors[q] = factors.get(q, 0) + 1
            m //= q
        q += 2
    if m > 1:
        factors[m] = 1
    return factors


def _order_of_2(m: int) -> int:
    """ord_m(2) for odd m with 2^(m-1) = 1 mod m: m - 1 divided by its primes while 2 is a root."""
    order = m - 1
    for q in _factor(order):
        while order % q == 0 and pow(2, order // q, m) == 1:
            order //= q
    return order


def _cap(primes: list[int]) -> int:
    """C = prod p^c_p over distinct odd primes, c_p = v_p(2^L - 1), L the lcm of the ord_p(2)."""
    order = math.lcm(*[_order_of_2(p) for p in primes])
    cap = 1
    for p in primes:
        power = p
        while pow(2, order, power * p) == 1:
            power *= p
        cap *= power
    return cap


def _reduce_odd_part(b: int) -> int:
    """b*: an odd b* dividing odd b with D(b*) = D(b), a fixed point of this reduction.

    D(b) = deg gcd(h, h(x+1)) for h = h_b = f_m + f_{m+1}, m = (b-1)/2.  Where
    p^2 | b and ord_b(2) = p ord_{b/p}(2), D(b/p) = D(b) (proof below), and b*
    is where such division stops: b* = prod p^min(e_p, c_p) for b = prod p^e_p.
    Write b = p^e c with p not dividing c, w_p = v_p(2^ord_p(2) - 1) - 1 (1 at
    the Wieferich primes 1093 and 3511), and m_p = v_p(ord_c(2)), the largest
    v_p(ord_q(2)) over the primes q of b.  Lifting the exponent,
    v_p(ord_{p^e}(2)) = max(0, e - 1 - w_p), and ord_{p^e}(2) has the p-free
    part of ord_{p^(e-1)}(2), so the order grows from b/p to b exactly when
    e > c_p = 1 + w_p + m_p.  c_p depends only on which primes divide b, so no
    division changes a cap.  _cap reads c_p as v_p(2^L - 1), L the lcm of the
    ord_q(2): v_p(2^L - 1) = v_p(2^ord_p(2) - 1) + v_p(L) = 1 + w_p + m_p, so
    b* = gcd(b, C) for C = prod p^c_p.  Every cap is at least 1, so b* has b's
    primes, and 3 | b* exactly if 3 | b.

    Proof that D(b/p) = D(b).  The roots of h_b are z + 1/z for z != 1 with
    z^b = 1, and they are distinct, so D(b) counts the roots a of h_b for which
    a + 1 is also a root, and every root counted at b/p is counted at b.  Take
    a root counted at b but not at b/p: a = z + 1/z and a + 1 = w + 1/w, and
    M = lcm(ord z, ord w), which divides b but not b/p, so v_p(M) = v_p(b) = e
    with e >= 2.  Write b = p^e c and M = p^e s, with s | c and p not dividing
    c.  The order grows from b/p to b, so e > c_p; M's primes are among b's,
    so its cap at p is at most c_p, and the order grows from M/p to M as
    well.  Let t be a primitive M-th root of unity,
    z = t^u and w = t^v.  In characteristic 2, a + (a + 1) + 1 = 0, so t is a
    root of Q = 1 + X^u + X^-u + X^v + X^-v, whose five exponents are distinct
    mod M: u and v are nonzero, u is not +-v because a != a + 1, and M is odd.
    t has degree ord_M(2) = p ord_{M/p}(2), so its minimal polynomial is
    g(X^p), with g that of t^p.  Read Q's exponents mod M, which p divides;
    g(X^p) divides Q, so it divides each part X^i Q_i(X^p) of
    Q = sum_{i<p} X^i Q_i(X^p), and each Q_i vanishes at t^p.  A part with
    one term cannot vanish, nor one with two, since t^p has order M/p.  So
    all five exponents lie in one class mod p, the class of 0: p divides u
    and v, and z and w have orders dividing M/p, against the choice of M.
    """
    primes = list(_factor(b))
    return math.gcd(b, _cap(primes)) if math.prod(primes) < b else b  # unless squarefree


def _gcd_is_trivial(b: int) -> bool:
    """Whether odd b is prime and 2 generates (Z/b)*/{+-1}, so that D(b) = 0 when B != 0.

    Here D(b) = deg gcd(h, h(x+1)) for h = f_m + f_{m+1} = A(y) + x B(y),
    m = (b-1)/2.  For a primitive b-th root of unity z, the roots of h are
    z^j + z^-j, 0 < j < b/2.  Frobenius maps z^j + z^-j to z^2j + z^-2j, so it
    acts as *2 on (Z/b)*/{+-1}; when 2 generates that group, h is
    irreducible.  h(x+1) is irreducible of the same degree, so the GCD is 1
    unless h(x+1) = h, which for h = A(y) + x B(y) is B = 0.

    (Z/b)* is cyclic of order b - 1, so 2 and -1 generate it exactly when
    ord_b(2) = b - 1, or ord_b(2) = (b - 1)/2 and -1 is not a power of 2: the
    powers of 2 are then the squares, and -1 is a square when b = 1 mod 4.
    No composite b passes, so b is never factored: once 2^(b-1) = 1 mod b,
    ord_b(2) divides lambda(b) and b - 1, below (b - 1)/2 for composite b, as
    lambda(b) <= phi(b)/2 with two distinct primes and gcd(phi(p^k), p^k - 1) = p - 1.
    """
    if pow(2, b - 1, b) != 1:
        return False
    order = _order_of_2(b)
    return order == b - 1 or (2 * order == b - 1 and b % 4 == 3)


def _h_gcd_degree(b: int, a0: int, b0: int, a1: int, b1: int) -> int:
    """D(b) from the y-parts of f_m and f_{m+1}, m = (b-1)/2: Euclid unless _gcd_is_trivial.

    _odd_degrees hands it the y-parts, stepped or from the ladder.
    """
    a, c = a0 ^ a1, b0 ^ b1
    return 0 if c and _gcd_is_trivial(b) else _gcd_degree(a, c)


# Past this many recurrence steps, one _y_pair(m) is cheaper.  On CPython 3.11
# (shared 2-vCPU x86-64 machine) the crossover was about 150-280 steps for
# m <= 5,000, 120 at 30,000 and 70-76 from 600,000 to 1,000,000.
_LADDER_GAP = 64


def _odd_degrees(bs: Iterable[int]) -> dict[int, int]:
    """{b: D(b)} for odd b that _reduce_odd_part leaves unchanged (b = b*).

    The b are taken in ascending order, and h_b = f_m + f_{m+1}, m = (b-1)/2,
    is reached from the last b's y-parts by the recurrence: x^2 = x + y turns
    f_{m+1} = x f_m + f_{m-1} into A_{m+1} = y B_m + A_{m-1} and
    B_{m+1} = A_m + B_m + B_{m-1}.  Across more than _LADDER_GAP steps, the
    ladder (_y_pair) starts afresh at m.
    """
    degrees = {}
    m, a0, b0, a1, b1 = 0, 0, 0, 1, 0  # y-parts of f_m and f_{m+1}, from m = 0
    for b in sorted(set(bs)):
        if (b >> 1) - m > _LADDER_GAP:
            m, (a0, b0, a1, b1) = b >> 1, _y_pair(b >> 1)
        for _ in range(m, b >> 1):
            a0, b0, a1, b1 = a1, b1, (b1 << 1) ^ a0, a1 ^ b1 ^ b0
        m = b >> 1
        degrees[b] = _h_gcd_degree(b, a0, b0, a1, b1)
    return degrees


def _d_from(n: int, degree_of: Callable[[int], int]) -> int:
    """d_n assembled from D(b) = degree_of(b), b the odd part of n + 1, read from _odd_degrees."""
    k = ((n + 1) & -(n + 1)).bit_length() - 1
    b = (n + 1) >> k
    d = degree_of(b) << (k + 1)
    return d + 2 * ((1 << k) - 1) if b % 3 == 0 else d


def d_of_n(n: int) -> int:
    """Nullity of the n x n toggle system: deg gcd(f_{n+1}(x), f_{n+1}(x+1)).

    Computed on a factored f_{n+1}: with n+1 = 2^k * b, b odd, and
    h = f_m + f_{m+1} for m = (b-1)/2, the doubling identities give f_b = h^2
    and f_{n+1} = x^(2^k - 1) * h^(2^(k+1)).  x never divides f_b, and x+1
    divides it exactly when 3 | b (f_b(1) is the Fibonacci number F_b mod 2),
    so the GCD is gcd(h, h(x+1))^(2^(k+1)) times (x^2 + x)^(2^k - 1) when
    3 | b.  h is built as A(y) + x B(y), y = x^2 + x, and its degree is twice
    that of gcd(A, B), a Euclid at half the degree of h (_gcd_degree).  All of
    this runs on h for b* = _reduce_odd_part(b), with the same GCD degree, and
    Euclid is skipped where _gcd_is_trivial(b*) and B != 0.  _odd_degrees
    builds h by recurrence steps from f_0 when m <= _LADDER_GAP for b*, and by
    the ladder (_y_pair) above that.
    """
    _require_side(n)
    return _d_from(n, lambda b: _odd_degrees([b := _reduce_odd_part(b)])[b])


def delta_closed_form(n: int) -> int:
    """delta_n by the divisibility criterion: 2 when 3 divides n + 1, else 0."""
    _require_side(n)
    return 2 if (n + 1) % 3 == 0 else 0


def _valuation_delta(a: int, b: int) -> int:
    """delta_n = 2 deg gcd(x, f(x+1)/g) for f = f_{n+1} = A(y) + x B(y), given A and B.

    Here g = gcd(f, f(x+1)) = G(y) for G = gcd(A, B), and
    f(x+1)/g = (A/G + B/G)(y) + x (B/G)(y) is (A/G)(0) + (B/G)(0) at x = 0.
    y divides at most one of the coprime A/G and B/G, so x divides f(x+1)/g
    exactly when y divides neither, that is when A and B have the same
    y-adic valuation.  G itself is never needed.
    """
    # z & -z is y^(y-adic valuation of z)
    return 2 if a & -a == b & -b else 0


def _d_and_delta(n: int) -> tuple[int, int]:
    """(d_n, delta_n) from the unreduced f_{n+1} = A(y) + x B(y), by no doubling identity of d.

    d_n is _gcd_degree(A, B), resting only on the basis {1, x} over GF(2)[y].
    """
    a, b = _y_pair(n + 1)[:2]
    return _gcd_degree(a, b), _valuation_delta(a, b)


def delta_via_gcd(n: int) -> int:
    """delta_n from its division form, 2 * deg gcd(x, f_{n+1}(x+1) / g).

    Here g = gcd(f_{n+1}(x), f_{n+1}(x+1)).  _valuation_delta reads it off
    the y-parts of f_{n+1}, so neither g nor the quotient is computed.
    """
    _require_side(n)
    return _valuation_delta(*_y_pair(n + 1)[:2])


class NullityRecord(namedtuple("NullityRecord", "n d delta")):
    """One table row: side length n, kernel dimension d, correction delta."""

    __slots__ = ()


def table(n_max: int) -> list[NullityRecord]:
    """Records for every n in 1..n_max, in order.

    Rows whose n + 1 share an odd part 2m + 1 share one GCD, on h = f_m +
    f_{m+1}, and odd parts that _reduce_odd_part takes to one b* share it too.
    One _odd_degrees call takes every b* in ascending order, each a few
    recurrence steps from the last, where d_of_n alone would run the ladder
    past _LADDER_GAP steps.
    """
    _require_side(n_max)
    reduced = [_reduce_odd_part(b) for b in range(1, n_max + 2, 2)]  # b* of each odd part b
    degrees = _odd_degrees(reduced)
    return [
        NullityRecord(n, _d_from(n, lambda b: degrees[reduced[b >> 1]]), delta_closed_form(n))
        for n in range(1, n_max + 1)
    ]


def format_csv(records: Iterable[NullityRecord]) -> str:
    """Exact CSV text: header "n,d,delta", one decimal row per record, LF endings."""
    lines = ["n,d,delta"]
    lines.extend(f"{r.n},{r.d},{r.delta}" for r in records)
    return "\n".join(lines) + "\n"
