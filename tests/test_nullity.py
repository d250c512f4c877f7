"""Nullity values, the delta correction, and the doubling-identity sweeps."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fibgrid import (
    GridSystem,
    NullityRecord,
    PolyGF2,
    d_of_n,
    delta_closed_form,
    delta_via_gcd,
    fib_binomial,
    fib_hmp,
    format_csv,
    gcd,
    subst_x_plus_1,
    table,
)
from fibgrid import nullity
from fibgrid.checks import all2, powers, recurrence
from fibgrid.nullity import (
    _LADDER_GAP,
    _cap,
    _d_and_delta,
    _factor,
    _gcd_degree,
    _gcd_is_trivial,
    _h_gcd_degree,
    _odd_degrees,
    _reduce_odd_part,
    _y_pair,
)
from fibgrid.polygf2 import _mul_bits
from ybasis import join

polys = st.binary(max_size=128).map(lambda b: PolyGF2(int.from_bytes(b, "little")))
y_polys = st.binary(max_size=64).map(lambda b: int.from_bytes(b, "little"))


def test_pinned_values():
    # cross-checked against light chasing (see test_grid / acceptance)
    known = {1: 0, 2: 0, 3: 0, 4: 4, 5: 2, 6: 0, 7: 0, 8: 0, 9: 8, 11: 6, 16: 8, 19: 16}
    for n, d in known.items():
        assert d_of_n(n) == d, f"n={n}"


def _check_y_pair(m: int, f_m: int, f_m1: int) -> None:
    a0, b0, a1, b1 = _y_pair(m)
    assert join(a0, b0) == f_m, f"m={m}"
    assert join(a1, b1) == f_m1, f"m={m}"


def test_y_pair_matches_the_binomial_form():
    # the binomial form uses neither the ladder nor the recurrence
    f = [fib_binomial(m).bits for m in range(2002)]
    for m in range(2001):
        _check_y_pair(m, f[m], f[m + 1])
    # either side of a power of two, where the ladder gains a step
    for j in range(17):
        for m in (2**j - 1, 2**j, 2**j + 1):
            _check_y_pair(m, fib_binomial(m).bits, fib_binomial(m + 1).bits)


@given(st.integers(0, 30_000))
def test_y_pair_matches_the_binomial_form_property(m):
    _check_y_pair(m, fib_binomial(m).bits, fib_binomial(m + 1).bits)


@given(y_polys, y_polys, y_polys.filter(bool))
def test_gcd_degree_is_the_gcd_with_the_shifted_copy(a, b, c):
    # arbitrary A and B, then times a shared factor C(y) and its square
    assume(a | b)
    for shared in (1, c, _mul_bits(c, c)):
        a_, b_ = _mul_bits(a, shared), _mul_bits(b, shared)
        f = PolyGF2(join(a_, b_))
        assert _gcd_degree(a_, b_) == gcd(f, subst_x_plus_1(f)).degree


def _times_x(a: int, b: int) -> tuple[int, int]:
    return b << 1, a ^ b  # x (A + x B) = y B + x (A + B)


def _times_x_plus_1(a: int, b: int) -> tuple[int, int]:
    return a ^ (b << 1), a  # (x + 1)(A + x B) = (A + y B) + x A


@given(y_polys, y_polys, st.integers(0, 5), st.integers(0, 5))
def test_delta_rule_is_the_x_multiplicity_comparison(a, b, i, j):
    # A and B have the same y-adic valuation exactly when x divides f(x+1)
    # more often than it divides f, for f = A(y) + x B(y) times x^i (x+1)^j
    assume(a | b)
    f = join(a, b) << i
    for _ in range(j):
        f ^= f << 1  # times x + 1
    for _ in range(i):
        a, b = _times_x(a, b)
    for _ in range(j):
        a, b = _times_x_plus_1(a, b)
    assert join(a, b) == f
    fs = subst_x_plus_1(PolyGF2(f)).bits
    assert (a & -a == b & -b) == (fs & -fs > f & -f)


def test_factored_route_matches_unreduced_gcd():
    for n in range(1, 2001):
        assert d_of_n(n) == _d_and_delta(n)[0], f"n={n}"


def test_table_shares_gcds_without_changing_rows():
    # table computes each odd part's GCD once; every row must match d_of_n
    # alone, which steps to b* <= 2 _LADDER_GAP + 1 from f_0 as table does and
    # reaches the larger b* by the ladder
    assert table(3000) == [
        NullityRecord(n, d_of_n(n), delta_closed_form(n)) for n in range(1, 3001)
    ]


def _y_parts_reached(monkeypatch, bs) -> tuple[dict, list[int]]:
    # the y-parts _odd_degrees hands to _h_gcd_degree for each b, with no
    # Euclid, and the m at which it ran the ladder
    parts, ladders = {}, []

    def record(b, *y_parts):
        parts[b] = y_parts
        return 0

    def ladder(m):
        ladders.append(m)
        return _y_pair(m)

    monkeypatch.setattr(nullity, "_h_gcd_degree", record)
    monkeypatch.setattr(nullity, "_y_pair", ladder)
    _odd_degrees(bs)
    return parts, ladders


def test_stepped_y_parts_match_the_ladder_to_3000(monkeypatch):
    # one recurrence step per odd b from (A_0, B_0, A_1, B_1) = (0, 0, 1, 0);
    # _y_pair is checked against the binomial form above
    parts, ladders = _y_parts_reached(monkeypatch, range(1, 6002, 2))
    assert ladders == []
    for m in range(3001):
        assert parts[2 * m + 1] == _y_pair(m), f"m={m}"


@pytest.mark.parametrize("gap", [_LADDER_GAP - 1, _LADDER_GAP, _LADDER_GAP + 1])
def test_odd_degrees_step_within_the_gap_and_jump_past_it(monkeypatch, gap):
    # b = 2m + 1 for m = gap, 2 gap, ..., each gap steps after the last b, and
    # from m = 0 for the first; in any order and with repeats
    bs = [2 * m + 1 for m in range(gap, 30 * gap, gap)]
    expected = {b: _h_gcd_degree(b, *_y_pair(b >> 1)) for b in bs}
    assert _odd_degrees(bs[::-1] + bs[:3]) == expected
    parts, ladders = _y_parts_reached(monkeypatch, bs)
    assert ladders == ([b >> 1 for b in bs] if gap > _LADDER_GAP else [])
    assert parts == {b: _y_pair(b >> 1) for b in bs}


def test_odd_degrees_of_a_lone_b_on_either_side_of_the_gap(monkeypatch):
    # d_of_n's single b* is stepped to from f_0 up to m = _LADDER_GAP
    for b, ladders in ((2 * _LADDER_GAP + 1, []), (2 * _LADDER_GAP + 3, [_LADDER_GAP + 1])):
        assert _odd_degrees([b]) == {b: _h_gcd_degree(b, *_y_pair(b >> 1))}
        assert _y_parts_reached(monkeypatch, [b])[1] == ladders
        monkeypatch.undo()


@pytest.mark.slow
def test_odd_degrees_at_the_wieferich_square(monkeypatch):
    # 1093^2 does not reduce, so d_1194648 runs Euclid on h at full size, after
    # the ladder; stepped to from _LADDER_GAP steps below, h has the same y-parts
    b = 1093**2
    assert _odd_degrees([b]) == {b: _h_gcd_degree(b, *_y_pair(b >> 1))} == {b: 0}
    below = b - 2 * _LADDER_GAP
    parts, ladders = _y_parts_reached(monkeypatch, [below, b])
    assert ladders == [below >> 1]
    assert parts[b] == _y_pair(b >> 1)


def _check_factor(m: int, primes: list[int]) -> None:
    # m's distinct primes, ascending, each with the exponent that rebuilds m
    factors = _factor(m)
    assert list(factors) == primes, f"m={m}"
    assert math.prod(p**e for p, e in factors.items()) == m, f"m={m}"


def test_prime_factors_match_brute_force():
    # each q >= 2 that no smaller prime divides is prime and is listed for
    # every multiple of q, so factors[m] is m's distinct primes, ascending
    limit = 20_000
    factors = [[] for _ in range(limit + 1)]
    for q in range(2, limit + 1):
        if not factors[q]:
            for multiple in range(q, limit + 1, q):
                factors[multiple].append(q)
    for m in range(1, limit + 1):
        _check_factor(m, factors[m])
    # squares and a product of the primes either side of sqrt(2,000,001), the
    # largest b that d trial-divides, and two primes below that b
    cases = {
        1: [],
        2**40: [2],
        3**25: [3],
        1409**2: [1409],
        1423**2: [1423],
        1409 * 1423: [1409, 1423],
        1_999_979: [1_999_979],
        1_999_871: [1_999_871],
    }
    for m, primes in cases.items():
        _check_factor(m, primes)


def _smallest_prime_factor(b: int) -> int:
    return next(q for q in range(3, b + 1, 2) if b % q == 0)


def _h_parts(b: int) -> tuple[int, int]:
    # y-parts A, B of h = f_m + f_{m+1}, m = (b - 1)/2
    a0, b0, a1, b1 = _y_pair(b >> 1)
    return a0 ^ a1, b0 ^ b1


def test_trivial_gcd_predicate_agrees_with_euclid():
    # through the reduction: where the predicate fires on b* = _reduce_odd_part(b),
    # D(b) is 0 unless b*'s B = 0, when it is deg A's double for b*'s A
    fired = []
    for b in range(3, 10_002, 2):
        reduced = _reduce_odd_part(b)
        if _gcd_is_trivial(reduced):
            a, c = _h_parts(reduced)
            assert _gcd_degree(*_h_parts(b)) == (0 if c else _gcd_degree(a, 0)), f"b={b}"
            fired.append(b)
    primes = [b for b in fired if _smallest_prime_factor(b) == b]
    powers_3_mod_4 = [b for b in fired if _smallest_prime_factor(b) % 4 == 3 and b not in primes]
    assert any(p % 4 == 1 for p in primes)
    assert 9 in powers_3_mod_4 and 7**4 in powers_3_mod_4
    # 25 reduces to 5, where Psi_5 = y + 1 is fixed by x -> x+1: B = 0 and
    # D(25) = D(5) = 2.  The predicate itself fires on primes only, so it
    # refuses 25, the composites with e(L) > 0, and 1093^2: 1093 is a
    # Wieferich prime, so 1093^2 does not reduce (d_1194648 = 0 still comes
    # from Euclid)
    assert 25 in fired
    for b in (25, 63, 171, 585, 1025, 1093**2):
        assert not _gcd_is_trivial(b), f"b={b}"


def _two_and_minus_one_generate(b: int) -> bool:
    # enumerates the subgroup of (Z/b)* that 2 and -1 generate, for odd b >= 3
    group, x = set(), 1
    while x not in group:
        group.update((x, b - x))
        x = 2 * x % b
    return len(group) == b - 1


def test_trivial_gcd_predicate_matches_the_group_of_2_and_minus_1():
    # for prime b, the predicate fires exactly when 2 and -1 generate (Z/b)*,
    # which the brute force finds with no order, factoring or quadratic residue;
    # b is prime when no smaller prime divides it.  The predicate is given b
    # alone, so it must refuse every composite, the base-2 pseudoprimes among them
    primes, pseudoprimes = [], []
    for b in range(3, 10_008, 2):
        is_prime = all(b % p for p in primes if p * p <= b)
        if is_prime:
            primes.append(b)
        elif pow(2, b - 1, b) == 1:
            pseudoprimes.append(b)
        fires = is_prime and _two_and_minus_one_generate(b)
        assert _gcd_is_trivial(b) == fires, f"b={b}"
    assert primes[-1] == 10_007 and len(primes) == 1229
    assert pseudoprimes[:3] == [341, 561, 645] and len(pseudoprimes) == 22
    # Wieferich squares pass the Fermat test too; the order test refuses them
    for b in (1093**2, 3511**2):
        assert pow(2, b - 1, b) == 1 and not _gcd_is_trivial(b), f"b={b}"


@pytest.mark.slow
def test_trivial_gcd_predicate_refuses_pseudoprimes_to_2000001():
    # every base-2 pseudoprime below d's limit: the odd composites, found by a
    # sieve, that pass the Fermat test
    limit = 2_000_001
    composite = bytearray(limit)
    for p in range(3, 1415, 2):
        if not composite[p]:
            composite[p * p :: 2 * p] = b"\x01" * len(range(p * p, limit, 2 * p))
    pseudoprimes = [b for b in range(3, limit, 2) if composite[b] and pow(2, b - 1, b) == 1]
    assert pseudoprimes[0] == 341 and len(pseudoprimes) == 354
    assert not any(map(_gcd_is_trivial, pseudoprimes))


def _check_predicate_at_prime(b: int, fires: bool) -> None:
    # the predicate's verdict on a prime b, against the brute force, and
    # Euclid on h_b where it fires
    assert _reduce_odd_part(b) == b and list(_factor(b)) == [b]
    assert _two_and_minus_one_generate(b) == fires, f"b={b}"
    assert _gcd_is_trivial(b) == fires, f"b={b}"
    if fires:
        a, c = _h_parts(b)
        assert c and _gcd_degree(a, c) == 0, f"b={b}"


def test_trivial_gcd_predicate_at_primes_past_table():
    # ord_b(2) = b - 1; ord_b(2) = (b - 1)/2 with b = 3 mod 4, where -1 is
    # not a square and 2 still generates (Z/b)*/{+-1}; and (b - 1)/2 with
    # b = 1 mod 4, where -1 is a power of 2 and the predicate must refuse
    _check_predicate_at_prime(299_933, fires=True)
    _check_predicate_at_prime(299_983, fires=True)
    _check_predicate_at_prime(299_969, fires=False)


@pytest.mark.slow
def test_trivial_gcd_predicate_at_the_d_limit():
    # ord_b(2) = b - 1, and (b - 1)/2 with b = 3 mod 4: n = b - 1 near 2,000,000
    _check_predicate_at_prime(1_999_979, fires=True)
    _check_predicate_at_prime(1_999_871, fires=True)


@pytest.mark.slow
def test_trivial_gcd_predicate_at_large_prime_powers():
    # p^k reduces to p, where 2 generates (Z/p)*/{+-1}: no Euclid, and Euclid
    # on h for p^k agrees
    for b in (3**12, 7**6, 11**5, 19**4, 23**4, 47**3):
        reduced = _reduce_odd_part(b)
        assert _gcd_is_trivial(reduced) and _h_parts(reduced)[1], f"b={b}"
        a, c = _h_parts(b)
        assert c and _gcd_degree(a, c) == 0, f"b={b}"


def _check_reduction(bmax: int) -> dict[int, int]:
    # every odd b <= bmax that the reduction lowers keeps its GCD degree and
    # its primes, and is a fixed point once lowered
    reduced = {}
    for b in range(3, bmax + 1, 2):
        r = _reduce_odd_part(b)
        assert _reduce_odd_part(r) == r and _factor(r).keys() == _factor(b).keys(), f"b={b}"
        if r < b:
            assert _gcd_degree(*_h_parts(b)) == _gcd_degree(*_h_parts(r)), f"b={b}"
            reduced[b] = r
    return reduced


def test_reduction_keeps_the_gcd_degree():
    reduced = _check_reduction(10_001)
    assert len(reduced) == 715
    assert reduced[3249] == 171  # 57^2: the powers counterexample's odd part
    assert reduced[5**5] == 5 and reduced[3**8] == 3
    assert _reduce_odd_part(91125) == 15  # 3^6 5^3
    # where the order of 2 does not grow: the non-squarefree L with e(L) > 0,
    # 117 and 275, and 1093^2
    for b in (63, 117, 171, 275, 585, 1025, 1093**2):
        assert _reduce_odd_part(b) == b, f"b={b}"


@pytest.mark.slow
def test_reduction_keeps_the_gcd_degree_to_30001():
    assert len(_check_reduction(30_001)) == 2092


def _trial_primes(m: int) -> list[int]:
    # m's distinct primes, by trial division
    primes = [] if m & 1 else [2]
    m //= m & -m
    q = 3
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 2
    return primes + [m] if m > 1 else primes


def _iterative_reduction(b: int) -> int:
    # the loop that the caps replace: o = ord_b(2) from phi(b), then divide
    # by p while p^2 | b and the order grows, ord_b(2) = p ord_{b/p}(2)
    primes = _trial_primes(b)
    order = b
    for p in primes:
        order -= order // p  # phi(b)
    for q in _trial_primes(order):
        while order % q == 0 and pow(2, order // q, b) == 1:
            order //= q
    for p in primes:
        while b % (p * p) == 0 and order % p == 0 and pow(2, order // p, b // p) == 1:
            b //= p
            order //= p
    return b


def _check_caps(amax: int, kmax: int = 8) -> None:
    # b*(a^k) = prod p^min(k e_p, c_p) from a's factors and the caps c_p in
    # C = _cap(a's primes), and gcd(a^k, C) as powers takes it, against the
    # loop on a^k and against _reduce_odd_part(a^k)
    for a in range(3, amax + 1, 2):
        factors = _factor(a)
        cap = _cap(list(factors))
        caps = _factor(cap)
        for k in range(1, kmax + 1):
            capped = math.prod(p ** min(k * e, caps[p]) for p, e in factors.items())
            assert capped == math.gcd(a**k, cap) == _iterative_reduction(a**k), f"a={a};k={k}"
            assert capped == _reduce_odd_part(a**k), f"a={a};k={k}"


def test_caps_match_the_iterative_reduction():
    _check_caps(1001)


@pytest.mark.slow
def test_caps_match_the_iterative_reduction_to_3001():
    _check_caps(3001)


def test_reduction_stops_at_the_wieferich_square():
    # 2^(p-1) = 1 mod p^2 at p = 1093 and 3511, so w_p = 1 and c_p = 2:
    # p^3 reduces to p^2, not to p, alone or beside 3
    for b, reduced in ((1093**3, 1093**2), (3511**3, 3511**2), (3 * 1093**3, 3 * 1093**2)):
        assert _reduce_odd_part(b) == reduced == _iterative_reduction(b), f"b={b}"


def test_reduced_route_matches_unreduced_gcd_at_powers():
    # d_of_n runs Euclid on h for the reduced odd part, far below a^k; the
    # unreduced route runs it on the whole of f_{a^k}, past 6,000 bits, in
    # the range of c06 up to a^k = 100,000
    odd_parts = set()
    for a in range(3, 52, 2):
        if a % 21:
            odd_parts.update(a**k for k in range(1, 11) if a**k <= 100_000)
    checked = [b for b in sorted(odd_parts) if _reduce_odd_part(b) < b]
    for b in checked:
        assert d_of_n(b - 1) == _d_and_delta(b - 1)[0], f"n={b - 1}"
    assert checked[-1] > 50_000


@pytest.mark.slow
def test_streamed_table_matches_ladder_rows_to_12000():
    # table streams h by the recurrence; d_of_n builds it by the ladder for
    # every b* past 2 _LADDER_GAP + 1
    assert table(12000) == [
        NullityRecord(n, d_of_n(n), delta_closed_form(n)) for n in range(1, 12001)
    ]


@pytest.mark.slow
def test_factored_route_matches_unreduced_gcd_extended():
    for n in range(2001, 20001):
        assert d_of_n(n) == _d_and_delta(n)[0], f"n={n}"


@pytest.mark.slow
def test_all2_through_k12():
    (report,) = all2(kmax=12)
    assert report.overall == "pass"
    assert report.cases[-1].params == "k=12;n=1062881"


@pytest.mark.slow
def test_powers_under_degree_cap_one_million():
    (report,) = powers(amax=51, kmax=32, degree_cap=1_000_000)
    assert report.overall == "pass"
    assert len(report.cases) == 106


def test_powers_conjecture_fails_at_57():
    # 57 is odd and 21 does not divide it, yet d(57 - 1) != d(57^2 - 1);
    # the unreduced route agrees with the factored one
    assert d_of_n(56) == 0
    assert d_of_n(3248) == 36
    assert _d_and_delta(3248) == (36, 2)


def test_powers_counterexample_by_light_chasing():
    # light chasing runs f_{n+1}'s recurrence on one vector, with no GCD or ladder
    assert GridSystem(3248).nullity() == 36


def test_delta_examples():
    assert delta_closed_form(1) == 0
    assert delta_closed_form(2) == 2
    assert delta_closed_form(4) == 0
    assert delta_closed_form(5) == 2
    assert delta_via_gcd(2) == 2
    assert delta_via_gcd(1) == 0


def test_two_delta_routes_agree():
    for n in range(1, 301):
        assert delta_via_gcd(n) == delta_closed_form(n), f"n={n}"


def test_validation():
    for fn in (d_of_n, delta_closed_form, delta_via_gcd, table):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        recurrence(nmax=0)


def test_records_and_csv():
    assert table(5)[4] == NullityRecord(5, 2, 2)
    assert table(1) == [NullityRecord(1, 0, 0)]
    assert format_csv(table(5)) == "n,d,delta\n1,0,0\n2,0,2\n3,0,0\n4,4,0\n5,2,2\n"


def test_recurrence_report_shape():
    reports = recurrence(nmax=120)
    assert [r.name for r in reports] == [
        "recurrence double-d",
        "recurrence double-delta",
        "recurrence quad-d",
        "recurrence delta-range",
    ]
    assert all(r.overall == "pass" and r.first_failure is None for r in reports)
    assert [r.cases[0].params for r in reports] == ["n=1"] * 4
    assert len(reports[0].cases) == 120 and reports[0].scope == "120 checked"
    assert len(reports[2].cases) == 60 and reports[2].scope == "60 checked"
    # every index the sweep touched went through the delta-range check
    assert len(reports[3].cases) >= 120
    assert reports[3].scope == f"{len(reports[3].cases)} checked"


def test_recurrence_is_deterministic():
    assert recurrence(nmax=60) == recurrence(nmax=60)


def test_doubling_identity_directly():
    # d_of_n's factored form satisfies the identity by construction, so the
    # left side comes from the unreduced gcd
    for n in range(1, 101):
        assert _d_and_delta(2 * n + 1)[0] == 2 * d_of_n(n) + delta_via_gcd(n)
        assert delta_via_gcd(2 * n + 1) == delta_via_gcd(n)


def test_branch_multiplicities_vanish_together():
    # after dividing out the common gcd g, the x+1 branch of f_{n+1}(x) and
    # the x branch of f_{n+1}(x+1) are trivial for exactly the same n; a
    # degree-one factor divides iff the matching evaluation vanishes
    x = PolyGF2(2)
    for n in range(1, 2001):
        f = fib_hmp(n + 1)
        fs = subst_x_plus_1(f)
        g = gcd(f, fs)
        q1 = divmod(f, g)[0]
        q2 = divmod(fs, g)[0]
        left = 1 if q1.bits.bit_count() % 2 == 0 else 0  # deg gcd(x+1, q1)
        right = 1 if q2.bits & 1 == 0 else 0  # deg gcd(x, q2)
        assert left == right, f"n={n}"
        assert 2 * right == delta_via_gcd(n)
        assert g.degree == _d_and_delta(n)[0]


def test_oracle_agreement_small(grid_cache):
    for n in range(1, 25):
        assert d_of_n(n) == grid_cache(n).nullity(), f"n={n}"


def test_oracle_agreement_extended():
    # light chasing uses no polygf2 kernel, GCD, ladder or y-basis, so it checks
    # the GCD route from outside; d_128 = 56, and 1457 = 2*3^6 - 1 has d = 2
    for n in [*range(1, 301), 511, 512, 1000, 1457, 2000]:
        assert d_of_n(n) == GridSystem(n).nullity(), f"n={n}"
