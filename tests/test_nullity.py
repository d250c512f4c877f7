"""Nullity values, the delta correction, and the doubling-identity sweeps."""

from __future__ import annotations

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
from fibgrid.checks import all2, powers, recurrence
from fibgrid.nullity import _d_and_delta, _gcd_degree, _y_pair
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
    # table computes each odd part's GCD once; every row must match d_of_n alone
    assert table(3000) == [
        NullityRecord(n, d_of_n(n), delta_closed_form(n)) for n in range(1, 3001)
    ]


@pytest.mark.slow
def test_streamed_table_matches_ladder_rows_to_12000():
    # table streams h by the recurrence; d_of_n builds it by the ladder
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


@pytest.mark.slow
def test_powers_counterexample_by_light_chasing():
    # light chasing builds no polynomial
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


@pytest.mark.slow
def test_oracle_agreement_extended():
    # light chasing builds no polynomial, so it checks the GCD route from
    # outside; d_128 = 56, and 1457 = 2*3^6 - 1 has d = 2
    for n in [*range(1, 301), 511, 512, 1000, 1457, 2000]:
        assert d_of_n(n) == GridSystem(n).nullity(), f"n={n}"
