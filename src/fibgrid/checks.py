"""Verification sweeps: every identity and conjecture check, under one registry.

Everything here is empirical: a report claims "verified for the tested
range" and never more.  Each sweep takes its bounds as keyword arguments,
with the documented defaults in its signature, and returns a list of
Reports.  SWEEPS maps the CLI name of each sweep to its function, in the
order `verify all` runs them.

Which route each sweep reads: d_of_n, the factored fast route, is checked by
`oracle` against `GridSystem`'s light chasing, which runs f_{n+1}'s recurrence
at the line operator with no polygf2 kernel, GCD, ladder or y-basis; `all2`
tests d_of_n, and `powers` the same route from the reduced odd parts b* on,
all in one call to _odd_degrees, the helper that builds h for d_of_n.
`recurrence` and `delta` check identities that this route uses to factor
f_{n+1}, so they never read it: `recurrence` reads `_d_and_delta`, and
`delta` reads `delta_via_gcd`, which build the unreduced f_{n+1} as
A(y) + x B(y), y = x^2 + x.  d comes from gcd(A, B), resting on that basis
and on no doubling identity of d, and delta from whether A and B have the
same y-adic valuation, with no Euclid and not from the mod-3 closed form.

Two kinds of report share one type.  A conjecture check (scope None) keeps
every case and renders as a per-case table.  A range sweep sets scope to a
summary of what it covered, stops at its first failing case, and renders as
one line.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .fibpoly import fib_hmp
from .grid import GridSystem
from .nullity import _cap, _d_and_delta, _d_from, _factor, _odd_degrees, d_of_n
from .nullity import delta_closed_form, delta_via_gcd
from .polygf2 import PolyGF2, gcd

__all__ = [
    "Case",
    "Report",
    "SWEEPS",
    "to_text",
]


class Case(namedtuple("Case", "params expected computed")):
    """One tested instance; params is a semicolon-joined key=value string.

    expected and computed are each an int or a PolyGF2.
    """

    __slots__ = ()

    @property
    def verdict(self) -> str:
        return "pass" if self.expected == self.computed else "fail"


class Report(namedtuple("Report", "name cases scope", defaults=(None,))):
    """Cases of one named check; scope is the summary line of a range sweep.

    cases is a tuple of Case; scope is None for a conjecture check.
    """

    __slots__ = ()

    @property
    def overall(self) -> str:
        """pass when every case passes, fail when every case fails, else partial."""
        if all(c.verdict == "pass" for c in self.cases):
            return "pass"
        if all(c.verdict == "fail" for c in self.cases):
            return "fail"
        return "partial"

    @property
    def first_failure(self) -> Case | None:
        return next((c for c in self.cases if c.verdict == "fail"), None)


def _require(name: str, value: int, minimum: int = 1) -> None:
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _sweep(name: str, scope: str, triples) -> Report:
    """Range sweep over (params, expected, computed) triples, up to the first failure."""
    cases = []
    for triple in triples:
        cases.append(Case(*triple))
        if cases[-1].verdict == "fail":
            break
    return Report(name, tuple(cases), scope)


# -- range sweeps ----------------------------------------------------------------


def recurrence(*, nmax: int = 5000) -> list[Report]:
    """The doubling identities, with d and delta both from the GCD route.

    double-d      d(2n+1) == 2 d(n) + delta(n)   for n = 1..nmax
    double-delta  delta(2n+1) == delta(n)        for n = 1..nmax
    quad-d        d(4n+3) == 4 d(n) + 3 delta(n) for n = 1..nmax // 2
    delta-range   delta(n) in {0, 2}             for every index visited
    """
    _require("nmax", nmax)
    cache: dict[int, tuple[int, int]] = {}

    def vals(n: int) -> tuple[int, int]:
        if n not in cache:
            cache[n] = _d_and_delta(n)
        return cache[n]

    ns, quad_ns = range(1, nmax + 1), range(1, nmax // 2 + 1)
    double_d = ((f"n={n}", 2 * vals(n)[0] + vals(n)[1], vals(2 * n + 1)[0]) for n in ns)
    double_delta = ((f"n={n}", vals(n)[1], vals(2 * n + 1)[1]) for n in ns)
    quad_d = ((f"n={n}", 4 * vals(n)[0] + 3 * vals(n)[1], vals(4 * n + 3)[0]) for n in quad_ns)
    reports = [
        _sweep("recurrence double-d", f"{nmax} checked", double_d),
        _sweep("recurrence double-delta", f"{nmax} checked", double_delta),
        _sweep("recurrence quad-d", f"{len(quad_ns)} checked", quad_d),
    ]
    # a delta outside {0, 2} is reported against 0
    in_range = ((f"n={n}", e if e in (0, 2) else 0, e) for n, (_, e) in sorted(cache.items()))
    reports.append(_sweep("recurrence delta-range", f"{len(cache)} checked", in_range))
    return reports


def delta(*, nmax: int = 2000) -> list[Report]:
    """delta_n from its GCD form, by y-adic valuations, against the mod-3 closed form."""
    _require("nmax", nmax)
    triples = ((f"n={n}", delta_closed_form(n), delta_via_gcd(n)) for n in range(1, nmax + 1))
    return [_sweep("delta", f"two routes agree for n=1..{nmax}", triples)]


def hmp_gcd(*, nmax: int = 2000, trials: int = 1000, seed: int = 1) -> list[Report]:
    """gcd(f_m, f_n) == f_gcd(m,n) on random index pairs m, n in 1..nmax."""
    _require("nmax", nmax)
    _require("trials", trials)
    import random  # deferred: every CLI command imports this module

    rng = random.Random(seed)

    def trial() -> tuple[str, PolyGF2, PolyGF2]:
        m = rng.randint(1, nmax)
        n = rng.randint(1, nmax)
        return f"m={m};n={n}", fib_hmp(math.gcd(m, n)), gcd(fib_hmp(m), fib_hmp(n))

    triples = (trial() for _ in range(trials))
    return [_sweep("hmp-gcd", f"{trials} random pairs <= {nmax}, seed {seed}", triples)]


def oracle(*, nmax: int = 64) -> list[Report]:
    """d_n by the GCD route against the light-chasing nullity, n = 1..nmax.

    The chase ends in one elimination on the n x n residue matrix, hence
    the summary's wording.
    """
    _require("nmax", nmax)
    triples = ((f"n={n}", GridSystem(n).nullity(), d_of_n(n)) for n in range(1, nmax + 1))
    return [_sweep("oracle", f"gcd route matches elimination for n=1..{nmax}", triples)]


# -- conjecture checks -----------------------------------------------------------


def all2(*, kmax: int = 8) -> list[Report]:
    """d at n = 2*3^k - 1 should always be 2; tested for k = 1..kmax.

    d_of_n runs no Euclid here: n + 1 = 2 * 3^k has odd part 3^k, which
    _reduce_odd_part takes down to 3 with the same GCD degree, and there
    _gcd_is_trivial proves gcd(h, h(x+1)) = 1, so d = 2 for every k; h for
    b* = 3 is one recurrence step from f_0, with no ladder.  The
    independent checks are a Tier-1 test, which takes d_{2*3^k - 1} by
    Euclid on the unreduced f_{n+1} for k <= 8, and `oracle`, by light
    chasing (n = 5, 17 and 53 under its default nmax).
    """
    _require("kmax", kmax)
    cases = []
    power = 1
    for k in range(1, kmax + 1):
        power *= 3
        n = 2 * power - 1
        cases.append(Case(f"k={k};n={n}", 2, d_of_n(n)))
    return [Report("all2", tuple(cases))]


def powers(*, amax: int = 51, kmax: int = 17, degree_cap: int = 200_000) -> list[Report]:
    """d(a^k - 1) should equal d(a - 1) for odd a with 21 not dividing a.

    Tests every odd a in 3..amax outside the excluded residues and every
    k in 1..kmax with a^k <= degree_cap; excluded a contribute no cases.

    The conjecture as stated is false: at a = 57, d(56) = 0 but
    d(3248) = 36, so amax >= 57 with kmax >= 2 and degree_cap >= 3249
    reports a failing case.  The default amax of 51 stops below it.

    Each a^k is taken to _reduce_odd_part's b*, with D(b*) = D(a^k), by
    exponent arithmetic: a = prod p^e_p is factored once, its caps, set by its
    primes alone, give C = prod p^c_p once, and b*(a^k) = gcd(a^k, C) =
    prod p^min(k e_p, c_p), so no a^k is trial-divided.  So 57^2 reaches 171,
    and every power of a prime a reaches a unless 2^(a-1) = 1 mod a^2, as for
    a = 1093.  Every b* is collected first, and one _odd_degrees call reads
    D(b*), as d_of_n would but with no second factoring, since b* is a fixed
    point of the reduction.  It runs once per distinct b*, in ascending order,
    each h a few recurrence steps from the last where d_of_n alone would run
    the ladder; at degree_cap 100,000 the 88 default cases reach 20 b*, none
    above 117.  The independent checks are `oracle`, by light
    chasing, and a Tier-1 test that takes d(a^k - 1) by Euclid on the
    unreduced f_{a^k} wherever the reduction applies, for a^k <= 100,000.
    """
    _require("amax", amax, 3)
    _require("kmax", kmax)
    _require("degree_cap", degree_cap, 3)
    reduced = {}  # a: [b*(a^k) for k = 1, 2, ... while a^k <= degree_cap]
    for a in range(3, min(amax, degree_cap) + 1, 2):  # a > degree_cap has no case
        if a % 21 == 0:
            continue  # outside the conjecture's hypothesis
        cap = _cap(list(_factor(a)))
        reduced[a] = []
        power = a
        while power <= degree_cap and len(reduced[a]) < kmax:
            reduced[a].append(math.gcd(power, cap))
            power *= a
    degrees = _odd_degrees({b for parts in reduced.values() for b in parts})
    # n + 1 = a^k is odd and 3 | b* exactly when 3 | a^k, so _d_from gives
    # d(a^k - 1) = d(b* - 1)
    d = {b: _d_from(b - 1, degrees.__getitem__) for b in degrees}
    cases = [
        Case(f"a={a};k={k};n={a**k - 1}", d[parts[0]], d[b])
        for a, parts in reduced.items()
        for k, b in enumerate(parts, 1)
    ]
    return [Report("powers", tuple(cases))]


SWEEPS = {
    "recurrence": recurrence,
    "delta": delta,
    "hmp-gcd": hmp_gcd,
    "oracle": oracle,
    "all2": all2,
    "powers": powers,
}


# -- rendering -------------------------------------------------------------------


def _value(v: int | PolyGF2) -> str:
    return v.to_hex() if isinstance(v, PolyGF2) else str(v)


def to_text(report: Report) -> str:
    """Human-readable report: one line for a range sweep, a per-case table otherwise."""
    if report.scope is not None:
        bad = report.first_failure
        if bad is None:
            return f"{report.name}: ok ({report.scope})\n"
        return (
            f"{report.name}: FAIL at {bad.params}, "
            f"expected {_value(bad.expected)}, got {_value(bad.computed)}\n"
        )
    width = max((len(c.params) for c in report.cases), default=0)
    lines = [f"== {report.name} =="]
    for case in report.cases:
        lines.append(
            f"  {case.params:<{width}}  expected={_value(case.expected):<4} "
            f"computed={_value(case.computed):<4} {case.verdict}"
        )
    if report.overall == "pass":
        lines.append(f"result: pass, verified for the tested range ({len(report.cases)} cases)")
    else:
        failed = sum(1 for c in report.cases if c.verdict == "fail")
        lines.append(f"result: {report.overall} ({failed} of {len(report.cases)} cases failed)")
    return "\n".join(lines) + "\n"
