"""The sweep registry: signatures, bound validation, and the range-sweep contract."""

from __future__ import annotations

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from fibgrid import SWEEPS, checks, delta_via_gcd, nullity, to_text
from fibgrid.cli import build_parser

# each sweep's bounds, by keyword, with the defaults documented in the README
DEFAULTS = {
    "recurrence": {"nmax": 5000},
    "delta": {"nmax": 2000},
    "hmp-gcd": {"nmax": 2000, "trials": 1000, "seed": 1},
    "oracle": {"nmax": 64},
    "all2": {"kmax": 8},
    "powers": {"amax": 51, "kmax": 17, "degree_cap": 200_000},
}


def test_registry_signatures():
    assert list(SWEEPS) == list(DEFAULTS)
    verify = build_parser().parse_args(["verify", "all"])
    for name, sweep in SWEEPS.items():
        params = inspect.signature(sweep).parameters.values()
        assert all(p.kind is p.KEYWORD_ONLY for p in params), name
        assert {p.name: p.default for p in params} == DEFAULTS[name]
        # every bound is reachable from the command line, unset by default
        assert all(getattr(verify, p.name) is None for p in params), name


@pytest.mark.parametrize(
    "name,bounds",
    [
        ("delta", {"nmax": 0}),
        ("hmp-gcd", {"nmax": 0}),
        ("hmp-gcd", {"trials": 0}),
        ("recurrence", {"nmax": 0}),
        ("oracle", {"nmax": 0}),
    ],
)
def test_empty_ranges_are_refused(name, bounds):
    with pytest.raises(ValueError):
        SWEEPS[name](**bounds)


def test_identity_sweeps_never_read_the_factored_route(monkeypatch):
    # d_of_n reduces its GCD with the identities these sweeps check, reduces
    # the odd part by _reduce_odd_part and skips Euclid where _gcd_is_trivial
    # says so, and powers enters the same route at _odd_degrees; the sweeps'
    # routes do none of these
    def refuse(n):
        raise AssertionError("identity sweep read d_of_n")

    def refuse_entry(bs):
        raise AssertionError("identity sweep read _odd_degrees")

    def refuse_shortcut(b):
        raise AssertionError("identity sweep read _gcd_is_trivial")

    def refuse_reduction(b):
        raise AssertionError("identity sweep read _reduce_odd_part")

    monkeypatch.setattr(checks, "d_of_n", refuse)
    monkeypatch.setattr(checks, "_odd_degrees", refuse_entry)
    monkeypatch.setattr(nullity, "_gcd_is_trivial", refuse_shortcut)
    with pytest.raises(AssertionError, match="_gcd_is_trivial"):
        nullity.d_of_n(8)
    monkeypatch.setattr(nullity, "_reduce_odd_part", refuse_reduction)
    with pytest.raises(AssertionError, match="_reduce_odd_part"):
        nullity.d_of_n(8)
    reports = [*checks.recurrence(nmax=40), *checks.delta(nmax=40)]
    assert all(r.overall == "pass" for r in reports)


def test_range_sweep_stops_at_first_failure(monkeypatch):
    real = checks.delta_via_gcd
    monkeypatch.setattr(checks, "delta_via_gcd", lambda n: 1 if n in (7, 9) else real(n))
    (report,) = checks.delta(nmax=30)
    assert [c.params for c in report.cases] == [f"n={n}" for n in range(1, 8)]
    assert report.first_failure is report.cases[-1]
    assert report.scope == "two routes agree for n=1..30"


def _count_entries(monkeypatch) -> list[list[int]]:
    # per call, the reduced odd parts b* at which powers enters the d route
    calls = []
    real = checks._odd_degrees

    def counted(bs):
        calls.append(list(bs))
        return real(calls[-1])

    monkeypatch.setattr(checks, "_odd_degrees", counted)
    return calls


def test_powers_skips_bases_above_the_degree_cap(monkeypatch):
    # a base a > degree_cap has no case for any k, so its d(a - 1) is never computed
    calls = _count_entries(monkeypatch)
    wide = checks.powers(amax=401, degree_cap=9)
    # one call, for distinct reduced odd parts, each below the cap
    (entered,) = calls
    assert entered and len(entered) == len(set(entered))
    assert max(entered) <= 9
    assert wide == checks.powers(amax=9, degree_cap=9)


def test_powers_computes_one_d_per_reduced_odd_part(monkeypatch):
    # d(a^k - 1) = d(b* - 1) for b* = _reduce_odd_part(a^k), so the 88 cases
    # under the benchmark's cap read 20 values of d, each at a fixed point
    calls = _count_entries(monkeypatch)
    reports = checks.powers(degree_cap=100_000)
    assert len(reports[0].cases) == 88
    (entered,) = calls
    assert len(entered) == len(set(entered)) == 20
    assert all(nullity._reduce_odd_part(b) == b for b in entered)
    reference = Path(__file__).parent.parent / "perfbench" / "reference" / "powers.txt"
    with open(reference, encoding="ascii", newline="") as fh:
        assert "".join(map(to_text, reports)) == fh.read()
    # 57^2 = 3249 reduces to 171, not to rad(57^2) = 57, so the case still fails
    (report,) = checks.powers(amax=57, degree_cap=3249)
    case = next(c for c in report.cases if c.params == "a=57;k=2;n=3248")
    assert (case.expected, case.computed, case.verdict) == (0, 36, "fail")


def test_powers_trial_divides_only_bases_and_p_minus_1(monkeypatch):
    # b*(a^k) = gcd(a^k, C) with C from a's primes and their caps, so the
    # sweep itself trial-divides each base a and p - 1 for its primes p, all
    # <= amax; the d route from b* trial-divides only b* - 1, for ord_b*(2),
    # never b* itself nor an a^k above amax (those below it are bases
    # themselves, as 9 = 3^2)
    real_factor, real_entry = nullity._factor, checks._odd_degrees
    seen = {"sweep": [], "d": []}
    where = ["sweep"]
    reduced = []

    def factor(m):
        seen[where[-1]].append(m)
        return real_factor(m)

    def entry(bs):
        reduced.extend(bs)
        where.append("d")
        try:
            return real_entry(reduced)
        finally:
            where.pop()

    monkeypatch.setattr(nullity, "_factor", factor)
    monkeypatch.setattr(checks, "_factor", factor)
    monkeypatch.setattr(checks, "_odd_degrees", entry)
    checks.powers(degree_cap=100_000)
    bases = [a for a in range(3, 52, 2) if a % 21]
    odd_primes = [p for p in range(3, 52, 2) if all(p % q for q in range(3, p, 2))]
    p_minus_1 = {p - 1 for a in bases for p in odd_primes if a % p == 0}
    assert set(seen["sweep"]) == set(bases) | p_minus_1
    assert max(seen["sweep"]) <= 51
    higher_powers = {a**k for a in bases for k in range(2, 18) if 51 < a**k <= 100_000}
    assert seen["d"] and not higher_powers & set(seen["sweep"] + seen["d"])
    # no b* is factored by the d route, nor anywhere unless it is a base
    assert len(reduced) == 20 and not set(reduced) & set(seen["d"])
    assert not (set(reduced) - set(bases)) & set(seen["sweep"])


def test_delta_runs_no_euclid(monkeypatch):
    # delta_via_gcd reads delta off y-adic valuations, never off a GCD
    def refuse(a, b):
        raise AssertionError("delta ran a Euclid")

    monkeypatch.setattr(nullity, "_gcd_bits", refuse)
    (report,) = checks.delta(nmax=200)
    assert report.overall == "pass"
    assert [delta_via_gcd(n) for n in (3247, 3248, 3249)] == [0, 2, 0]


@pytest.mark.slow
def test_mutation_matrix_verify_column():
    # tests/mutants.py on two mutants, `verify all` only, against the committed
    # matrix: recurrence catches the _valuation_delta mutant, and no sweep
    # reaches _subst_bits.  `python tests/mutants.py --check` runs every mutant
    # and Tier-1 too, about 8.5 minutes
    script = Path(__file__).parent / "mutants.py"
    argv = [sys.executable, str(script), "--check", "--verify-only", "valuation-3000", "subst-3000"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
