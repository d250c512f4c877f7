"""The sweep registry: signatures, bound validation, and the range-sweep contract."""

from __future__ import annotations

import inspect

import pytest

from fibgrid import SWEEPS, checks, delta_via_gcd, nullity
from fibgrid.cli import build_parser

# each sweep's bounds, by keyword, with the defaults documented in the README
DEFAULTS = {
    "recurrence": {"nmax": 5000},
    "delta": {"nmax": 2000},
    "hmp-gcd": {"nmax": 2000, "trials": 1000, "seed": 1},
    "ore": {"trials": 10000, "seed": 1},
    "oracle": {"nmax": 64},
    "all2": {"kmax": 8},
    "powers": {"amax": 51, "kmax": 17, "degree_cap": 200_000},
    "equivalence": {"kmax": 8},
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
        ("ore", {"trials": 0}),
        ("oracle", {"nmax": 0}),
    ],
)
def test_empty_ranges_are_refused(name, bounds):
    with pytest.raises(ValueError):
        SWEEPS[name](**bounds)


def test_identity_sweeps_never_read_the_factored_route(monkeypatch):
    # d_of_n reduces its GCD with the identities these sweeps check, reduces
    # the odd part by _reduce_odd_part and skips Euclid where _gcd_is_trivial
    # says so; the sweeps' routes do none of these
    def refuse(n):
        raise AssertionError("identity sweep read d_of_n")

    def refuse_shortcut(b, primes):
        raise AssertionError("identity sweep read _gcd_is_trivial")

    def refuse_reduction(b):
        raise AssertionError("identity sweep read _reduce_odd_part")

    monkeypatch.setattr(checks, "d_of_n", refuse)
    monkeypatch.setattr(nullity, "_gcd_is_trivial", refuse_shortcut)
    with pytest.raises(AssertionError, match="_gcd_is_trivial"):
        nullity.d_of_n(8)
    monkeypatch.setattr(nullity, "_reduce_odd_part", refuse_reduction)
    with pytest.raises(AssertionError, match="_reduce_odd_part"):
        nullity.d_of_n(8)
    reports = [*checks.recurrence(nmax=40), *checks.delta(nmax=40), *checks.equivalence(kmax=3)]
    assert all(r.overall == "pass" for r in reports)


def test_range_sweep_stops_at_first_failure(monkeypatch):
    real = checks.delta_via_gcd
    monkeypatch.setattr(checks, "delta_via_gcd", lambda n: 1 if n in (7, 9) else real(n))
    (report,) = checks.delta(nmax=30)
    assert [c.params for c in report.cases] == [f"n={n}" for n in range(1, 8)]
    assert report.first_failure is report.cases[-1]
    assert report.scope == "two routes agree for n=1..30"


def test_powers_skips_bases_above_the_degree_cap(monkeypatch):
    # a base a > degree_cap has no case for any k, so its d(a - 1) is never computed
    calls = []
    real = checks.d_of_n

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(checks, "d_of_n", counted)
    wide = checks.powers(amax=401, degree_cap=9)
    # one call per distinct n, each n + 1 = a^k odd, so one GCD per odd part
    assert calls and len(calls) == len(set(calls))
    assert max(calls) + 1 <= 9
    assert wide == checks.powers(amax=9, degree_cap=9)


def test_delta_runs_no_euclid(monkeypatch):
    # delta_via_gcd reads delta off y-adic valuations, never off a GCD
    def refuse(a, b):
        raise AssertionError("delta ran a Euclid")

    monkeypatch.setattr(nullity, "_gcd_bits", refuse)
    (report,) = checks.delta(nmax=200)
    assert report.overall == "pass"
    assert [delta_via_gcd(n) for n in (3247, 3248, 3249)] == [0, 2, 0]
