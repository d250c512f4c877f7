"""Conjecture range checks: case generation, verdicts, and report rendering."""

from __future__ import annotations

import pytest

from fibgrid import SWEEPS, Case, PolyGF2, Report, to_text
from fibgrid.checks import all2, powers


def test_all2_small():
    (report,) = all2(kmax=3)
    assert report.name == "all2"
    assert report.overall == "pass"
    assert [c.params for c in report.cases] == ["k=1;n=5", "k=2;n=17", "k=3;n=53"]
    assert all(c.expected == 2 and c.computed == 2 for c in report.cases)


def test_powers_small():
    (report,) = powers(amax=9, kmax=3, degree_cap=1000)
    assert report.overall == "pass"
    params = [c.params for c in report.cases]
    assert "a=3;k=1;n=2" in params
    assert "a=5;k=2;n=24" in params  # d_24 = d_4 = 4
    case = next(c for c in report.cases if c.params == "a=5;k=2;n=24")
    assert case.expected == 4 and case.computed == 4


def test_powers_degree_cap_and_exclusions():
    (report,) = powers(amax=25, kmax=2, degree_cap=700)
    assert report.overall == "pass"
    bases = {c.params.split(";")[0] for c in report.cases}
    assert "a=21" not in bases  # 21 | a sits outside the conjecture
    assert "a=4" not in bases  # even bases never enter
    # cap: 25^2 = 625 fits in 700, 27 is over a_max anyway
    assert "a=25;k=2;n=624" in [c.params for c in report.cases]
    (capped,) = powers(amax=25, kmax=2, degree_cap=8)
    assert [c.params for c in capped.cases] == ["a=3;k=1;n=2", "a=5;k=1;n=4", "a=7;k=1;n=6"]


def test_all2_and_base_three_powers_co_occur():
    # d(2*3^k - 1) = 2 d(3^k - 1) + delta(3^k - 1) ties d(2*3^k - 1) = 2 to
    # d(3^k - 1) = d_2 = 0, so over a shared range the two checks must stand
    # or fall together
    k_max = 6
    (two,) = all2(kmax=k_max)
    (base_three,) = powers(amax=3, kmax=k_max)
    assert len(two.cases) == len(base_three.cases) == k_max
    assert (two.overall == "pass") == (base_three.overall == "pass")
    assert two.overall == "pass"


def test_reports_are_reproducible():
    assert all2(kmax=2) == all2(kmax=2)
    assert powers(amax=9, kmax=2) == powers(amax=9, kmax=2)


def test_overall_verdict_logic():
    ok = Case("k=1", 2, 2)
    bad = Case("k=2", 2, 4)
    assert ok.verdict == "pass"
    assert bad.verdict == "fail"
    assert Report("x", (ok, ok)).overall == "pass"
    assert Report("x", (ok, ok)).first_failure is None
    assert Report("x", (ok, bad)).overall == "partial"
    assert Report("x", (ok, bad, bad)).first_failure is bad
    assert Report("x", (bad, bad)).overall == "fail"


def test_table_rendering():
    good = to_text(all2(kmax=2)[0])
    assert "verified for the tested range" in good
    assert "k=2;n=17" in good
    mixed = to_text(Report("x", (Case("k=1", 2, 0),)))
    assert "1 of 1 cases failed" in mixed
    assert "verified" not in mixed
    # a polynomial value prints in hex, as on a FAIL line; an empty table keeps its result line
    poly = to_text(Report("x", (Case("n=1", 0, PolyGF2(3)),)))
    assert poly == (
        "== x ==\n  n=1  expected=0    computed=03   fail\nresult: fail (1 of 1 cases failed)\n"
    )
    empty = to_text(Report("x", ()))
    assert empty == "== x ==\nresult: pass, verified for the tested range (0 cases)\n"


def test_validation():
    with pytest.raises(ValueError):
        all2(kmax=0)
    with pytest.raises(ValueError):
        powers(amax=2, kmax=1)
    with pytest.raises(ValueError):
        powers(amax=9, kmax=0)
    with pytest.raises(ValueError):
        powers(amax=9, kmax=1, degree_cap=2)
    assert SWEEPS["powers"].__kwdefaults__["degree_cap"] == 200_000
