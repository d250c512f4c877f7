"""End-to-end acceptance checklist.

One test per criterion, ordered, each finishing with a single PASS line so
`pytest tests/test_acceptance.py -s` reads as a checklist.  Every
comparison is exact (integers and exact polynomials); the two criteria
with wall-clock budgets assert them directly.
"""

from __future__ import annotations

import resource
import time
from math import comb
from pathlib import Path

from fibgrid import (
    LightState,
    d_of_n,
    fib_binomial,
    fib_hmp,
    fib_sequence,
    render,
    to_pbm,
    to_text,
)
from fibgrid.checks import all2, delta, hmp_gcd, oracle, ore, powers, recurrence
from fibgrid.cli import main

DATA = Path(__file__).parent / "data"


def _passes(report):
    """Assert a range sweep passed every case it was given, and report nothing else."""
    assert report.first_failure is None, to_text(report)
    return len(report.cases)


def test_c01_gcd_route_matches_elimination_to_64():
    start = time.perf_counter()
    (report,) = oracle(nmax=64)
    assert _passes(report) == 64
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\ncriterion 1: PASS gcd nullity equals elimination nullity, n=1..64 ({elapsed:.1f}s)")


def test_c02_doubling_identities_to_5000():
    start = time.perf_counter()
    double_d, double_delta, quad_d, delta_range = recurrence(nmax=5000)
    elapsed = time.perf_counter() - start
    assert _passes(double_d) == _passes(double_delta) == 5000
    assert _passes(quad_d) == 2500
    assert _passes(delta_range) >= 5000
    assert elapsed < 300.0
    print(
        "criterion 2: PASS d(2n+1)=2d(n)+delta, delta(2n+1)=delta(n), "
        f"delta in {{0,2}} for n<=5000; d(4n+3)=4d(n)+3delta for n<=2500 ({elapsed:.1f}s)"
    )


def test_c03_delta_routes_agree_to_2000():
    (report,) = delta(nmax=2000)
    assert _passes(report) == 2000
    print("criterion 3: PASS delta gcd form equals closed form, n=1..2000")


def test_c04_power_of_two_sides_are_invertible():
    for k in range(1, 14):
        n = (1 << k) - 1
        assert d_of_n(n) == 0, f"k={k}"
    print("criterion 4: PASS d(2^k - 1) = 0 for k=1..13")


def test_c05_all2_conjecture_through_k8():
    (report,) = all2(kmax=8)
    assert report.overall == "pass"
    assert len(report.cases) == 8
    text = to_text(report)
    assert "verified for the tested range" in text
    assert "proven" not in text
    print("criterion 5: PASS d(2*3^k - 1) = 2 for k=1..8 (reported as range-verified)")


def test_c06_power_conjecture_under_degree_cap():
    (report,) = powers(amax=51, kmax=32, degree_cap=200_000)
    assert report.overall == "pass"
    params = [c.params for c in report.cases]
    assert "a=3;k=11;n=177146" in params  # largest base-3 case under the cap
    assert not any(p.startswith("a=21;") for p in params)
    print(
        f"criterion 6: PASS d(a^k - 1) = d(a - 1) on {len(report.cases)} cases, "
        "odd a <= 51, 21 excluded, a^k <= 2e5"
    )


def test_c07_family_gcd_law_random_pairs():
    (report,) = hmp_gcd(nmax=2000, trials=1000, seed=7)
    assert _passes(report) == 1000
    print("criterion 7: PASS gcd(f_m, f_n) = f_gcd(m,n) on 1000 random pairs, m,n <= 2000")


def test_c08_factored_gcd_random_quartets():
    (report,) = ore(trials=10_000, seed=8)
    assert _passes(report) == 10_000
    print("criterion 8: PASS factored gcd equals direct gcd on 10000 quartets, deg <= 256")


def test_c09_three_routes_agree_to_4096():
    for n, f in enumerate(fib_sequence(4096)):
        assert fib_binomial(n) == f, f"n={n}"
        if n >= 1:
            assert fib_hmp(n) == f, f"n={n}"
    print("criterion 9: PASS recursive, binomial, ladder routes agree for n=0..4096")


def test_c10_board_facts(grid_cache):
    # the all-on board is solvable at every side length up to 64
    for n in range(1, 65):
        assert grid_cache(n).solve(LightState.all_on(n)) is not None, f"n={n}"
    # exhaustive enumeration for n <= 4: pressing all subsets reaches exactly
    # 2^(N-d) states, each via exactly 2^d press patterns, matching solve()
    for n in range(1, 5):
        s = grid_cache(n)
        size = n * n
        d = s.nullity()
        counts: dict[int, int] = {0: 1}
        board = 0
        for i in range(1, 1 << size):
            board ^= s.row_bits((i & -i).bit_length() - 1)
            counts[board] = counts.get(board, 0) + 1
        assert len(counts) == 1 << (size - d)
        assert set(counts.values()) == {1 << d}
        for bits in range(1 << size):
            state = LightState(n, bits)
            pattern = s.solve(state)
            assert (pattern is not None) == (bits in counts)
            if pattern is not None:
                assert s.apply(pattern) == state
                assert s.count_solutions(state) == 1 << d
    print("criterion 10: PASS all-on solvable n<=64; exhaustive state census matches n<=4")


def test_c11_raster_against_binomial_parity():
    raster = render(128)
    for n in range(1, 129):
        row = raster.rows[n - 1]
        for i in range(128):
            assert row >> i & 1 == comb(n + i, 2 * i + 1) % 2, f"n={n}, i={i}"
    golden = (DATA / "sierpinski_128.pbm").read_text()
    assert to_pbm(raster) == golden
    print("criterion 11: PASS 128x128 raster matches comb parity and the golden PBM")


def test_c12_table_10000_speed_and_memory(tmp_path):
    out = tmp_path / "table.csv"
    start = time.perf_counter()
    code = main(["table", "10000", "-o", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 60.0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kib < 1024 * 1024
    lines = out.read_text().splitlines()
    assert len(lines) == 10_001
    assert lines[0] == "n,d,delta"
    assert lines[5] == "5,2,2"
    assert lines[10_000].startswith("10000,")
    print(
        f"criterion 12: PASS table 10000 in {elapsed:.1f}s "
        f"(budget 60s), peak RSS {peak_kib / 1024:.0f} MiB (budget 1024)"
    )
