"""Command-line behavior: outputs, formats, and the exit-status discipline."""

from __future__ import annotations

import math
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fibgrid
from fibgrid import GridSystem, LightState, PolyGF2, checks, cli, fib_hmp, gcd, render, to_pbm
from fibgrid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- fib ------------------------------------------------------------------------


def test_fib_text(capsys):
    assert run(capsys, "fib", "6") == (0, "x^5 + x\n", "")
    assert run(capsys, "fib", "0") == (0, "0\n", "")
    assert run(capsys, "fib", "1") == (0, "1\n", "")


def test_fib_methods_agree(capsys):
    assert run(capsys, "fib", "12", "--all-methods") == (0, "x^11 + x^3\n", "")
    assert run(capsys, "fib", "0", "--all-methods") == (0, "0\n", "")


def test_fib_methods_disagree(capsys, monkeypatch):
    monkeypatch.setattr(cli, "fib_binomial", lambda n: PolyGF2(1))
    assert run(capsys, "fib", "6", "--all-methods") == (
        1,
        "",
        "fib: methods disagree for n=6: recursive: x^5 + x, binomial: 1, hmp: x^5 + x\n",
    )


def test_fib_method_option_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        main(["fib", "6", "--method", "hmp"])
    assert err.value.code == 2
    assert "unrecognized arguments: --method hmp" in capsys.readouterr().err


def test_fib_hex(capsys):
    assert run(capsys, "fib", "6", "--format", "hex") == (0, "22\n", "")
    assert run(capsys, "fib", "0", "--format", "hex") == (0, "\n", "")


def test_fib_bad_index():
    for argv in (["fib"], ["verify", "ore", "--trials", "1", "--seed"]):
        for bad in ("abc", "-3", "0x10", "1.5", "\u0663", " 3", "1_0"):
            with pytest.raises(SystemExit) as err:
                main([*argv, bad])
            assert err.value.code == 2


# -- d and table ------------------------------------------------------------------


def test_d_lines(capsys):
    assert run(capsys, "d", "5") == (0, "n=5 d=2 delta=2\n", "")
    assert run(capsys, "d", "7") == (0, "n=7 d=0 delta=0\n", "")
    assert run(capsys, "d", "4") == (0, "n=4 d=4 delta=0\n", "")


def test_d_rejects_zero():
    with pytest.raises(SystemExit) as err:
        main(["d", "0"])
    assert err.value.code == 2


def test_table_stdout(capsys):
    code, out, err = run(capsys, "table", "5")
    assert code == 0
    assert out == "n,d,delta\n1,0,0\n2,0,2\n3,0,0\n4,4,0\n5,2,2\n"
    assert run(capsys, "table", "1") == (0, "n,d,delta\n1,0,0\n", "")


def test_table_file_and_determinism(tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert run(capsys, "table", "40", "-o", str(target))[0] == 0
    first = target.read_bytes()
    assert run(capsys, "table", "40", "-o", str(target))[0] == 0
    assert target.read_bytes() == first
    assert first.decode().splitlines()[0] == "n,d,delta"
    assert len(first.decode().splitlines()) == 41


def test_table_write_failure(capsys):
    code, out, err = run(capsys, "table", "3", "-o", "/nonexistent-dir/x.csv")
    assert code == 1
    assert "cannot write" in err


# -- verify -----------------------------------------------------------------------

ALL2_K2 = """\
== all2 ==
  k=1;n=5   expected=2    computed=2    pass
  k=2;n=17  expected=2    computed=2    pass
result: pass, verified for the tested range (2 cases)
"""

POWERS_A9_K2 = """\
== powers ==
  a=3;k=1;n=2   expected=0    computed=0    pass
  a=3;k=2;n=8   expected=0    computed=0    pass
  a=5;k=1;n=4   expected=4    computed=4    pass
  a=5;k=2;n=24  expected=4    computed=4    pass
  a=7;k=1;n=6   expected=0    computed=0    pass
  a=7;k=2;n=48  expected=0    computed=0    pass
  a=9;k=1;n=8   expected=0    computed=0    pass
  a=9;k=2;n=80  expected=0    computed=0    pass
result: pass, verified for the tested range (8 cases)
"""

EQUIVALENCE_K2 = """\
== equivalence ==
  k=1;part=link   expected=2    computed=2    pass
  k=1;part=delta  expected=2    computed=2    pass
  k=2;part=link   expected=2    computed=2    pass
  k=2;part=delta  expected=2    computed=2    pass
result: pass, verified for the tested range (4 cases)
"""

# exact stdout of each sweep at the bounds test_verify_sweeps_pass passes
VERIFY_GOLDEN = {
    "recurrence": (
        "recurrence double-d: ok (60 checked)\n"
        "recurrence double-delta: ok (60 checked)\n"
        "recurrence quad-d: ok (30 checked)\n"
        "recurrence delta-range: ok (92 checked)\n"
    ),
    "delta": "delta: ok (two routes agree for n=1..60)\n",
    "hmp-gcd": "hmp-gcd: ok (25 random pairs <= 200, seed 1)\n",
    "ore": "ore: ok (25 random quartets, degrees <= 256, seed 1)\n",
    "oracle": "oracle: ok (gcd route matches elimination for n=1..8)\n",
    "all2": ALL2_K2,
    "powers": POWERS_A9_K2,
    "equivalence": EQUIVALENCE_K2,
}

VERIFY_ALL_GOLDEN = (
    "recurrence double-d: ok (30 checked)\n"
    "recurrence double-delta: ok (30 checked)\n"
    "recurrence quad-d: ok (15 checked)\n"
    "recurrence delta-range: ok (47 checked)\n"
    "delta: ok (two routes agree for n=1..30)\n"
    "hmp-gcd: ok (20 random pairs <= 30, seed 1)\n"
    "ore: ok (20 random quartets, degrees <= 256, seed 1)\n"
    "oracle: ok (gcd route matches elimination for n=1..30)\n"
    + ALL2_K2
    + POWERS_A9_K2
    + EQUIVALENCE_K2
    + "verify: all checks passed\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "recurrence", "--nmax", "60"),
        ("verify", "delta", "--nmax", "60"),
        ("verify", "hmp-gcd", "--trials", "25", "--nmax", "200"),
        ("verify", "ore", "--trials", "25"),
        ("verify", "oracle", "--nmax", "8"),
        ("verify", "all2", "--kmax", "2"),
        ("verify", "powers", "--amax", "9", "--kmax", "2"),
        ("verify", "equivalence", "--kmax", "2"),
    ],
)
def test_verify_sweeps_pass(capsys, argv):
    assert run(capsys, *argv) == (0, VERIFY_GOLDEN[argv[1]], "")


def test_verify_all(capsys):
    code, out, err = run(
        capsys,
        "verify",
        "all",
        "--nmax",
        "30",
        "--trials",
        "20",
        "--kmax",
        "2",
        "--amax",
        "9",
    )
    assert code == 0
    assert out == VERIFY_ALL_GOLDEN


def test_verify_seed_changes_draws_not_verdict(capsys):
    a = run(capsys, "verify", "ore", "--trials", "10", "--seed", "1")
    b = run(capsys, "verify", "ore", "--trials", "10", "--seed", "2")
    assert a[0] == 0 and b[0] == 0
    assert "seed 1" in a[1] and "seed 2" in b[1]


def test_verify_unknown_name():
    with pytest.raises(SystemExit) as err:
        main(["verify", "nonsense"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "name,flag,message",
    [
        ("recurrence", "--kmax", "--kmax does not apply; it takes --nmax"),
        ("delta", "--kmax", "--kmax does not apply; it takes --nmax"),
        ("hmp-gcd", "--amax", "--amax does not apply; it takes --nmax, --trials, --seed"),
        ("ore", "--nmax", "--nmax does not apply; it takes --trials, --seed"),
        ("oracle", "--trials", "--trials does not apply; it takes --nmax"),
        ("all2", "--seed", "--seed does not apply; it takes --kmax"),
        ("powers", "--nmax", "--nmax does not apply; it takes --amax, --kmax, --degree-cap"),
        ("equivalence", "--degree-cap", "--degree-cap does not apply; it takes --kmax"),
    ],
)
def test_verify_refuses_a_flag_the_sweep_does_not_take(capsys, monkeypatch, name, flag, message):
    # refused before any work starts, like a size above the limits
    monkeypatch.setitem(cli.SWEEPS, name, None)
    argv = ("verify", name, flag, "3")
    assert run(capsys, *argv) == (2, "", f"verify {name}: {message}\n")


# Failure paths: one route is made wrong at a known index, and the sweep must
# exit 1 naming that index, so that none of them can pass vacuously.


def _wrong_at(monkeypatch, name, n_bad, wrong):
    """Make checks.<name>(n) return wrong(true value) at n == n_bad."""
    real = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda n: wrong(real(n)) if n == n_bad else real(n))


def _wrong_on_call(monkeypatch, name, k):
    """Multiply the k-th result of checks.<name> by x."""
    real = getattr(checks, name)
    calls = []

    def patched(*args):
        calls.append(args)
        got = real(*args)
        return got << 1 if len(calls) == k else got

    monkeypatch.setattr(checks, name, patched)


def test_verify_recurrence_failure(capsys, monkeypatch):
    # d_10 = d_21 = d_43 = 0 and delta_10 = delta_21 = 0; delta_10 becomes 1
    _wrong_at(monkeypatch, "_d_and_delta", 10, lambda v: (v[0], 1))
    assert run(capsys, "verify", "recurrence", "--nmax", "30") == (
        1,
        "recurrence double-d: FAIL at n=10, expected 1, got 0\n"
        "recurrence double-delta: FAIL at n=10, expected 1, got 0\n"
        "recurrence quad-d: FAIL at n=10, expected 3, got 0\n"
        "recurrence delta-range: FAIL at n=10, expected 0, got 1\n",
        "",
    )


def test_verify_delta_failure(capsys, monkeypatch):
    _wrong_at(monkeypatch, "delta_via_gcd", 7, lambda v: 2 - v)
    assert run(capsys, "verify", "delta", "--nmax", "30") == (
        1,
        "delta: FAIL at n=7, expected 0, got 2\n",
        "",
    )


def test_verify_oracle_failure(capsys, monkeypatch):
    _wrong_at(monkeypatch, "d_of_n", 5, lambda v: v + 2)
    assert run(capsys, "verify", "oracle", "--nmax", "8") == (
        1,
        "oracle: FAIL at n=5, expected 2, got 4\n",
        "",
    )


def test_verify_hmp_gcd_failure(capsys, monkeypatch):
    rng = random.Random(1)
    pairs = [(rng.randint(1, 200), rng.randint(1, 200)) for _ in range(4)]
    m, n = pairs[3]
    want = fib_hmp(math.gcd(m, n))
    _wrong_on_call(monkeypatch, "gcd", 4)
    assert run(capsys, "verify", "hmp-gcd", "--trials", "25", "--nmax", "200") == (
        1,
        f"hmp-gcd: FAIL at m={m};n={n}, expected {want.to_hex()}, got {(want << 1).to_hex()}\n",
        "",
    )


def test_verify_ore_failure(capsys, monkeypatch):
    rng = random.Random(1)

    def poly():
        d = rng.randint(0, 256)
        return PolyGF2(rng.getrandbits(d) | (1 << d))

    quartets = [(poly(), poly(), poly(), poly()) for _ in range(4)]
    a, b, c, d = quartets[3]
    want = gcd(a * b, c * d)
    _wrong_on_call(monkeypatch, "ore_product_gcd", 4)
    params = f"a={a.to_hex()};b={b.to_hex()};c={c.to_hex()};d={d.to_hex()}"
    assert run(capsys, "verify", "ore", "--trials", "25") == (
        1,
        f"ore: FAIL at {params}, expected {want.to_hex()}, got {(want << 1).to_hex()}\n",
        "",
    )


def test_verify_all_failure(capsys, monkeypatch):
    # d_17 = 2 is used by the oracle sweep and by the all2 check
    _wrong_at(monkeypatch, "d_of_n", 17, lambda v: v + 2)
    code, out, err = run(
        capsys, "verify", "all", "--nmax", "30", "--trials", "5", "--kmax", "2", "--amax", "9"
    )
    assert code == 1
    assert "oracle: FAIL at n=17, expected 2, got 4\n" in out
    assert "  k=2;n=17  expected=2    computed=4    fail\n" in out
    assert "result: partial (1 of 2 cases failed)\n" in out
    assert out.endswith("verify: FAILURES above\n")


# -- solve ------------------------------------------------------------------------


def test_solve_all_ones_1x1(capsys):
    assert run(capsys, "solve", "1", "--all-ones") == (0, "1\n1\n", "")


def test_solve_verifies_on_a_bigger_board(capsys):
    code, out, err = run(capsys, "solve", "5", "--all-ones")
    assert code == 0
    pattern = LightState.from_text(out)
    assert GridSystem(5).apply(pattern) == LightState.all_on(5)


def test_solve_state_file(tmp_path, capsys):
    board = tmp_path / "board.txt"
    board.write_text(LightState.all_off(3).to_text())
    assert run(capsys, "solve", "3", "--state", str(board)) == (0, "3\n000\n000\n000\n", "")


def test_solve_unsolvable(tmp_path, capsys):
    s = GridSystem(4)
    k = s.kernel_basis()[0]
    board = tmp_path / "board.txt"
    board.write_text(LightState(4, k.bits & -k.bits).to_text())
    code, out, err = run(capsys, "solve", "4", "--state", str(board))
    assert code == 1
    assert out == "unsolvable\n"


def test_solve_malformed_state(tmp_path, capsys):
    board = tmp_path / "board.txt"
    board.write_text("2\n11\n12\n")
    code, out, err = run(capsys, "solve", "2", "--state", str(board))
    assert code == 2
    assert "line 3, column 2" in err


def test_solve_non_ascii_state(tmp_path, capsys):
    board = tmp_path / "board.txt"
    board.write_bytes(b"1\n\xff\n")
    code, out, err = run(capsys, "solve", "1", "--state", str(board))
    assert code == 2
    assert "line 2, column 1" in err


def test_solve_form_feed_is_not_a_line_end(tmp_path, capsys):
    board = tmp_path / "board.txt"
    board.write_bytes(b"2\n01\x0c10\n")
    code, out, err = run(capsys, "solve", "2", "--state", str(board))
    assert (code, out) == (2, "")
    assert "line 2, column 3" in err


def test_solve_side_mismatch(tmp_path, capsys):
    board = tmp_path / "board.txt"
    board.write_text(LightState.all_on(3).to_text())
    code, out, err = run(capsys, "solve", "4", "--state", str(board))
    assert code == 2
    assert "side-3" in err
    # a larger board is longer than any side-2 board, and is still named by its
    # side, with LF or with CR line ends
    for end in "\n", "\r":
        board.write_bytes(LightState.all_on(5).to_text().replace("\n", end).encode())
        assert run(capsys, "solve", "2", "--state", str(board)) == (
            2,
            "",
            f"solve: {board} is a side-5 board, expected side 2\n",
        )


@pytest.mark.parametrize(
    "content",
    [
        "0" * 20 + "12\n",  # side 12, but its line does not end within the 12 characters read
        "\n" + "1" * 20,  # no valid side length
        "x\n" + "1" * 20,
        "0\n" + "1" * 20,
    ],
)
def test_solve_past_the_cap_names_only_a_whole_valid_side(tmp_path, capsys, content):
    board = tmp_path / "board.txt"
    board.write_text(content)
    code, out, err = run(capsys, "solve", "2", "--state", str(board))
    assert (code, out) == (2, "")
    assert err.endswith("file exceeds 11 characters, the most a side-2 board needs\n")


def test_solve_missing_file(capsys):
    code, out, err = run(capsys, "solve", "3", "--state", "/no/such/board.txt")
    assert code == 1
    assert "cannot read" in err


def _crlf_board(n):
    """The longest canonical board file of side n: to_text with CRLF line ends."""
    return LightState.all_on(n).to_text().replace("\n", "\r\n").encode()


@pytest.mark.parametrize("n", [1, 3, 12])
def test_solve_reads_at_most_the_longest_board_of_its_side(tmp_path, capsys, n):
    board = tmp_path / "board.txt"
    board.write_bytes(_crlf_board(n))
    assert run(capsys, "solve", str(n), "--state", str(board))[0] == 0  # d_n = 0: solvable
    # one character more is refused at that character, past the last row
    cap = len(_crlf_board(n))
    lf = LightState.all_on(n).to_text().encode()
    board.write_bytes(lf + b" " * (cap + 1 - len(lf)))
    assert run(capsys, "solve", str(n), "--state", str(board)) == (
        2,
        "",
        f"solve: {board}: line {n + 2}, column {cap + 1 - len(lf)}: "
        f"file exceeds {cap} characters, the most a side-{n} board needs\n",
    )


def test_solve_refuses_a_long_tail_of_blank_lines(tmp_path, capsys):
    board = tmp_path / "board.txt"
    for end in b"\n", b"\r":  # text mode reads a lone CR as a line end
        board.write_bytes(b"1" + end + b"1" + end + end * 3_000_000)
        code, out, err = run(capsys, "solve", "1", "--state", str(board))
        assert (code, out) == (2, "")
        assert err == (
            f"solve: {board}: line 5, column 1: "
            "file exceeds 6 characters, the most a side-1 board needs\n"
        )


def test_solve_requires_exactly_one_source():
    with pytest.raises(SystemExit) as err:
        main(["solve", "3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["solve", "3", "--all-ones", "--state", "x.txt"])
    assert err.value.code == 2


# -- sierpinski and oracle ----------------------------------------------------------


def test_sierpinski_stdout(capsys):
    code, out, err = run(capsys, "sierpinski", "4")
    assert code == 0
    assert out == "P1\n4 4\n1 0 0 0\n0 1 0 0\n1 0 1 0\n0 0 0 1\n"


def test_sierpinski_ascii(capsys):
    assert run(capsys, "sierpinski", "1", "--ascii") == (0, "#\n", "")
    code, out, err = run(capsys, "sierpinski", "8", "--ascii")
    assert out.splitlines()[5] == ".#...#.."


def test_sierpinski_pbm_file(tmp_path, capsys):
    target = tmp_path / "gasket.pbm"
    assert run(capsys, "sierpinski", "16", "--pbm", str(target))[0] == 0
    assert target.read_text() == to_pbm(render(16))


def test_sierpinski_format_flags_conflict():
    with pytest.raises(SystemExit) as err:
        main(["sierpinski", "8", "--pbm", "x.pbm", "--ascii"])
    assert err.value.code == 2


def test_sierpinski_write_failure(capsys):
    code, out, err = run(capsys, "sierpinski", "4", "--pbm", "/nonexistent-dir/x.pbm")
    assert code == 1
    assert "cannot write" in err


def test_oracle_line(capsys):
    assert run(capsys, "oracle", "5") == (0, "n=5 nullity=2\n", "")
    assert run(capsys, "oracle", "1") == (0, "n=1 nullity=0\n", "")


# -- size limits -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,message",
    [
        (("d", "2000001"), "d: n must be <= 2000000, got 2000001\n"),
        (("solve", "2001", "--all-ones"), "solve: n must be <= 2000, got 2001\n"),
        (("solve", "2001", "--state", "/nonexistent"), "solve: n must be <= 2000, got 2001\n"),
        (("oracle", "2001"), "oracle: n must be <= 2000, got 2001\n"),
        (("oracle", "9" * 30), f"oracle: n must be <= 2000, got {'9' * 30}\n"),
        (("sierpinski", "4097"), "sierpinski: rows must be <= 4096, got 4097\n"),
        (("fib", "1000001"), "fib: n must be <= 1000000, got 1000001\n"),
        (("fib", "1000001", "--all-methods"), "fib: n must be <= 1000000, got 1000001\n"),
        (("table", "30001"), "table: n_max must be <= 30000, got 30001\n"),
        (("table", "30001", "-o", "/nonexistent/t.csv"), "table: n_max must be <= 30000, got 30001\n"),
        (
            ("verify", "hmp-gcd", "--nmax", "1000000000000000", "--trials", "1"),
            "verify hmp-gcd: nmax must be <= 1000000, got 1000000000000000\n",
        ),
        (("verify", "oracle", "--nmax", "2001"), "verify oracle: nmax must be <= 2000, got 2001\n"),
        (("verify", "all2", "--kmax", "13"), "verify all2: kmax must be <= 12, got 13\n"),
        (
            ("verify", "equivalence", "--kmax", "13"),
            "verify equivalence: kmax must be <= 12, got 13\n",
        ),
        (
            ("verify", "powers", "--degree-cap", "2000001"),
            "verify powers: degree_cap must be <= 2000000, got 2000001\n",
        ),
        (
            ("verify", "recurrence", "--nmax", "15000"),
            "verify recurrence: nmax must be <= 14999, got 15000\n",
        ),
        (("verify", "delta", "--nmax", "30001"), "verify delta: nmax must be <= 30000, got 30001\n"),
        # verify all checks the sweeps it will run before the first one runs
        (("verify", "all", "--nmax", "2001"), "verify oracle: nmax must be <= 2000, got 2001\n"),
        (("verify", "all", "--kmax", "13"), "verify all2: kmax must be <= 12, got 13\n"),
        (("verify", "all", "--amax", "30002"), "verify powers: amax must be <= 30001, got 30002\n"),
        (
            ("verify", "powers", "--amax", "30002"),
            "verify powers: amax must be <= 30001, got 30002\n",
        ),
        (
            ("verify", "powers", "--amax", "2000001", "--degree-cap", "2000000"),
            "verify powers: amax must be <= 30001, got 2000001\n",
        ),
        (("verify", "ore", "--trials", "100001"), "verify ore: trials must be <= 100000, got 100001\n"),
        (
            ("verify", "hmp-gcd", "--trials", "100001"),
            "verify hmp-gcd: trials must be <= 100000, got 100001\n",
        ),
        (
            ("verify", "all", "--trials", "100001"),
            "verify hmp-gcd: trials must be <= 100000, got 100001\n",
        ),
    ],
)
def test_sizes_above_the_limit_are_refused(capsys, monkeypatch, argv, message):
    # refused before any work starts: the routes the commands call must not run
    def boom(*args, **kwargs):
        raise AssertionError("work started on a refused size")

    routes = ("GridSystem", "d_of_n", "render", "table", "fib_hmp", "fib_sequence", "fib_binomial")
    for name in routes:
        monkeypatch.setattr(cli, name, boom)
    for name in cli.SWEEPS:
        monkeypatch.setitem(cli.SWEEPS, name, boom)
    assert run(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize(
    "argv",
    [("d",), ("table",), ("verify", "all2", "--kmax"), ("verify", "hmp-gcd", "--seed")],
)
def test_over_long_decimals_are_refused_without_echo(capsys, argv):
    # int() refuses more than 4300 digits; argparse must not echo all 5000.
    # After argparse's usage lines comes one error line.
    with pytest.raises(SystemExit) as err:
        main([*argv, "9" * 5000])
    assert err.value.code == 2
    *usage, error = capsys.readouterr().err.splitlines()
    assert error.endswith(": has 5000 characters, at most 4300 accepted")
    assert usage[0].startswith("usage: ") and not any("error" in line for line in usage)
    assert len(error) < 200 and all(len(line) < 200 for line in usage)


def test_a_4300_digit_seed_still_runs(capsys):
    code, out, err = run(capsys, "verify", "hmp-gcd", "--trials", "1", "--seed", "7" * 4300)
    assert (code, err) == (0, "") and out.startswith("hmp-gcd: ok (1 random pairs")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "all"),
        ("verify", "all2", "--kmax", "12"),
        ("verify", "powers", "--degree-cap", "1000000"),
        ("verify", "powers", "--degree-cap", "2000000"),
        ("verify", "equivalence", "--kmax", "12"),
        ("verify", "hmp-gcd", "--nmax", "1000000"),
        ("verify", "oracle", "--nmax", "2000"),
        ("verify", "recurrence", "--nmax", "14999"),
        ("verify", "delta", "--nmax", "30000"),
        ("verify", "powers", "--amax", "30001", "--degree-cap", "2000000"),
        ("verify", "all", "--amax", "30001"),
        ("verify", "ore", "--trials", "100000"),
        ("verify", "hmp-gcd", "--trials", "100000"),
        ("verify", "all", "--trials", "100000"),
    ],
)
def test_verify_bounds_at_the_limit_are_accepted(capsys, monkeypatch, argv):
    # defaults, the slow tier's all2 k = 12 and powers cap 1e6, and each limit itself
    for name in cli.SWEEPS:
        monkeypatch.setitem(cli.SWEEPS, name, lambda **bounds: [])
    assert run(capsys, *argv)[0] == 0


def test_readme_examples(capsys):
    # the README's first text block: "$ fibgrid ARGS" lines, each followed by its stdout
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ fibgrid "):
            examples.append((shlex.split(line)[2:], []))
        elif line:
            examples[-1][1].append(line + "\n")
    assert [argv[0] for argv, _ in examples] == ["fib", "d", "oracle", "table", "solve", "sierpinski"]
    for argv, out in examples:
        assert run(capsys, *argv) == (0, "".join(out), ""), argv


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fibgrid.cli", "fib", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "x^5 + x\n"


def _modules_after_cli_import() -> tuple[set[str], set[str]]:
    """(all loaded modules, modules added) after a cold `import fibgrid.cli`.

    -S keeps site from loading any of them first.
    """
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import fibgrid.cli\n"
        "print(' '.join(sorted(sys.modules)))\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    loaded, added = proc.stdout.split("\n")[:2]
    return set(loaded.split()), set(added.split())


def test_import_loads_no_dataclasses_inspect_or_typing():
    # which modules a cold `import fibgrid.cli` adds, not how long it takes
    _, added = _modules_after_cli_import()
    assert "fibgrid.cli" in added
    assert not added & {"dataclasses", "inspect", "typing"}


def test_import_loads_no_random():
    # only the seeded sweeps use random, and they import it when they run
    loaded, _ = _modules_after_cli_import()
    assert "fibgrid.cli" in loaded
    assert "random" not in loaded


def test_package_exports_resolve_once():
    # the package re-exports each module's __all__, so a name is listed once
    assert len(fibgrid.__all__) == len(set(fibgrid.__all__))
    assert [name for name in fibgrid.__all__ if not hasattr(fibgrid, name)] == []
    assert fibgrid.MAX_PARSE_DEGREE == 1 << 24
