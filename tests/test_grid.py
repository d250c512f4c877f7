"""Toggle system: matrix shape, light chasing against elimination, solving, the state format."""

from __future__ import annotations

import random
import threading
import time
import tracemalloc

import pytest

from fibgrid import GridSystem, LightState, StateFormatError, d_of_n
from fibgrid.grid import _echelon
from reference_grid import EliminationGrid


def _expected_row(n: int, v: int) -> int:
    r, c = divmod(v, n)
    cells = {(r, c), (r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)}
    bits = 0
    for rr, cc in cells:
        if 0 <= rr < n and 0 <= cc < n:
            bits |= 1 << (rr * n + cc)
    return bits


def _row(s: GridSystem, v: int) -> int:
    """Matrix row for pressing cell v: the board one press of v leaves."""
    return s.apply(LightState(s.n, 1 << v)).bits


def test_matrix_rows():
    assert _row(GridSystem(1), 0) == 1
    s3 = GridSystem(3)
    weights = sorted(_row(s3, v).bit_count() for v in range(9))
    assert weights == [3, 3, 3, 3, 4, 4, 4, 4, 5]  # corners, edges, center
    for n in range(1, 7):
        s = GridSystem(n)
        for v in range(n * n):
            assert _row(s, v) == _expected_row(n, v)


def test_matrix_is_symmetric():
    for n in range(1, 7):
        s = GridSystem(n)
        for u in range(n * n):
            for v in range(n * n):
                assert _row(s, u) >> v & 1 == _row(s, v) >> u & 1


def test_residue_matrix_is_symmetric_and_zero_rows_span_its_kernel():
    # The solver rests on M = f_{n+1}(B) being symmetric: a combination of
    # M's rows that sums to zero is then a kernel vector of M.  Column j of M
    # is the residue left by pressing last-row cell j on an empty board.
    for n in range(1, 65):
        s = GridSystem(n)
        zeros = [0] * n
        cols = [s._chase(1 << j, zeros)[-1] for j in range(n)]
        rows = [sum((c >> i & 1) << j for j, c in enumerate(cols)) for i in range(n)]
        assert rows == cols, f"n={n}"
        _, null = _echelon(rows, n)
        assert len(null) == s.nullity(), f"n={n}"
        for first in null:
            assert first != 0
            assert s._chase(first, zeros)[-1] == 0, f"n={n}"


def test_chase_matches_elimination_reference():
    # Same nullity, same kernel basis bit for bit, and the same canonical
    # answers (free cells never pressed) as N x N elimination on A + I.
    for n in [*range(1, 41), 56, 64]:
        s = GridSystem(n)
        ref = EliminationGrid(n)
        assert s.nullity() == ref.nullity(), f"n={n}"
        assert [k.bits for k in s.kernel_basis()] == ref.kernel_basis(), f"n={n}"
        rng = random.Random(f"chase-{n}")
        boards = [(1 << n * n) - 1]
        for _ in range(3):
            boards.append(ref.apply(rng.getrandbits(n * n)))  # solvable
            boards.append(rng.getrandbits(n * n))  # uniform
        for bits in boards:
            got = s.solve(LightState(n, bits))
            assert (None if got is None else got.bits) == ref.solve(bits), f"n={n}"


def test_high_nullity_kernel_and_solve_at_side_319():
    # nullity 256, past the elimination reference's reach: each basis vector
    # clears the board, and its last row holds one free cell, its own
    n = 319
    s = GridSystem(n)
    assert s.nullity() == d_of_n(n) == 256
    basis = s.kernel_basis()
    low = n * (n - 1)  # bit of the last row's first cell
    free = [(k.bits >> low).bit_length() - 1 for k in basis]
    for k, p in zip(basis, free):
        assert s.apply(k) == LightState(n)
        assert [q for q in free if k.bits >> (low + q) & 1] == [p]
    rng = random.Random(319)
    for board in LightState.all_on(n), s.apply(LightState(n, rng.getrandbits(n * n))):
        presses = s.solve(board)
        assert presses is not None and s.apply(presses) == board
        assert not any(presses.bits >> (low + p) & 1 for p in free)
    board = LightState(n, rng.getrandbits(n * n))
    assert s.solve(board) is None
    assert any((k.bits & board.bits).bit_count() % 2 for k in basis)


def test_kernel_basis(grid_cache):
    assert grid_cache(1).nullity() == 0
    assert grid_cache(4).nullity() == 4
    assert grid_cache(5).nullity() == 2
    for n in range(1, 13):
        s = grid_cache(n)
        basis = s.kernel_basis()
        assert len(basis) == s.nullity()
        seen = set()
        for k in basis:
            assert k.bits != 0
            assert k.bits not in seen
            seen.add(k.bits)
            assert s.apply(k) == LightState(n)


def test_solve_all_off_presses_nothing(grid_cache):
    for n in (1, 3, 4, 7):
        assert grid_cache(n).solve(LightState(n)) == LightState(n)


def test_solve_all_on_and_verify(grid_cache):
    for n in range(1, 13):
        s = grid_cache(n)
        pattern = s.solve(LightState.all_on(n))
        assert pattern is not None
        assert s.apply(pattern) == LightState.all_on(n)


def test_solve_one_by_one():
    assert GridSystem(1).solve(LightState.all_on(1)) == LightState(1, 1)


def test_unsolvable_state(grid_cache):
    # a state meeting some kernel vector an odd number of times has no solution
    for n in (4, 5):
        s = grid_cache(n)
        k = s.kernel_basis()[0]
        state = LightState(n, k.bits & -k.bits)
        assert s.solve(state) is None


def test_solvable_fraction_for_side_five(grid_cache):
    # rank 23 on a 25-bit space means exactly 2^23 states are solvable, one
    # in four; the matrix is symmetric, so the image is the kernel's
    # orthogonal complement and membership is a parity test per basis vector
    s = grid_cache(5)
    assert s.size - s.nullity() == 23
    assert s.nullity() == 2
    kernel = s.kernel_basis()
    rng = random.Random(55)
    hits = 0
    for _ in range(2000):
        state = LightState(5, rng.getrandbits(25))
        in_image = all((k.bits & state.bits).bit_count() % 2 == 0 for k in kernel)
        presses = s.solve(state)
        assert (presses is not None) == in_image
        if presses is not None:
            assert s.apply(presses, state) == LightState(5)
            hits += 1
    assert 400 < hits < 600  # seeded draw sits near the exact 500


def test_solution_coset_is_exact(grid_cache):
    # particular solution offset by every kernel combination solves; all distinct
    s = grid_cache(4)
    target = LightState.all_on(4)
    x0 = s.solve(target)
    basis = s.kernel_basis()
    seen = set()
    for mask in range(1 << len(basis)):
        bits = x0.bits
        for i, k in enumerate(basis):
            if mask >> i & 1:
                bits ^= k.bits
        assert s.apply(LightState(4, bits)) == target
        seen.add(bits)
    assert len(seen) == 1 << s.nullity()


def test_apply_involutive(grid_cache):
    s = grid_cache(3)
    presses = LightState(3, 0b000010110)
    start = LightState(3, 0b101000101)
    once = s.apply(presses, start)
    assert s.apply(presses, once) == start


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        GridSystem(0)
    s = GridSystem(3)
    with pytest.raises(ValueError):
        s.solve(LightState.all_on(4))
    with pytest.raises(ValueError):
        s.apply(LightState.all_on(4))
    with pytest.raises(ValueError):
        s.apply(LightState(3), LightState(2))


def test_shared_instance_solves_across_threads():
    # four threads released together make the first solves on one fresh instance
    ref = GridSystem(16)
    rng = random.Random(16)
    boards = [ref.apply(LightState(16, rng.getrandbits(256))) for _ in range(4)]
    shared = GridSystem(16)
    barrier = threading.Barrier(4, timeout=30)
    got = [None] * 4

    def work(i):
        barrier.wait()
        got[i] = shared.solve(boards[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert got == [ref.solve(b) for b in boards]
    assert all(p is not None and ref.apply(p) == b for p, b in zip(got, boards))


# -- state text format ----------------------------------------------------------


def test_state_round_trip():
    state = LightState(3, 0b101010101)
    text = state.to_text()
    assert text == "3\n101\n010\n101\n"
    assert LightState.from_text(text) == state
    assert str(state) == text
    assert LightState.from_text("1\n0\n") == LightState(1)
    assert LightState.from_text("2\n11\n11\n") == LightState.all_on(2)
    # trailing blank lines are tolerated, content is not
    assert LightState.from_text("1\n1\n\n") == LightState(1, 1)
    # CRLF and lone-CR line ends, with and without a final one
    for end in ("\r\n", "\r"):
        assert LightState.from_text(text.replace("\n", end)) == state
        assert LightState.from_text(text.replace("\n", end)[: -len(end)]) == state
    assert LightState.from_text("2\r\n11\r11\n\r\n") == LightState.all_on(2)


def test_state_text_matches_cell_by_cell():
    rng = random.Random(3)
    for n in range(1, 30):
        state = LightState(n, rng.getrandbits(n * n))
        rows = ["".join(str(state.bits >> (r * n + c) & 1) for c in range(n)) for r in range(n)]
        assert state.to_text() == "\n".join([str(n), *rows]) + "\n"
        assert LightState.from_text(state.to_text()) == state


def test_state_text_round_trip_at_n_1000():
    # one binary string each way, not one n*n-bit int operation per cell
    state = LightState.all_on(1000)
    start = time.perf_counter()
    assert LightState.from_text(state.to_text()) == state
    assert time.perf_counter() - start < 1.0


def test_state_validation():
    with pytest.raises(ValueError):
        LightState(0, 0)
    with pytest.raises(ValueError):
        LightState(2, 1 << 4)
    with pytest.raises(ValueError):
        LightState(2, -1)
    assert LightState(2, 15).bits == 15  # the top cell of a side-2 board


def test_state_range_check_builds_no_board_sized_int():
    # 1 << n*n at n = 100,000 would be a 1.2 GiB int
    tracemalloc.start()
    try:
        state = LightState(100_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (state.n, state.bits) == (100_000, 1)
    assert peak < 1 << 16


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("", 1, 1),
        ("x\n11\n11\n", 1, 1),
        ("0\n", 1, 1),
        ("2\n11\n", 3, 1),  # missing row
        ("2\n11\n1\n", 3, 2),  # short row
        ("2\n11\n111\n", 3, 3),  # long row
        ("2\n11\n12\n", 3, 2),  # bad cell
        ("1\n1\nextra\n", 3, 1),  # trailing content
        ("\u0663\n000\n000\n000\n", 1, 1),  # non-ASCII digit side length
        ("\u00b2\n1\n", 1, 1),  # superscript digit side length
        # only \n, \r\n and \r end a line, not the other str.splitlines breaks
        ("2\n01\x0c10\n", 2, 3),
        ("1\n1\x85\n", 2, 2),
        ("2\n0\x1c1\n11\n", 2, 3),
    ],
)
def test_state_parse_errors(text, line, column):
    with pytest.raises(StateFormatError) as err:
        LightState.from_text(text)
    assert err.value.line == line
    assert err.value.column == column
    assert f"line {line}, column {column}" in str(err.value)


def test_side_length_past_the_int_digit_limit():
    # leading zeros do not count toward CPython's 4300-digit int() limit
    assert LightState.from_text("0" * 4400 + "1\n1\n") == LightState(1, 1)
    with pytest.raises(StateFormatError) as err:
        LightState.from_text("9" * 5000 + "\n1\n")
    assert str(err.value) == "line 1, column 1: side length has 5000 digits, at most 4300 accepted"


def test_row_errors_name_a_side_past_20_digits_by_its_digit_count():
    for side, shown in ("9" * 20, "9" * 20), ("1" + "0" * 20, "<21 digits>"):
        with pytest.raises(StateFormatError) as err:
            LightState.from_text(side + "\n1\n")
        assert str(err.value) == f"line 2, column 2: row has 1 cells, expected {shown}"
        with pytest.raises(StateFormatError) as err:
            LightState.from_text(side + "\n")
        assert str(err.value) == f"line 2, column 1: expected {shown} row lines, found 0"
