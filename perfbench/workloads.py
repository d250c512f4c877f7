"""The benchmark's workloads: inputs from a seed, one timed iteration, output checks.

Each workload is one closed-loop client: it issues its fibgrid calls one after
another, each only after the previous one returns.  Calls go through the
public surface only, ``fibgrid.cli.main(argv)`` and ``GridSystem``, looked up
at call time so that an installed tracer sees them.  README.md in this
directory says why each workload was chosen.

An iteration is split in three so that only the middle part is timed:
``inputs(i)`` builds the i-th iteration's inputs, ``run(inputs)`` makes the
calls, and ``check(inputs, outputs)`` verifies every output.  It returns the
number of operations attempted, the problems found (one per failed
operation) and, for each board solve, its latency in seconds and whether a
press pattern came back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import os
import random
import time

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# CLI calls whose stdout was recorded from the seed package into REFERENCE_DIR
# (see record.py), by reference file name: (argv, exit code).
TABLE_N = 5000
REFERENCE_CALLS = {
    "table.csv": (["table", str(TABLE_N)], 0),
    "powers.txt": (["verify", "powers", "--degree-cap", "100000"], 0),
    "all2.txt": (["verify", "all2", "--kmax", "11"], 0),
    "oracle.txt": (["verify", "oracle", "--nmax", "56"], 0),
}

# table rows n <= CROSS_CHECK_N are also checked against elimination nullity.
CROSS_CHECK_N = 64

# Side of the library session's board: d_89 = 10, so a uniformly random board
# is solvable with probability 2^-10 and nearly every random board needs a
# certificate of unsolvability.
GRID_N = 89
BOARDS_PER_ITERATION = 40


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run the fibgrid CLI in-process; return its exit code and stdout text."""
    cli = importlib.import_module("fibgrid.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
    return code, out.getvalue()


@functools.cache
def read_reference(name: str) -> str:
    with open(os.path.join(REFERENCE_DIR, name), encoding="ascii", newline="") as fh:
        return fh.read()


def check_cli(name: str, code: int, text: str) -> list[str]:
    """Problems with one recorded CLI call's exit code and output, if any."""
    argv, want_code = REFERENCE_CALLS[name]
    problems = []
    if code != want_code:
        problems.append(f"{' '.join(argv)}: exit {code}, expected {want_code}")
    if text != read_reference(name):
        problems.append(f"{' '.join(argv)}: output differs from reference/{name}")
    return problems


def reference_d(n: int) -> int:
    """d_n from the recorded table output."""
    line = read_reference("table.csv").splitlines()[n]
    row_n, d, _ = line.split(",")
    if int(row_n) != n:
        raise ValueError(f"reference table row {n} is malformed")
    return int(d)


# -- the benchmark's own model of the board --------------------------------------


class Toggle:
    """Neighbour toggle on an n x n board of int bits (bit r*n + c is cell (r, c)).

    Written from the rules of the game, independently of fibgrid's matrix rows:
    pressing a set of cells flips each pressed cell and its orthogonal
    neighbours, which is five shifted copies of the press set XORed together.
    """

    def __init__(self, n: int):
        self.n = n
        self.full = (1 << n * n) - 1
        first_col = sum(1 << r * n for r in range(n))
        self.not_first = self.full ^ first_col
        self.not_last = self.full ^ (first_col << n - 1)

    def __call__(self, presses: int) -> int:
        n = self.n
        return (
            presses
            ^ (presses << 1 & self.not_first)
            ^ (presses >> 1 & self.not_last)
            ^ (presses << n)
            ^ (presses >> n)
        ) & self.full


def _rank(vectors: list[int]) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


# -- workloads -------------------------------------------------------------------


class TableWorkload:
    """``fibgrid table N``: many small-to-mid-degree d_n computations."""

    def __init__(self, seed: int):  # the table has no random input
        grid = importlib.import_module("fibgrid.grid")
        # computed before any timing or tracing, so the grid layer stays idle
        self.nullities = {n: grid.GridSystem(n).nullity() for n in range(1, CROSS_CHECK_N + 1)}

    def inputs(self, i: int):
        return None

    def run(self, inputs):
        return cli_call(REFERENCE_CALLS["table.csv"][0])

    def check(self, inputs, outputs) -> tuple[int, list[str], list]:
        code, text = outputs
        problems = check_cli("table.csv", code, text)
        rows = text.splitlines()[1 : CROSS_CHECK_N + 1]
        for n, row in enumerate(rows, start=1):
            fields = row.split(",")
            if len(fields) != 3 or fields[0] != str(n) or fields[1] != str(self.nullities[n]):
                problems.append(f"table row {row!r} disagrees with elimination nullity")
                break
        if len(rows) < CROSS_CHECK_N:
            problems.append("table output is missing rows")
        return 1, problems[:1], []


class DeepWorkload:
    """``verify powers`` (even n) and ``verify all2 --kmax 11`` (odd n): few huge operands."""

    NAMES = ("powers.txt", "all2.txt")

    def __init__(self, seed: int):  # the sweeps have no random input
        pass

    def inputs(self, i: int):
        return None

    def run(self, inputs):
        return [cli_call(REFERENCE_CALLS[name][0]) for name in self.NAMES]

    def check(self, inputs, outputs) -> tuple[int, list[str], list]:
        problems = []
        for name, (code, text) in zip(self.NAMES, outputs):
            problems.extend(check_cli(name, code, text)[:1])
        return len(self.NAMES), problems, []


class GridWorkload:
    """``verify oracle --nmax 56``, then a library session solving seeded boards."""

    def __init__(self, seed: int):
        self.seed = seed
        self.toggle = Toggle(GRID_N)
        self.want_nullity = reference_d(GRID_N)

    def inputs(self, i: int):
        """Boards alternate: one built solvable by pressing random cells, one uniform."""
        grid = importlib.import_module("fibgrid.grid")
        rng = random.Random(f"grid-{self.seed}-{i}")
        cells = GRID_N * GRID_N
        boards = []
        for j in range(BOARDS_PER_ITERATION):
            bits = rng.getrandbits(cells)
            boards.append(self.toggle(bits) if j % 2 == 0 else bits)
        return [grid.LightState(GRID_N, b) for b in boards]

    def run(self, boards):
        grid = importlib.import_module("fibgrid.grid")
        oracle = cli_call(REFERENCE_CALLS["oracle.txt"][0])
        system = grid.GridSystem(GRID_N)
        nullity = system.nullity()
        basis = system.kernel_basis()
        clock = time.perf_counter
        patterns = []
        latencies = []
        for board in boards:
            start = clock()
            patterns.append(system.solve(board))
            latencies.append(clock() - start)
        return oracle, nullity, basis, patterns, latencies

    def check(self, boards, outputs) -> tuple[int, list[str], list]:
        (code, text), nullity, basis, patterns, latencies = outputs
        toggle = self.toggle
        problems = check_cli("oracle.txt", code, text)[:1]
        kernel = [v.bits for v in basis]
        if (
            nullity != self.want_nullity
            or len(kernel) != nullity
            or any(toggle(k) for k in kernel)
            or _rank(kernel) != nullity
        ):
            problems.append(f"GridSystem({GRID_N}): nullity or kernel basis is wrong")
        for board, pattern in zip(boards, patterns):
            if pattern is not None:
                if toggle(pattern.bits) != board.bits:
                    problems.append("a press pattern does not clear its board")
                continue
            # A kernel vector k with odd k.b proves b unsolvable: A is symmetric,
            # so b = A x would give k.b = (A k).x = 0.
            if not any((k & board.bits).bit_count() & 1 for k in kernel if not toggle(k)):
                problems.append("an 'unsolvable' answer has no certificate")
        solves = [(t, p is not None) for t, p in zip(latencies, patterns)]
        return 2 + len(boards), problems, solves


WORKLOADS = {"table": TableWorkload, "deep": DeepWorkload, "grid": GridWorkload}
