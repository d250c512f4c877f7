"""Brute-force ground truth for the grid toggle game.

Pressing cell (r, c) of an n x n board flips that cell and its orthogonal
neighbors.  The press-to-effect map is a symmetric N x N matrix over GF(2)
(N = n*n); this module stores each matrix row as one Python int bitset and
answers rank, kernel and solvability questions by plain Gaussian
elimination, independent of any polynomial shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LightState", "GridSystem", "StateFormatError"]


class StateFormatError(ValueError):
    """Malformed grid-state text; carries the offending line and column (1-based)."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class LightState:
    """On/off assignment for an n x n board; bit r*n + c is cell (r, c).

    Doubles as a press pattern, which is the same kind of object.
    """

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("side length must be >= 1")
        if not 0 <= self.bits < 1 << (self.n * self.n):
            raise ValueError("state bits out of range for the board size")

    @classmethod
    def all_on(cls, n: int) -> "LightState":
        return cls(n, (1 << (n * n)) - 1)

    @classmethod
    def all_off(cls, n: int) -> "LightState":
        return cls(n, 0)

    @classmethod
    def from_text(cls, text: str) -> "LightState":
        """Parse the exchange format: a side-length line, then n rows of 0/1 digits."""
        lines = text.splitlines()
        if not lines or not lines[0].strip():
            raise StateFormatError("missing side-length line", 1, 1)
        head = lines[0].strip()
        if not (head.isascii() and head.isdigit()):
            raise StateFormatError("side length must be a decimal integer", 1, 1)
        n = int(head)
        if n < 1:
            raise StateFormatError("side length must be >= 1", 1, 1)
        if len(lines) < n + 1:
            raise StateFormatError(
                f"expected {n} row lines, found {len(lines) - 1}", len(lines) + 1, 1
            )
        bits = 0
        for r in range(n):
            row = lines[1 + r]
            lineno = 2 + r
            if len(row) != n:
                raise StateFormatError(
                    f"row has {len(row)} cells, expected {n}", lineno, min(len(row), n) + 1
                )
            for c, ch in enumerate(row):
                if ch == "1":
                    bits |= 1 << (r * n + c)
                elif ch != "0":
                    raise StateFormatError(f"cell must be 0 or 1, got {ch!r}", lineno, c + 1)
        for extra in range(n + 1, len(lines)):
            if lines[extra].strip():
                raise StateFormatError("unexpected content after the board", extra + 1, 1)
        return cls(n, bits)

    def to_text(self) -> str:
        """Exchange format: the side length, then one 0/1 line per row, LF endings."""
        out = [str(self.n)]
        for r in range(self.n):
            out.append(
                "".join("1" if self.bits >> (r * self.n + c) & 1 else "0" for c in range(self.n))
            )
        return "\n".join(out) + "\n"

    def __str__(self) -> str:
        return self.to_text()


class GridSystem:
    """Toggle matrix of the n x n grid with elimination-backed queries.

    Row v has bits at v and at each in-bounds orthogonal neighbor of v.
    Elimination runs once, in the constructor, and keeps pivot rows augmented
    with combination tracking; nothing changes afterwards, so one instance
    is safe to share across threads.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("side length must be >= 1")
        self.n = n
        self.size = n * n
        self._mask = (1 << self.size) - 1
        rows = []
        for r in range(n):
            for c in range(n):
                v = r * n + c
                bits = 1 << v
                if r > 0:
                    bits |= 1 << (v - n)
                if r + 1 < n:
                    bits |= 1 << (v + n)
                if c > 0:
                    bits |= 1 << (v - 1)
                if c + 1 < n:
                    bits |= 1 << (v + 1)
                rows.append(bits)
        self._rows = rows
        self._pivots = self._eliminate()
        self._pivot_cols = sorted(self._pivots)

    def row_bits(self, v: int) -> int:
        """Matrix row for pressing cell v, as a column bitset."""
        return self._rows[v]

    def _eliminate(self) -> dict[int, int]:
        """Forward elimination, pivoting on each row's lowest set bit.

        Returns the pivot rows by pivot column.  They carry the identity
        augmentation in bits above size, so each reduced row remembers which
        original presses combined into it.
        """
        size = self.size
        mask = self._mask
        pivots: dict[int, int] = {}
        for v, row in enumerate(self._rows):
            r = row | 1 << (size + v)
            while r & mask:
                p = (r & -r).bit_length() - 1
                piv = pivots.get(p)
                if piv is None:
                    pivots[p] = r
                    break
                r ^= piv
        return pivots

    def rank(self) -> int:
        return len(self._pivots)

    def nullity(self) -> int:
        """Kernel dimension over GF(2): board size minus elimination rank."""
        return self.size - self.rank()

    def _back_substitute(self, seed: int, b: int) -> int:
        """Solve the echelon equations with the non-pivot coordinates preset.

        Each pivot equation reads x_p = (track_p . b) + (row_p . x) over the
        already-fixed higher coordinates; seed supplies the free columns.
        """
        x = seed
        size = self.size
        mask = self._mask
        for p in reversed(self._pivot_cols):
            aug = self._pivots[p]
            row = aug & mask
            track = aug >> size
            parity = ((track & b).bit_count() ^ (row & x).bit_count()) & 1
            if parity:
                x |= 1 << p
        return x

    def kernel_basis(self) -> tuple[LightState, ...]:
        """One kernel vector per free column: that column set, pivots back-substituted."""
        pivot_set = self._pivots.keys()
        basis = []
        for f in range(self.size):
            if f not in pivot_set:
                basis.append(LightState(self.n, self._back_substitute(1 << f, 0)))
        return tuple(basis)

    def apply(self, presses: LightState, state: LightState | None = None) -> LightState:
        """Board reached from state (default all off) after the given presses."""
        if presses.n != self.n:
            raise ValueError("press pattern side length does not match the system")
        if state is not None and state.n != self.n:
            raise ValueError("state side length does not match the system")
        acc = 0 if state is None else state.bits
        rem = presses.bits
        while rem:
            low = rem & -rem
            acc ^= self._rows[low.bit_length() - 1]
            rem ^= low
        return LightState(self.n, acc)

    def solve(self, state: LightState) -> LightState | None:
        """Press pattern that turns the given state all-off, or None if unsolvable.

        Free cells are never pressed, so the answer is deterministic.  Every
        candidate is re-applied and checked before being returned; a candidate
        that fails the check certifies the state unsolvable, since consistent
        systems always back-substitute to a solution.
        """
        if state.n != self.n:
            raise ValueError("state side length does not match the system")
        x = self._back_substitute(0, state.bits)
        candidate = LightState(self.n, x)
        if self.apply(candidate).bits != state.bits:
            return None
        return candidate

    def count_solutions(self, state: LightState) -> int:
        """Number of distinct solving press patterns: 2**nullity, given solvability."""
        if self.solve(state) is None:
            raise ValueError("state is not solvable")
        return 1 << self.nullity()

