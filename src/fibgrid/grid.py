"""Light chasing on the grid toggle game: nullity, kernel and solver.

Pressing cell (r, c) of an n x n board flips that cell and its orthogonal
neighbors.  Over GF(2) the press-to-effect map is the symmetric N x N matrix
A + I (N = n*n).  Boards and press patterns are Python int bitsets, bit
r*n + c for cell (r, c).

The matrix is block-tridiagonal, so the last-row presses decide every other
row: the row above row r must press exactly the lights that rows r and r+1
leave on in row r.  Chasing the lights up leaves a residue above the first
row that depends linearly on the last-row presses, through an n x n matrix
M = f_{n+1}(B), where B = A_path + I acts on one row.  So
nullity(A + I) = nullity(M), and every question about A + I is one
elimination on M plus chases.  M is a polynomial in the symmetric B, so it is
symmetric: rows of M that sum to zero name a kernel vector of M, and rows that
sum to a residue name last-row presses that leave it.  Forward elimination
alone therefore finds both.  No Fibonacci polynomial is built here, so this
route to d_n is independent of the GCD route.
"""

from __future__ import annotations

from .polygf2 import _Frozen  # the value contract only; no polynomial arithmetic here

__all__ = ["LightState", "GridSystem", "StateFormatError"]


class StateFormatError(ValueError):
    """Malformed grid-state text; carries the offending line and column (1-based)."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _side_length(text: str) -> int:
    """The side length on a board text's first line, which ends at the first LF or CR."""
    head = text.split("\n", 1)[0].split("\r", 1)[0].strip()
    if not head:
        raise StateFormatError("missing side-length line", 1, 1)
    if not (head.isascii() and head.isdigit()):
        raise StateFormatError("side length must be a decimal integer", 1, 1)
    head = head.lstrip("0") or "0"  # CPython's int() refuses more than 4300 digits
    if len(head) > 4300:
        raise StateFormatError(f"side length has {len(head)} digits, at most 4300 accepted", 1, 1)
    if int(head) < 1:
        raise StateFormatError("side length must be >= 1", 1, 1)
    return int(head)


def _side_text(n: int) -> str:
    """n in decimal, or its digit count past 20 digits, for error lines of bounded length."""
    text = str(n)
    return text if len(text) <= 20 else f"<{len(text)} digits>"


class LightState(_Frozen):
    """On/off assignment for an n x n board; bit r*n + c is cell (r, c).

    Doubles as a press pattern, which is the same kind of object.  Values
    hash and compare by (n, bits).
    """

    __slots__ = ("n", "bits")
    __match_args__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0) -> None:
        if n < 1:
            raise ValueError("side length must be >= 1")
        # bit_length, not a compare with 1 << n*n, which would build an n*n-bit int
        if bits < 0 or bits.bit_length() > n * n:
            raise ValueError("state bits out of range for the board size")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __repr__(self) -> str:
        return f"LightState(n={self.n!r}, bits={self.bits!r})"

    @classmethod
    def all_on(cls, n: int) -> "LightState":
        return cls(n, (1 << (n * n)) - 1)

    @classmethod
    def from_text(cls, text: str) -> "LightState":
        """Parse the exchange format: a side-length line, then n rows of 0/1 digits.

        Lines end in \\n, \\r\\n or \\r, the line ends open() translates;
        str.splitlines would also split on \\x0c, \\x85 and others.
        """
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if not lines[-1]:
            lines.pop()  # the final line end closes the last line
        n = _side_length(text)
        rows = lines[1 : n + 1]
        for r, row in enumerate(rows):  # errors in reading order
            lineno = 2 + r
            if len(row) != n:
                message = f"row has {len(row)} cells, expected {_side_text(n)}"
                raise StateFormatError(message, lineno, min(len(row), n) + 1)
            if row.count("0") + row.count("1") != n:
                c = next(c for c, ch in enumerate(row) if ch not in "01")
                raise StateFormatError(f"cell must be 0 or 1, got {row[c]!r}", lineno, c + 1)
        if len(rows) < n:
            message = f"expected {_side_text(n)} row lines, found {len(rows)}"
            raise StateFormatError(message, len(lines) + 1, 1)
        for extra in range(n + 1, len(lines)):
            if lines[extra].strip():
                raise StateFormatError("unexpected content after the board", extra + 1, 1)
        # character r*n + c is cell (r, c), bit r*n + c: one parse, reversed
        return cls(n, int("".join(rows)[::-1], 2))

    def to_text(self) -> str:
        """Exchange format: the side length, then one 0/1 line per row, LF endings."""
        n = self.n
        cells = format(self.bits, f"0{n * n}b")[::-1]  # character i is bit i
        rows = [cells[i : i + n] for i in range(0, n * n, n)]
        return "\n".join([str(n), *rows]) + "\n"

    def __str__(self) -> str:
        return self.to_text()


def _reduce(pivots: dict[int, int], r: int, width: int) -> int:
    """Clear r's low width bits with pivot rows, lowest bit first.

    Stops at the first bit that no pivot covers.  The bits above width sum
    the augmentations of the pivot rows added in.
    """
    mask = (1 << width) - 1
    while r & mask and (piv := pivots.get((r & -r).bit_length() - 1)) is not None:
        r ^= piv
    return r


def _echelon(rows: list[int], width: int) -> tuple[dict[int, int], list[int]]:
    """Forward elimination of width-bit rows, pivoting on each row's lowest set bit.

    Returns the pivot rows by pivot column, and the augmentation of each row
    that reduces to zero.  Each row carries the identity augmentation in bits
    above width, so an augmentation names the original rows that sum to it.
    """
    mask = (1 << width) - 1
    pivots: dict[int, int] = {}
    null: list[int] = []
    for v, row in enumerate(rows):
        r = _reduce(pivots, row | 1 << (width + v), width)
        if r & mask:
            pivots[(r & -r).bit_length() - 1] = r
        else:
            null.append(r >> width)
    return pivots, null


class GridSystem:
    """Toggle system of the n x n grid, answered by light chasing.

    Every chase starts from the last row, so a kernel vector of A + I is
    fixed by its last row, and the kernel of M is those last rows.  The
    constructor eliminates M once, takes its kernel from the rows that reduce
    to zero, and reduces it to echelon form, pivoting on each last row's
    highest set bit.  The pivots are the free cells: the columns left
    without a pivot when A + I is eliminated on lowest set bits.  Nothing
    changes after the constructor, so one instance is safe to share across
    threads.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("side length must be >= 1")
        self.n = n
        self.size = n * n
        self._full = (1 << self.size) - 1
        self._row = (1 << n) - 1
        first_col = int(("0" * (n - 1) + "1") * n, 2)
        self._not_first = self._full ^ first_col
        self._not_last = self._full ^ (first_col << (n - 1))

        # Bit-sliced chase: lane c (bits c*n .. c*n + n-1) masks the last-row
        # presses whose parity presses cell c of the current row.  After n
        # steps, lane c is row c of M.
        prev, cur = 0, int("1" + ("0" * n + "1") * (n - 1), 2)
        for _ in range(n):
            prev, cur = cur, prev ^ cur ^ (cur << n & self._full) ^ (cur >> n)
        self._pivots, null = _echelon(self._split(cur)[::-1], n)

        # Kernel vectors of M, each the last row of a kernel vector of A + I.
        reduced: dict[int, int] = {}
        for r in null:
            while (p := r.bit_length() - 1) in reduced:
                r ^= reduced[p]
            reduced[p] = r
        tops = sorted(reduced)
        for i, p in enumerate(tops):
            for q in tops[i + 1 :]:
                if reduced[q] >> p & 1:
                    reduced[q] ^= reduced[p]
        # (free cell on the last row, last row of its kernel vector)
        self._kernel = tuple((p, reduced[p]) for p in tops)

    def _split(self, bits: int) -> list[int]:
        """Rows n-1 down to 0 of an n*n-bit int, through one binary string."""
        n = self.n
        text = format(bits, f"0{self.size}b")
        return [int(text[i : i + n], 2) for i in range(0, self.size, n)]

    def _join(self, rows: list[int]) -> int:
        """Inverse of _split."""
        n = self.n
        return int("".join(format(r, f"0{n}b") for r in rows), 2)

    def _chase(self, start: int, board: list[int]) -> list[int]:
        """Press rows x_0 = start, x_1, ..., x_n up the board, from its last row.

        Row r counts from the bottom, as _split lists the board's rows.
        x_{r+1} = board_r + x_{r-1} + B x_r presses what rows r-1 and r leave
        on in row r, so x_0 .. x_{n-1} clear rows 0 .. n-2, and x_n, a row
        above the board, is what they leave on in the top row.
        """
        row = self._row
        xs = [0, start]
        for b in board:
            cur = xs[-1]
            xs.append((b ^ xs[-2] ^ cur ^ cur << 1 ^ cur >> 1) & row)
        return xs[1:]

    def _toggle(self, presses: int) -> int:
        """Board toggled by a press set: five shifted copies XORed together."""
        n = self.n
        return (
            presses
            ^ (presses << 1 & self._not_first)
            ^ (presses >> 1 & self._not_last)
            ^ (presses << n & self._full)
            ^ (presses >> n)
        )

    def nullity(self) -> int:
        """Kernel dimension over GF(2), equal to the nullity of M."""
        return len(self._kernel)

    def kernel_basis(self) -> tuple[LightState, ...]:
        """One kernel vector per free cell: that cell pressed, no other free cell."""
        zeros = [0] * self.n
        return tuple(
            LightState(self.n, self._join(self._chase(last, zeros)[:-1]))
            for _, last in self._kernel
        )

    def apply(self, presses: LightState, state: LightState | None = None) -> LightState:
        """Board reached from state (default all off) after the given presses."""
        if presses.n != self.n:
            raise ValueError("press pattern side length does not match the system")
        if state is not None and state.n != self.n:
            raise ValueError("state side length does not match the system")
        acc = 0 if state is None else state.bits
        return LightState(self.n, acc ^ self._toggle(presses.bits))

    def solve(self, state: LightState) -> LightState | None:
        """Press pattern that turns the given state all-off, or None if unsolvable.

        A chase from no last-row presses leaves a residue c; last-row
        presses y with M y = c clear it, and reducing c against M's pivot
        rows names them.  Adding the kernel vector of each free cell that y
        presses leaves every free cell unpressed, so the answer is unique,
        and one more chase gives it.  Every candidate is re-applied and
        checked before being returned; a candidate that fails the check
        certifies the state unsolvable, since a solvable c lies in the span
        of M's rows and so reduces to zero.
        """
        if state.n != self.n:
            raise ValueError("state side length does not match the system")
        board = self._split(state.bits)
        last = _reduce(self._pivots, self._chase(0, board)[-1], self.n) >> self.n
        for p, kernel_last in self._kernel:
            if last >> p & 1:
                last ^= kernel_last
        presses = self._join(self._chase(last, board)[:-1])
        if self._toggle(presses) != state.bits:
            return None
        return LightState(self.n, presses)
