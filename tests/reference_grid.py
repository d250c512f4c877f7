"""Small-n reference for the toggle system: Gaussian elimination on A + I itself.

Each of the N = n*n matrix rows is one Python int bitset.  Elimination pivots
on each row's lowest set bit and tracks which original rows combined into
each pivot row; the free columns are the columns without a pivot.  Its
kernel basis has one vector per free column (that column set, every other
free column clear) and its solver never presses a free cell, which fixes
every answer uniquely.  The cost grows as about n^6 divided by the word size,
so it serves n up to about 64, as the oracle that `GridSystem`'s light
chasing must reproduce bit for bit.
"""

from __future__ import annotations


class EliminationGrid:
    """Toggle matrix of the n x n grid, eliminated once on construction."""

    def __init__(self, n: int):
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
        self.rows = rows
        self._pivots = self._eliminate()
        self._pivot_cols = sorted(self._pivots)

    def _eliminate(self) -> dict[int, int]:
        """Forward elimination; pivot rows carry the identity augmentation above size."""
        size = self.size
        mask = self._mask
        pivots: dict[int, int] = {}
        for v, row in enumerate(self.rows):
            r = row | 1 << (size + v)
            while r & mask:
                p = (r & -r).bit_length() - 1
                piv = pivots.get(p)
                if piv is None:
                    pivots[p] = r
                    break
                r ^= piv
        return pivots

    def _back_substitute(self, seed: int, b: int) -> int:
        """Solve the echelon equations with the free coordinates preset to seed."""
        x = seed
        size = self.size
        mask = self._mask
        for p in reversed(self._pivot_cols):
            aug = self._pivots[p]
            parity = ((aug >> size & b).bit_count() ^ (aug & mask & x).bit_count()) & 1
            if parity:
                x |= 1 << p
        return x

    def nullity(self) -> int:
        return self.size - len(self._pivots)

    def free_columns(self) -> list[int]:
        return [f for f in range(self.size) if f not in self._pivots]

    def kernel_basis(self) -> list[int]:
        """One kernel vector per free column, in column order."""
        return [self._back_substitute(1 << f, 0) for f in self.free_columns()]

    def apply(self, presses: int) -> int:
        acc = 0
        for v in range(self.size):
            if presses >> v & 1:
                acc ^= self.rows[v]
        return acc

    def solve(self, board: int) -> int | None:
        """The press pattern with every free cell unpressed, or None if unsolvable."""
        x = self._back_substitute(0, board)
        return x if self.apply(x) == board else None
