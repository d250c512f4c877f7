"""Mutation matrix: which check catches which seeded bug.

    python tests/mutants.py                  # run every mutant, write the matrix
    python tests/mutants.py --check          # run every mutant, diff against it
    python tests/mutants.py --check --verify-only NAME ...

Each mutant replaces one snippet of src/fibgrid that must occur exactly once,
and errs only above the size its description states, as a bug near an
optimisation threshold would.  One at a time, a mutant is applied to a
temporary copy of src/, tests/ and pyproject.toml, with the README.md and
perfbench/reference/ that Tier-1 reads.  In that copy the script runs
`fibgrid verify all` and Tier-1 with --hypothesis-seed=0, and records the
sweeps and the tests that fail.  The first row, `control`, runs the copy
unmutated.  The matrix is tests/data/mutation_matrix.txt.  --check diffs
against it instead of writing it and exits 1 on a difference; with mutant
names it checks only those rows, and with --verify-only only their
`verify all` column, which takes seconds a mutant instead of a Tier-1 run.

A mutant that both columns pass names a missing check.  A sweep or test
that catches no mutant the others miss is a candidate for deletion.  Stdlib
only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MATRIX = ROOT / "tests" / "data" / "mutation_matrix.txt"
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
TIMEOUT_S = 1800

# (name, file under src/fibgrid, snippet, replacement, what goes wrong and above which size)
MUTANTS = [
    (
        "gcd-6000",
        "polygf2.py",
        "    na, nb = a.bit_length(), b.bit_length()\n    while nb:\n",
        "    na, nb = a.bit_length(), b.bit_length()\n"
        "    if na > 6000 and nb > 6000:\n        a ^= 8\n    while nb:\n",
        "_gcd_bits flips bit 3 of a when both operands exceed 6,000 bits",
    ),
    (
        "gcd-60000",
        "polygf2.py",
        "    na, nb = a.bit_length(), b.bit_length()\n    while nb:\n",
        "    na, nb = a.bit_length(), b.bit_length()\n"
        "    if na > 60000 and nb > 60000:\n        a ^= 8\n    while nb:\n",
        "_gcd_bits flips bit 3 of a when both operands exceed 60,000 bits",
    ),
    (
        "square-20000",
        "polygf2.py",
        '    out[1::2] = data.translate(_SPREAD_HIGH)\n    return int.from_bytes(out, "little")\n',
        '    out[1::2] = data.translate(_SPREAD_HIGH)\n    z = int.from_bytes(out, "little")\n'
        "    return z ^ 4 if z.bit_length() > 20000 else z\n",
        "_square_bits flips bit 2 of any result over 20,000 bits",
    ),
    (
        "subst-3000",
        "polygf2.py",
        "        stride <<= 1\n    return z\n",
        "        stride <<= 1\n    return z ^ 2 if nbits > 3000 else z\n",
        "_subst_bits flips bit 1 for inputs over 3,000 bits",
    ),
    (
        "valuation-3000",
        "nullity.py",
        "    return 2 if a & -a == b & -b else 0\n",
        "    return 2 if a & -a == b & -b and a.bit_length() <= 3000 else 0\n",
        "_valuation_delta returns 0 when A exceeds 3,000 bits",
    ),
    (
        "mul-200",
        "polygf2.py",
        "    out = 0\n    while b:\n",
        "    out = 2 if max(a.bit_length(), b.bit_length()) > 200 else 0\n    while b:\n",
        "_mul_bits flips bit 1 of the product when an operand exceeds 200 bits",
    ),
    (
        "divmod-200",
        "polygf2.py",
        "    q = 0  # an int",
        "    q = int(na > 200)  # an int",
        "_divmod_bits flips bit 0 of the quotient when the dividend exceeds 200 bits",
    ),
    (
        "y-pair-1000",
        "fibpoly.py",
        "            a0, b0, a1, b1 = a0 ^ a1, b0 ^ b1, b1 << 1, a1 ^ b1\n",
        "            a0, b0, a1, b1 = a0 ^ a1, b0 ^ b1, b1 << 1, a1 ^ b1\n"
        "            if a0.bit_length() > 1000:\n                a0 ^= 8\n",
        "_y_pair's odd step flips bit 3 of A once A exceeds 1,000 bits",
    ),
    (
        "y-pair-10000",
        "fibpoly.py",
        "            a0, b0, a1, b1 = a0 ^ a1, b0 ^ b1, b1 << 1, a1 ^ b1\n",
        "            a0, b0, a1, b1 = a0 ^ a1, b0 ^ b1, b1 << 1, a1 ^ b1\n"
        "            if a0.bit_length() > 10000:\n                a0 ^= 8\n",
        "_y_pair's odd step flips bit 3 of A once A exceeds 10,000 bits",
    ),
    (
        "step-1000",
        "nullity.py",
        "            a0, b0, a1, b1 = a1, b1, (b1 << 1) ^ a0, a1 ^ b1 ^ b0\n",
        "            a0, b0, a1, b1 = a1, b1, (b1 << 1) ^ a0, a1 ^ b1 ^ b0\n"
        "            if a1.bit_length() > 1000:\n                a1 ^= 2\n",
        "_odd_degrees' recurrence step flips bit 1 of A_{m+1} once it exceeds 1,000 bits",
    ),
    (
        "d-from-10000",
        "nullity.py",
        "    return d + 2 * ((1 << k) - 1) if b % 3 == 0 else d\n",
        "    return d + 2 * ((1 << k) - 1) if b % 3 == 0 and n <= 10000 else d\n",
        "_d_from drops the 2(2^k - 1) of the x^2 + x factor for n over 10,000",
    ),
    (
        "reduce-odd-2000",
        "nullity.py",
        "    return math.gcd(b, _cap(primes)) if math.prod(primes) < b else b  # unless squarefree\n",
        "    if b > 2000:\n        return math.prod(primes)\n"
        "    return math.gcd(b, _cap(primes)) if math.prod(primes) < b else b  # unless squarefree\n",
        "_reduce_odd_part returns the product of b's primes, not gcd(b, C), for b over 2,000",
    ),
    (
        "trivial-1000",
        "nullity.py",
        "    return order == b - 1 or (2 * order == b - 1 and b % 4 == 3)\n",
        "    return order == b - 1 or (2 * order == b - 1 and (b % 4 == 3 or b > 1000))\n",
        "_gcd_is_trivial takes ord_b(2) = (b - 1)/2 at b = 1 mod 4 for b over 1,000",
    ),
    (
        "echelon-100",
        "grid.py",
        "    mask = (1 << width) - 1\n    pivots: dict[int, int] = {}\n",
        "    mask = (1 << width - (width > 100)) - 1\n    pivots: dict[int, int] = {}\n",
        "_echelon ignores the last column when a row is wider than 100 bits",
    ),
    (
        "reduce-100",
        "grid.py",
        "    while r & mask and (piv := pivots.get((r & -r).bit_length() - 1)) is not None:\n",
        "    while r & mask and (r & -r).bit_length() <= 100 and (\n"
        "        piv := pivots.get((r & -r).bit_length() - 1)\n    ) is not None:\n",
        "_reduce clears only the lowest 100 columns, so it errs on rows wider than 100 bits",
    ),
    (
        "residue-100",
        "grid.py",
        "        rows = [(w >> n - j ^ w >> n + 2 + j ^ w << n - j) & self._row for j in range(n)]\n",
        "        rows = [(w >> n - j ^ w >> n + 2 + j ^ (w << n - j if n <= 100 else 0)) & self._row"
        " for j in range(n)]\n",
        "the residue rows lose the mirror image at n for sides over 100",
    ),
    (
        "solve-100",
        "grid.py",
        "        last = _reduce(self._pivots, self._chase(0, board)[-1], self.n) >> self.n\n",
        "        last = _reduce(self._pivots, self._chase(0, board)[-1], self.n) >> self.n\n"
        "        if self.n > 100:\n            last ^= 1\n",
        "solve flips the first last-row press for sides over 100",
    ),
]
CONTROL = ("control", None, None, None, "no mutant: the copy as it is")


def _apply(copy: Path, mutant: tuple) -> None:
    _, path, old, new, _ = mutant
    if path is not None:
        target = copy / "src" / "fibgrid" / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")


def _copy(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for part in ("src", "tests", "perfbench/reference"):
        shutil.copytree(ROOT / part, into / part, ignore=ignore)
    for part in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / part, into / part)


def _run(copy: Path, args: list[str]) -> tuple[int | None, str, str]:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=copy,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", ""
    return proc.returncode, proc.stdout, proc.stderr


def _verify_column(copy: Path) -> str:
    """`verify all`'s exit status and the checks it reports failing, or its error."""
    code, out, err = _run(copy, ["-m", "fibgrid.cli", "verify", "all"])
    if code is None:
        return f"timeout after {TIMEOUT_S} s"
    if "Traceback" in err:
        return f"exit {code}, {err.strip().splitlines()[-1]}"
    failing, current = [], None
    for line in out.splitlines():
        if line.startswith("== "):
            current = line.strip("= ")
        elif line.startswith("result: ") and not line.startswith("result: pass"):
            failing.append(current)
        elif ": FAIL at " in line:
            failing.append(line.split(": FAIL at ")[0])
    return f"exit {code}" + (", fails " + ", ".join(failing) if failing else "")


def _tier1_column(copy: Path) -> list[str]:
    """Tier-1's summary line, then one line per failing test id."""
    report = copy / "tier1.xml"
    code, _, _ = _run(copy, [*TIER1, "--hypothesis-seed=0", f"--junitxml={report}"])
    if code is None:
        return [f"timeout after {TIMEOUT_S} s"]
    if not report.exists():
        return [f"exit {code}, no report"]
    failed = sorted(
        f"{case.get('classname')}::{case.get('name')}"
        for case in ET.parse(report).iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    )
    return [f"{len(failed)} fail" if failed else "pass", *failed]


def _row(mutant: tuple, verify_only: bool) -> list[str]:
    with tempfile.TemporaryDirectory(prefix="fibgrid-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        _apply(copy, mutant)
        lines = [f"{mutant[0]}: {mutant[4]}", f"  verify all: {_verify_column(copy)}"]
        if not verify_only:
            first, *ids = _tier1_column(copy)
            lines += [f"  tier-1: {first}", *(f"    {i}" for i in ids)]
    return lines


def _rows(text: str) -> dict[str, list[str]]:
    """The matrix file's rows by mutant name, each row its lines."""
    rows: dict[str, list[str]] = {}
    for line in text.splitlines():
        if line.startswith(" ") and rows:
            row.append(line)
        elif line and not line.startswith("#"):
            rows[line.split(":", 1)[0]] = row = [line]
    return rows


HEADER = [
    "# Mutation matrix, written by tests/mutants.py; `python tests/mutants.py --check` diffs against it.",
    "# verify all: its exit status and the checks that report FAIL.  tier-1: the failing tests,",
    "# run with --hypothesis-seed=0.  Each mutant errs only above the size it states.",
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run, all by default")
    parser.add_argument("--check", action="store_true", help="diff against the matrix file")
    parser.add_argument("--verify-only", action="store_true", help="with --check: skip Tier-1")
    args = parser.parse_args(argv)
    known = {m[0]: m for m in [CONTROL, *MUTANTS]}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant {unknown[0]!r}; known: {', '.join(known)}")
    if not args.check and (args.names or args.verify_only):
        parser.error("the matrix file is written whole: names and --verify-only need --check")
    for name, path, old, _, _ in MUTANTS:  # every snippet occurs once, before any run starts
        count = (ROOT / "src" / "fibgrid" / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            parser.error(f"{name}: snippet occurs {count} times in {path}, not once")

    rows = {}
    for name in args.names or known:
        start = time.perf_counter()
        rows[name] = _row(known[name], args.verify_only)
        print(f"mutants: {name} in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if not args.check:
        body = [line for row in rows.values() for line in ["", *row]]
        MATRIX.write_text("\n".join(HEADER + body) + "\n", encoding="utf-8")
        return 0

    recorded = _rows(MATRIX.read_text(encoding="utf-8"))
    cut = 2 if args.verify_only else None  # the name line and the verify all line
    names = args.names or list(dict.fromkeys([*known, *recorded]))
    expected = [line for name in names for line in recorded.get(name, [])[:cut]]
    got = [line for name in names for line in rows.get(name, [])[:cut]]
    diff = "\n".join(difflib.unified_diff(expected, got, "recorded", "this run", lineterm=""))
    print(diff or "mutants: the matrix matches", file=sys.stderr if diff else sys.stdout)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
