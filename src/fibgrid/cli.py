"""Command-line front end: polynomial construction, nullity tables, verification.

Exit status discipline: 0 on success, 1 for honest negative outcomes
(verification failures, unsolvable boards, I/O trouble), 2 for usage and
parse errors.  All output is deterministic for fixed arguments; random
sweeps take an explicit seed with a fixed default.  Sizes above _LIMITS
are refused with status 2 before any work starts.
"""

from __future__ import annotations

import argparse
import collections
import functools
import os
import sys

from .checks import SWEEPS, to_text
from .fibpoly import fib_binomial, fib_hmp, fib_sequence, render, to_ascii, to_pbm
from .grid import GridSystem, LightState, StateFormatError, _side_length, _side_text
from .nullity import d_of_n, delta_closed_form, format_csv, table

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# command -> {argument: largest accepted value}.  At grid side 2000 oracle
# takes 0.24-0.39 s and 19 MiB, solve 0.28-0.42 s and 34 MiB, and side 1983
# (nullity 1280) no longer.  The 0.93 GiB of 2000 vectors of 2000^2 bits is the
# library's kernel_basis(), which no command calls.
# d's GCD runs in GF(2)[x^2 + x] at half the degree of
# f_{n+1}'s odd part and is still quadratic, 3.1-3.7 s at 2,000,000 on a
# shared 2-core machine.  fib builds f_n by the linear ladder, but
# --all-methods also runs the quadratic recurrence, 18-21 s at 1,000,000.
# table runs one GCD per odd part of n + 1, 6.9-9.2 s at 30,000.  A raster of ROWS rows
# prints 2*ROWS^2 characters, 32 MiB at 4096 (85 MiB process peak).  A verify sweep's
# flag has the limit of the command building the same objects: fib for
# hmp-gcd, oracle for oracle, d for all2 and equivalence (2*3^12 - 1 =
# 1,062,881) and powers, table for recurrence (up to d_{2 nmax + 3}) and the
# powers bases d(a - 1).  delta runs one ladder per n and no GCD, about 3.5 s
# at 30,000.  A verify limit bounds each object a sweep builds, not the sweep.
# A verify flag that the named sweep does not take is refused.
_LIMITS = {
    "fib": {"n": 1_000_000},
    "d": {"n": 2_000_000},
    "table": {"n_max": 30_000},
    "solve": {"n": 2000},
    "oracle": {"n": 2000},
    "sierpinski": {"rows": 4096},
    "verify recurrence": {"nmax": 14_999},
    "verify delta": {"nmax": 30_000},
    "verify hmp-gcd": {"nmax": 1_000_000, "trials": 100_000},  # 11 s at the limit, nmax 2000
    "verify oracle": {"nmax": 2000},
    "verify all2": {"kmax": 12},
    "verify powers": {"degree_cap": 2_000_000, "amax": 30_001},
    "verify equivalence": {"kmax": 12},
}

# the bounds each sweep takes, keyword-only with defaults; verify's flags are their union
_TAKES = {name: list(sweep.__kwdefaults__) for name, sweep in SWEEPS.items()}
_BOUNDS = sorted({bound for bounds in _TAKES.values() for bound in bounds})


def _flag(bound: str) -> str:
    return "--" + bound.replace("_", "-")


def _decimal(minimum: int):
    """argparse type for a plain decimal integer with a lower bound."""

    def convert(text: str) -> int:
        # CPython's int() refuses more digits than this, and argparse would echo them all
        if len(text) > 4300:
            raise argparse.ArgumentTypeError(f"has {len(text)} characters, at most 4300 accepted")
        if not (text.isascii() and text.isdigit()):
            raise argparse.ArgumentTypeError(f"{text!r} is not a decimal integer")
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return value

    return convert


def _write(command: str, path: str | None, text: str) -> int:
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"{command}: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# -- subcommand implementations ----------------------------------------------


def cmd_fib(args: argparse.Namespace) -> int:
    f = fib_hmp(args.n)
    if args.all_methods:
        # the recurrence's f_n ends its run; a one-slot deque keeps only that item
        recursive = collections.deque(fib_sequence(args.n), maxlen=1)[0]
        results = {"recursive": recursive, "binomial": fib_binomial(args.n), "hmp": f}
        if len(set(p.bits for p in results.values())) > 1:
            detail = ", ".join(f"{name}: {p.to_text()}" for name, p in results.items())
            print(f"fib: methods disagree for n={args.n}: {detail}", file=sys.stderr)
            return EXIT_FAIL
    print(f.to_hex() if args.format == "hex" else f.to_text())
    return EXIT_OK


def cmd_d(args: argparse.Namespace) -> int:
    print(f"n={args.n} d={d_of_n(args.n)} delta={delta_closed_form(args.n)}")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    return _write("table", args.output, format_csv(table(args.n_max)))


def cmd_solve(args: argparse.Namespace) -> int:
    if args.all_ones:
        state = LightState.all_on(args.n)
    else:
        # a side-n board and n + 1 more characters; each line end counts as one
        # character, whatever its form; reading stops one past, so no file exhausts memory
        cap = len(str(args.n)) + 2 + args.n * (args.n + 2)
        try:
            # latin-1 maps every byte to one character, so a stray byte is
            # reported by from_text with its position instead of failing to decode;
            # text mode turns CR and CRLF line ends into LF, so text holds no CR
            with open(args.state, "r", encoding="latin-1") as fh:
                text = fh.read(cap + 1)
        except OSError as exc:
            print(f"solve: cannot read {args.state}: {exc}", file=sys.stderr)
            return EXIT_FAIL
        try:
            if len(text) > cap:
                try:  # a side-length line that ends within the text may name another side
                    side = _side_length(text) if "\n" in text else args.n
                except StateFormatError:
                    side = args.n
                if side == args.n:
                    line = text.count("\n", 0, cap) + 1
                    column = cap - text.rfind("\n", 0, cap)
                    message = f"file exceeds {cap} characters, the most a side-{args.n} board needs"
                    raise StateFormatError(message, line, column)
            else:
                side = (state := LightState.from_text(text)).n
        except StateFormatError as exc:
            print(f"solve: {args.state}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if side != args.n:
            print(
                f"solve: {args.state} is a side-{_side_text(side)} board, expected side {args.n}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    pattern = GridSystem(args.n).solve(state)
    if pattern is None:
        print("unsolvable")
        return EXIT_FAIL
    sys.stdout.write(pattern.to_text())
    return EXIT_OK


def cmd_sierpinski(args: argparse.Namespace) -> int:
    raster = render(args.rows)
    return _write("sierpinski", args.pbm, (to_ascii if args.ascii else to_pbm)(raster))


def cmd_oracle(args: argparse.Namespace) -> int:
    system = GridSystem(args.n)
    print(f"n={args.n} nullity={system.nullity()}")
    return EXIT_OK


# -- verification sweeps -------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SWEEPS) if args.name == "all" else [args.name]
    all_ok = True
    for name in names:
        bounds = {k: getattr(args, k) for k in _TAKES[name] if getattr(args, k) is not None}
        for report in SWEEPS[name](**bounds):
            all_ok &= report.first_failure is None
            sys.stdout.write(to_text(report))
    if len(names) > 1:
        print(f"verify: {'all checks passed' if all_ok else 'FAILURES above'}")
    return EXIT_OK if all_ok else EXIT_FAIL


# -- parser --------------------------------------------------------------------


@functools.cache  # built on main's first call, not at import, and reused after
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibgrid",
        description="GF(2) Fibonacci polynomials and grid toggle-game nullities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fib", help="print one Fibonacci polynomial over GF(2)")
    p.add_argument("n", type=_decimal(0), help="index, n >= 0")
    p.add_argument(
        "--all-methods",
        action="store_true",
        help="compute by every method and fail on any disagreement",
    )
    p.add_argument("--format", choices=["text", "hex"], default="text")
    p.set_defaults(func=cmd_fib)

    p = sub.add_parser("d", help="kernel dimension and delta for one side length")
    p.add_argument("n", type=_decimal(1), help="grid side length, n >= 1")
    p.set_defaults(func=cmd_d)

    p = sub.add_parser("table", help="CSV table of n,d,delta for n=1..NMAX")
    p.add_argument("n_max", type=_decimal(1), metavar="NMAX")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run one named verification sweep, or all")
    p.add_argument("name", choices=sorted(SWEEPS) + ["all"])
    p.add_argument("--nmax", type=_decimal(1), help="sweep bound where applicable")
    p.add_argument("--trials", type=_decimal(1), help="random trial count where applicable")
    p.add_argument("--kmax", type=_decimal(1), help="exponent bound where applicable")
    p.add_argument("--amax", type=_decimal(3), help="base bound for the powers check")
    p.add_argument(
        "--degree-cap",
        type=_decimal(3),
        help="skip power cases with a^k beyond this degree",
    )
    p.add_argument("--seed", type=_decimal(0), help="seed for the random sweeps")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="press pattern turning a board all-off")
    p.add_argument("n", type=_decimal(1), help="grid side length, n >= 1")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--all-ones", action="store_true", help="solve the all-on board")
    src.add_argument("--state", help="board file: side length line, then 0/1 rows")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sierpinski", help="coefficient raster of the polynomial family")
    p.add_argument("rows", type=_decimal(1), metavar="ROWS")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--pbm", metavar="FILE", help="write plain PBM to a file")
    fmt.add_argument("--ascii", action="store_true", help="print '#'/'.' art instead of PBM")
    p.set_defaults(func=cmd_sierpinski)

    p = sub.add_parser("oracle", help="grid nullity by light chasing, no polynomials")
    p.add_argument("n", type=_decimal(1), help="grid side length, n >= 1")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    keys = [args.command]
    if args.command == "verify":
        keys = [f"verify {name}" for name in (SWEEPS if args.name == "all" else [args.name])]
        takes = _TAKES.get(args.name, _BOUNDS)  # all takes every bound
        stray = [b for b in _BOUNDS if b not in takes and getattr(args, b) is not None]
        if stray:
            message = f"{_flag(stray[0])} does not apply; it takes {', '.join(map(_flag, takes))}"
            print(f"verify {args.name}: {message}", file=sys.stderr)
            return EXIT_USAGE
    for key in keys:
        for name, limit in _LIMITS.get(key, {}).items():
            value = getattr(args, name)
            if value is not None and value > limit:
                print(f"{key}: {name} must be <= {limit}, got {value}", file=sys.stderr)
                return EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a buffered write fails here, not at interpreter exit
    except OSError as exc:  # a full device, or a closed pipe (BrokenPipeError)
        print(f"{args.command}: cannot write standard output: {exc}", file=sys.stderr)
        with open(os.devnull, "w") as null:  # a second failed flush at exit ends in status 120
            try:
                os.dup2(null.fileno(), sys.stdout.fileno())
            except (AttributeError, ValueError):  # no descriptor (io.UnsupportedOperation)
                pass
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
