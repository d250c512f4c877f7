"""Hostile input: the board parser and the CLI keep their documented contracts."""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from fibgrid import SWEEPS, LightState, PolyGF2, StateFormatError
from fibgrid.cli import main

# near-valid boards reach the row and cell checks, not just the header check
_board_text = st.builds(
    lambda head, rows, sep: head + sep + sep.join(rows),
    # the last three sit at or past CPython's 4300-digit int() limit: 5000
    # digits, 4401 only by leading zeros, and exactly 4300
    st.sampled_from(
        ["0", "1", "2", "3", " 2 ", "02", "٣", "x", "", "9" * 5000, "0" * 4400 + "1", "9" * 4300]
    ),
    st.lists(st.text(alphabet="01 2x\t٣²", max_size=4), max_size=5),
    st.sampled_from(["\n", "\r\n", "\r", "\x0b", " "]),
)


@given(st.one_of(st.text(), _board_text))
def test_board_parser_raises_only_its_format_error(text):
    try:
        state = LightState.from_text(text)
    except StateFormatError as exc:
        assert len(str(exc)) < 200  # no message echoes a long side length
        return
    assert LightState.from_text(state.to_text()) == state


# near-valid polynomial text reaches the exponent and repeated-term checks
_poly_text = st.lists(
    st.one_of(
        st.sampled_from(["0", "1", "x", "x^", "x^2", " x^3 ", "x^٣", "x^²", "y", ""]),
        st.integers(0, 10**30).map(lambda k: f"x^{k}"),
    ),
    max_size=5,
).map("+".join)


def _from_hex(text: str) -> PolyGF2:
    """The inverse of to_hex: little-endian coefficient bytes."""
    return PolyGF2(int.from_bytes(bytes.fromhex(text), "little"))


@given(st.one_of(st.text(), _poly_text, st.text(alphabet="0123456789abcdefABCDEF \t")))
def test_poly_parsers_raise_only_value_error(text):
    for parse, render in ((PolyGF2.parse, PolyGF2.to_text), (_from_hex, PolyGF2.to_hex)):
        try:
            p = parse(text)
        except ValueError:
            continue
        assert parse(render(p)) == p


# Each command's optional argument groups; FILE options name files in a
# scratch directory, where board.txt holds drawn bytes.
OPTIONS = {
    "fib": [
        ["--all-methods"],
        ["--format", "hex"],
        ["--format", "text"],
    ],
    "d": [],
    "table": [["-o", "out.csv"]],
    "verify": [["--seed", "3"], ["--nmax", "4"], ["--trials", "2"]],
    "solve": [["--all-ones"], ["--state", "board.txt"], ["--state", "missing.txt"]],
    "sierpinski": [["--ascii"], ["--pbm", "out.pbm"]],
    "oracle": [],
}
# Every verify run ends with the ones its sweeps take, so none runs at its
# default size; a flag that the sweep does not take is refused.
SMALL_BOUNDS = {"nmax": "6", "trials": "3", "kmax": "2", "amax": "5", "degree_cap": "30"}

# Junk leaves out NUL, which no real argv can carry, and path separators,
# so written files stay in the scratch directory.  All-digit junk would be
# a size the number strategy already covers, possibly a slow one.
_junk = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00/\\"),
    max_size=6,
).filter(lambda t: not (t.isascii() and t.isdigit()))
_words = [*OPTIONS, *SWEEPS, "all", "-h"] + [a for g in sum(OPTIONS.values(), []) for a in g]
_token = st.one_of(
    st.sampled_from(_words),
    st.integers(0, 24).map(str),
    _junk,
)


@st.composite
def _session(draw):
    """(argv, board.txt bytes): a well-formed command with up to two tokens inserted."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    n = draw(st.integers(0, 24))
    if command == "verify":
        name = draw(st.sampled_from([*SWEEPS, "all"]))
        argv = [command, name]
    else:
        argv = [command, str(n)]
    if OPTIONS[command]:
        for group in draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=2)):
            argv += group
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(_token))
    if command == "verify":
        takes = SWEEPS[name].__kwdefaults__ if name in SWEEPS else SMALL_BOUNDS
        for bound, value in SMALL_BOUNDS.items():
            if bound in takes:
                argv += ["--" + bound.replace("_", "-"), value]
    side = max(n, 1)
    board = draw(
        st.one_of(
            st.integers(0, (1 << side * side) - 1).map(
                lambda bits: LightState(side, bits).to_text().encode()
            ),
            _board_text.map(str.encode),
            st.binary(max_size=64),
        )
    )
    return argv, board


@given(_session())
def test_cli_exits_only_0_1_or_2(session):
    argv, board = session
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with open("board.txt", "wb") as fh:
                fh.write(board)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(home)
    assert code in (0, 1, 2), argv
