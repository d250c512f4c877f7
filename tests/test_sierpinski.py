"""Coefficient raster: structure, renderings, and the binomial parity oracle."""

from __future__ import annotations

from math import comb

import pytest

from fibgrid import X, PolyGF2, fib_binomial, render, to_ascii, to_pbm


def test_render_shape():
    raster = render(8)
    assert raster.n_rows == 8
    assert raster.width == 8
    assert len(raster.rows) == 8
    # row n carries f_n: degree n-1 keeps everything inside the square.  render
    # streams the recurrence, so its rows are checked against the binomial form
    for i, bits in enumerate(raster.rows):
        assert bits == fib_binomial(i + 1).bits
        assert bits.bit_length() - 1 == i  # highest lit column sits on the diagonal
    with pytest.raises(ValueError):
        render(0)


def test_single_cell():
    raster = render(1)
    assert raster.rows == (1,)
    assert to_pbm(raster) == "P1\n1 1\n1\n"
    assert to_ascii(raster) == "#\n"


def test_row_six():
    assert render(8).rows[5] == 0b100010  # f_6 = x^5 + x
    assert to_ascii(render(8)).splitlines()[5] == ".#...#.."


def test_pbm_format():
    text = to_pbm(render(4))
    assert text == "P1\n4 4\n1 0 0 0\n0 1 0 0\n1 0 1 0\n0 0 0 1\n"


def test_ascii_format():
    text = to_ascii(render(4))
    assert text == "#...\n.#..\n#.#.\n...#\n"


def test_against_binomial_parity_oracle():
    raster = render(64)
    for n in range(1, 65):
        for i in range(64):
            want = comb(n + i, 2 * i + 1) % 2
            assert raster.rows[n - 1] >> i & 1 == want, f"n={n}, i={i}"


def test_self_similarity():
    # row 2n is row n squared times x, so the gasket reproduces itself at
    # double scale with a one-column shift
    raster = render(128)
    for n in range(1, 65):
        doubled = X * PolyGF2(raster.rows[n - 1]) ** 2
        assert raster.rows[2 * n - 1] == doubled.bits
