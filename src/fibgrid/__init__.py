"""Bit-packed GF(2) kernels for the grid toggle game.

The package computes the Fibonacci polynomial family over GF(2), reduces
the kernel dimension of the n x n all-press toggle system to a single
polynomial GCD, cross-checks that shortcut against light chasing on the
grid itself (one n x n elimination, no polynomials), and sweeps the
identities and open conjectures that the nullity sequence satisfies.
"""

from .checks import DEFAULT_DEGREE_CAP, SWEEPS, Case, Report, to_text
from .fibpoly import (
    fib_binomial,
    fib_hmp,
    fib_sequence,
)
from .grid import GridSystem, LightState, StateFormatError
from .nullity import (
    NullityRecord,
    d_of_n,
    delta_closed_form,
    delta_via_gcd,
    format_csv,
    table,
)
from .polygf2 import (
    ONE,
    X,
    ZERO,
    PolyGF2,
    gcd,
    ore_product_gcd,
    subst_x_plus_1,
)
from .sierpinski import SierpinskiRaster, render, to_ascii, to_pbm

__version__ = "0.1.0"

__all__ = [
    "PolyGF2",
    "ZERO",
    "ONE",
    "X",
    "gcd",
    "subst_x_plus_1",
    "ore_product_gcd",
    "fib_binomial",
    "fib_hmp",
    "fib_sequence",
    "NullityRecord",
    "d_of_n",
    "delta_closed_form",
    "delta_via_gcd",
    "table",
    "format_csv",
    "LightState",
    "GridSystem",
    "StateFormatError",
    "Case",
    "Report",
    "DEFAULT_DEGREE_CAP",
    "SWEEPS",
    "to_text",
    "SierpinskiRaster",
    "render",
    "to_pbm",
    "to_ascii",
    "__version__",
]
