"""Bit-packed GF(2) kernels for the grid toggle game.

The package computes the Fibonacci polynomial family over GF(2), reduces the
kernel dimension of the n x n all-press toggle system to a single polynomial
GCD, cross-checks it by light chasing (f_{n+1}'s recurrence at the line
operator, no polygf2 kernel, GCD, ladder or y-basis), and sweeps the
identities and open conjectures that the nullity sequence satisfies.

Each module's __all__ owns its public names; the package re-exports them.
"""

from . import checks, fibpoly, grid, nullity, polygf2
from .checks import *
from .fibpoly import *
from .grid import *
from .nullity import *
from .polygf2 import *

__version__ = "0.1.0"

__all__ = [
    *polygf2.__all__,
    *fibpoly.__all__,
    *nullity.__all__,
    *grid.__all__,
    *checks.__all__,
    "__version__",
]
