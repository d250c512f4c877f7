"""The product-GCD identity over GF(2)[x], a Tier-1 check of the ring kernels.

Writing (u, v) for gcd(u, v), g1 = (a, c) and g2 = (b, d),

    (ab, cd) = g1 g2 (a/g1, d/g2) (c/g1, b/g2)

for nonzero a, b, c, d.  It holds in every unique factorization domain, as
comparing valuations prime by prime shows, so it says nothing about d_n; it
checks the kernels.  The right-hand side is built here from the public gcd,
divmod and *, so the identity reaches _mul_bits and _divmod_bits, which no
CLI command calls.
"""

from __future__ import annotations

from fibgrid import PolyGF2, gcd


def factored_product_gcd(a: PolyGF2, b: PolyGF2, c: PolyGF2, d: PolyGF2) -> PolyGF2:
    """gcd(a*b, c*d) assembled from four GCDs of smaller operands; all four nonzero."""
    g1, g2 = gcd(a, c), gcd(b, d)
    a1, c1 = divmod(a, g1)[0], divmod(c, g1)[0]
    b1, d1 = divmod(b, g2)[0], divmod(d, g2)[0]
    return g1 * g2 * (gcd(a1, d1) * gcd(c1, b1))

