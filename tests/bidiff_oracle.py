"""Bidifferential step kernel, kept as an oracle for the star-product tests.

The engine contracts with left derivatives on both slots; this kernel takes
a right derivative on the first slot instead, with the matching sign, so it
checks the engine's first order from a different formula.
"""

from supermoyal.graded_calculus import d_left, d_right
from supermoyal.graded_ring import ODD, GradedPoly


def bidiff_apply(entry: GradedPoly, va: str, vb: str, f: GradedPoly, g: GradedPoly):
    """One star-product step for a bivector entry acting on slots (f, g).

    Returns (d_right(A, f), d_left(B, g), sign).  The sign is the Koszul
    factor picked up when entry * slot1 * slot2 is multiplied out, chosen so
    that iterating this kernel yields an associative even-bivector product:

        sign = (-1)^(|B|(|f|+|A|) + |A|(|f|+1))

    f must be parity-homogeneous.
    """
    pf = f.parity()
    if pf == "mixed":
        raise ValueError("bidiff_apply needs a parity-homogeneous first slot")
    t = f.table
    pa = 1 if t.parity(va) == ODD else 0
    pb = 1 if t.parity(vb) == ODD else 0
    nf = 1 if pf == ODD else 0
    exponent = pb * (nf + pa) + pa * (nf + 1)
    sign = -1 if exponent & 1 else 1
    return d_right(va, f), d_left(vb, g), sign
