"""Left and right graded derivatives.

Odd derivatives delete one Grassmann factor and pick up the sign of moving
the derivative past the factors it skips; even derivatives are ordinary
partials with the Laurent rule d(l^n) = n*l^(n-1).
"""

from __future__ import annotations

from fractions import Fraction

from .graded_ring import EVEN, GradedPoly, Monomial, VarSpec


def _left_delete_sign(mask: int, bit: int) -> int:
    # factor sits after `before` earlier factors; left derivative walks past them
    before = (mask & ((1 << bit) - 1)).bit_count()
    return -1 if before & 1 else 1


def _right_delete_sign(mask: int, bit: int) -> int:
    after = (mask >> (bit + 1)).bit_count()
    return -1 if after & 1 else 1


def _name(v) -> str:
    return v.name if isinstance(v, VarSpec) else v


def _even_partial(a: GradedPoly, slot: int) -> GradedPoly:
    terms: dict[Monomial, Fraction] = {}
    for m, c in a.terms.items():
        e = m.even[slot]
        if e == 0:
            continue
        even = list(m.even)
        even[slot] = e - 1
        mm = Monomial(tuple(even), m.odd, m.hbar)
        q = terms.get(mm, 0) + c * e
        if q:
            terms[mm] = q
        else:
            terms.pop(mm, None)
    return GradedPoly(a.table, terms)


def _odd_delete(a: GradedPoly, bit: int, sign_of) -> GradedPoly:
    mask_bit = 1 << bit
    terms: dict[Monomial, Fraction] = {}
    for m, c in a.terms.items():
        if not m.odd & mask_bit:
            continue
        mm = Monomial(m.even, m.odd ^ mask_bit, m.hbar)
        q = terms.get(mm, 0) + c * sign_of(m.odd, bit)
        if q:
            terms[mm] = q
        else:
            terms.pop(mm, None)
    return GradedPoly(a.table, terms)


def d_left(v, a: GradedPoly) -> GradedPoly:
    """Left derivative by the named variable."""
    t = a.table
    spec = t.spec(_name(v))
    if spec.parity == EVEN:
        return _even_partial(a, t.even_slot(spec.name))
    return _odd_delete(a, t.odd_bit(spec.name), _left_delete_sign)


def d_right(v, a: GradedPoly) -> GradedPoly:
    """Right derivative: acts from the other end of the odd factor string."""
    t = a.table
    spec = t.spec(_name(v))
    if spec.parity == EVEN:
        return _even_partial(a, t.even_slot(spec.name))
    return _odd_delete(a, t.odd_bit(spec.name), _right_delete_sign)

