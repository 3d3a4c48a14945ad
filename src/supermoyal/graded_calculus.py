"""Left and right graded derivatives.

Odd derivatives delete one Grassmann factor and pick up the sign of moving
the derivative past the factors it skips; even derivatives are ordinary
partials with the Laurent rule d(l^n) = n*l^(n-1).
"""

from __future__ import annotations

from .graded_ring import EVEN, GradedPoly, Monomial, VarTable


def _left_delete_sign(mask: int, bit: int) -> int:
    # factor sits after `before` earlier factors; left derivative walks past them
    before = (mask & ((1 << bit) - 1)).bit_count()
    return -1 if before & 1 else 1


def _right_delete_sign(mask: int, bit: int) -> int:
    after = (mask >> (bit + 1)).bit_count()
    return -1 if after & 1 else 1


def _var_key(table: VarTable, name: str) -> int:
    """Derivative key of a variable: its even slot, or ~bit for an odd one."""
    if table.parity(name) == EVEN:
        return table.even_slot(name)
    return ~table.odd_bit(name)


def _mono_d(m: Monomial, key: int, left: bool = True) -> tuple[int, Monomial] | None:
    """(coefficient, monomial) of the derivative of one monomial, or None if zero.

    Distinct monomials with a non-zero derivative have distinct derivatives,
    so mapping this over the terms of a polynomial needs no accumulation.
    """
    if key >= 0:
        e = m.even[key]
        if not e:
            return None
        even = list(m.even)
        even[key] = e - 1
        return e, Monomial(tuple(even), m.odd, m.hbar)
    bit = ~key
    if not m.odd >> bit & 1:
        return None
    sign = (_left_delete_sign if left else _right_delete_sign)(m.odd, bit)
    return sign, Monomial(m.even, m.odd ^ (1 << bit), m.hbar)


def _derive(v, a: GradedPoly, left: bool) -> GradedPoly:
    key = _var_key(a.table, v)
    num = {}
    for m, c in a._num.items():
        got = _mono_d(m, key, left)
        if got is not None:
            num[got[1]] = got[0] * c
    return GradedPoly._of_scaled(a.table, num, a._den)


def d_left(v, a: GradedPoly) -> GradedPoly:
    """Left derivative by the named variable."""
    return _derive(v, a, True)


def d_right(v, a: GradedPoly) -> GradedPoly:
    """Right derivative: acts from the other end of the odd factor string."""
    return _derive(v, a, False)
