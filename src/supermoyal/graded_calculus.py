"""Left and right graded derivatives.

Odd derivatives delete one Grassmann factor and pick up the sign of moving
the derivative past the factors it skips; even derivatives are ordinary
partials with the Laurent rule d(l^n) = n*l^(n-1).
"""

from __future__ import annotations

from .graded_ring import (
    _FIELD, EVEN, EXPONENT_LIMIT, ExponentOverflow, GradedPoly, VarTable, _check_type,
)


def _left_delete_sign(mask: int, bit: int) -> int:
    # factor sits after `before` earlier factors; left derivative walks past them
    before = (mask & ((1 << bit) - 1)).bit_count()
    return -1 if before & 1 else 1


def _right_delete_sign(mask: int, bit: int) -> int:
    after = (mask >> (bit + 1)).bit_count()
    return -1 if after & 1 else 1


def _derivative_key(table: VarTable, name: str) -> int:
    """Derivative key of a variable: its even field's shift, or ~bit for an odd one."""
    if table.parity(name) == EVEN:
        return table._shifts[table.even_slot(name)]
    return ~table.odd_bit(name)


def _mono_d(m: int, key: int, odd: int, left: bool = True) -> tuple[int, int] | None:
    """(coefficient, monomial) of the derivative of one packed monomial, or None if zero.

    ``key`` is the variable's ``_derivative_key`` and ``odd`` the table's odd mask.
    Distinct monomials with a non-zero derivative have distinct derivatives,
    so mapping this over the terms of a polynomial needs no accumulation.
    """
    if key >= 0:
        e = (m >> key & _FIELD) - EXPONENT_LIMIT
        if not e:
            return None
        if e == -EXPONENT_LIMIT:
            raise ExponentOverflow(e - 1)
        return e, m - (1 << key)
    bit = ~key
    if not m >> bit & 1:
        return None
    sign = (_left_delete_sign if left else _right_delete_sign)(m & odd, bit)
    return sign, m ^ (1 << bit)


def _derive(v, a: GradedPoly, left: bool) -> GradedPoly:
    _check_type("variable", v, str)
    _check_type("polynomial", a, GradedPoly)
    key = _derivative_key(a.table, v)
    odd = a.table._odd
    num = {}
    for m, c in a._num.items():
        got = _mono_d(m, key, odd, left)
        if got is not None:
            num[got[1]] = got[0] * c
    return GradedPoly._of_scaled(a.table, num, a._den)


def d_left(v, a: GradedPoly) -> GradedPoly:
    """Left derivative by the named variable."""
    return _derive(v, a, True)


def d_right(v, a: GradedPoly) -> GradedPoly:
    """Right derivative: acts from the other end of the odd factor string."""
    return _derive(v, a, False)
