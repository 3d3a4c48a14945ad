"""Reference star products for checking benchmark outputs.

``oracle_star`` sums the Moyal series over ordered tuples of bivector
entries, in the manner of the tuple-sum oracle of the acceptance tests, with
its own left derivative.  It shares no code with ``supermoyal.moyal`` or
``supermoyal.graded_calculus``; only the polynomial arithmetic of
``GradedPoly`` is reused.  The sum over tuples is memoised on
``(order, F, G)``: a tuple's continuation depends only on the pair of
derived operands it reached, and its entry product and sign factor out
because the entries are even and central.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from supermoyal.graded_ring import EVEN, ODD, GradedPoly, Monomial


class OracleTruncated(RuntimeError):
    """The series still has terms past the requested order."""


def d_left(table, name: str, poly: GradedPoly) -> GradedPoly:
    """Left derivative by one variable, written independently of the package."""
    out: dict[Monomial, Fraction] = {}
    if table.parity(name) == EVEN:
        slot = table.even_slot(name)
        for mono, c in poly.terms.items():
            e = mono.even[slot]
            if e:
                even = mono.even[:slot] + (e - 1,) + mono.even[slot + 1:]
                key = Monomial(even, mono.odd, mono.hbar)
                out[key] = out.get(key, 0) + c * e
    else:
        mask = 1 << table.odd_bit(name)
        for mono, c in poly.terms.items():
            if mono.odd & mask:
                skipped = bin(mono.odd & (mask - 1)).count("1")
                key = Monomial(mono.even, mono.odd ^ mask, mono.hbar)
                out[key] = out.get(key, 0) + (-c if skipped & 1 else c)
    return GradedPoly(table, out)


def oracle_star(bivector, f: GradedPoly, g: GradedPoly, max_order: int) -> GradedPoly:
    """f * g for a central even bivector, summed over derivation tuples.

    Raises ``OracleTruncated`` when a tuple longer than ``max_order`` would
    contribute, which is when the engine raises ``TruncationExceeded``.
    """
    table = bivector.table
    rows = []
    for (a, b), entry in bivector.entries.items():
        pa = 1 if table.parity(a) == ODD else 0
        pb = 1 if table.parity(b) == ODD else 0
        rows.append((a, b, pa, pb, entry))
    memo: dict[tuple, GradedPoly] = {}

    def tail(depth: int, F: GradedPoly, G: GradedPoly, pf: int) -> GradedPoly:
        """Sum of all tuples continuing from derived operands (F, G)."""
        key = (depth, F, G)
        got = memo.get(key)
        if got is not None:
            return got
        total = table.zero()
        n = depth + 1
        weight = Fraction(1, factorial(n) * 2**n)
        for a, b, pa, pb, entry in rows:
            Fa = d_left(table, a, F)
            if Fa.is_zero():
                continue
            Gb = d_left(table, b, G)
            if Gb.is_zero():
                continue
            if depth == max_order:
                raise OracleTruncated(f"series alive past order {max_order}")
            pfa = pf ^ pa
            step = table.hbar(n) * Fa * Gb
            step = step.scale(weight) + tail(n, Fa, Gb, pfa)
            total = total + (entry * step).scale(-1 if pb and pfa else 1)
        memo[key] = total
        return total

    out = f * g
    for mono, c in f.terms.items():
        F = GradedPoly(table, {mono: Fraction(1)})
        out = out + tail(0, F, g, mono.parity()).scale(c)
    return out


def oracle_comm(bivector, f: GradedPoly, g: GradedPoly, max_order: int) -> GradedPoly:
    """Graded star commutator f*g - (-1)^(|f||g|) g*f of homogeneous operands."""
    sign = -1 if f.parity() == ODD and g.parity() == ODD else 1
    return oracle_star(bivector, f, g, max_order) - oracle_star(
        bivector, g, f, max_order
    ).scale(sign)


def central_closed_form(table, m: int) -> GradedPoly:
    """z1^m * z2^m on P3|4, where the (z1, z2) entry is 2*l1*l2.

    Only that entry contracts, so the series is
    sum_n (hbar/2)^n (2 l1 l2)^n n! C(m, n)^2 z1^(m-n) z2^(m-n), n = 0..m.
    """
    out = table.zero()
    for n in range(m + 1):
        coeff = Fraction(factorial(n) * comb(m, n) ** 2, 2**n)
        term = table.hbar(n) * (table.var("l1") * table.var("l2")).scale(2) ** n
        term = term * table.var("z1", m - n) * table.var("z2", m - n)
        out = out + term.scale(coeff)
    return out
