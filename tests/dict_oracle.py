"""Tuple-sum star product over plain dicts, kept as an oracle for the engine.

It shares no arithmetic with the package: a polynomial is a dict
``{(even exponents, odd bitmask, hbar power): Fraction}``, and the monomial
product, the left derivative and the Koszul signs are written out here from
the odd factor word.  Only the variable table's slot lookups and the terms
of the operands and entries are read from the package objects.

The order-n term is the plain sum over every n-tuple of bivector entries,

    hbar^n / (n! 2^n) * sum sign * pi^{A1B1}...pi^{AnBn}
                        * d_{An}...d_{A1} f * d_{Bn}...d_{B1} g,

where step k contributes (-1)^(|Bk| (|F| + |Ak|)) and |F| is the parity of
the first slot before that step.
"""

from fractions import Fraction
from math import factorial


def _word(mask: int) -> list[int]:
    """Odd factors of a bitmask, in ascending order."""
    return [bit for bit in range(mask.bit_length()) if mask >> bit & 1]


def _sort_sign(word: list[int]) -> int:
    """(-1)^(adjacent swaps that sort the word), counted by a bubble sort."""
    word = list(word)
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
    return sign


def mono_mul(a: tuple, b: tuple):
    """(sign, a*b) for two monomial keys, or None when an odd factor repeats."""
    (ea, oa, ha), (eb, ob, hb) = a, b
    if oa & ob:
        return None
    sign = _sort_sign(_word(oa) + _word(ob))
    return sign, (tuple(x + y for x, y in zip(ea, eb)), oa | ob, ha + hb)


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            got = mono_mul(a, b)
            if got is not None:
                sign, m = got
                out[m] = out.get(m, 0) + sign * ca * cb
    return {m: c for m, c in out.items() if c}


def mono_d_left(key: tuple, m: tuple):
    """(coefficient, monomial) of the left derivative, or None if it vanishes.

    ``key`` is ("even", slot) or ("odd", bit).  An odd derivative moves past
    the factors before its own in the word, one sign each.
    """
    kind, i = key
    even, odd, hbar = m
    if kind == "even":
        if not even[i]:
            return None
        return even[i], (even[:i] + (even[i] - 1,) + even[i + 1:], odd, hbar)
    word = _word(odd)
    if i not in word:
        return None
    return (-1) ** word.index(i), (even, odd ^ (1 << i), hbar)


def as_dict(p) -> dict:
    """The terms of a package polynomial as a plain dict of Fractions."""
    return {(m.even, m.odd, m.hbar): Fraction(c) for m, c in p.terms.items()}


def _key(table, name: str) -> tuple:
    if table.parity(name) == "odd":
        return ("odd", table.odd_bit(name))
    return ("even", table.even_slot(name))


def oracle_star(bivector, f, g, max_order: int) -> dict:
    """f * g as a plain dict; raises ValueError if the series outlives max_order."""
    table = bivector.table
    steps = [
        (_key(table, a), _key(table, b), as_dict(entry))
        for (a, b), entry in bivector.entries.items()
    ]
    total: dict = {}

    def add(poly: dict) -> None:
        for m, c in poly.items():
            total[m] = total.get(m, 0) + c

    def descend(depth: int, F: tuple, G: tuple, coeff: Fraction, centre: dict) -> None:
        n = depth + 1
        for ka, kb, entry in steps:
            dF = mono_d_left(ka, F)
            if dF is None:
                continue
            dG = mono_d_left(kb, G)
            if dG is None:
                continue
            parity_f = len(_word(F[1])) % 2
            parity_a = 1 if ka[0] == "odd" else 0
            parity_b = 1 if kb[0] == "odd" else 0
            sign = -1 if parity_b * (parity_f + parity_a) % 2 else 1
            c = coeff * sign * dF[0] * dG[0]
            here = poly_mul(centre, entry)
            if not here:
                continue
            if depth == max_order:
                raise ValueError(f"series alive past order {max_order}")
            even, odd, hbar = dF[1]
            shifted = {(even, odd, hbar + n): c / (factorial(n) * 2**n)}
            add(poly_mul(poly_mul(here, shifted), {dG[1]: Fraction(1)}))
            descend(n, dF[1], dG[1], c, here)

    unit = ((0,) * table.n_even, 0, 0)
    for mf, cf in as_dict(f).items():
        for mg, cg in as_dict(g).items():
            add(poly_mul({mf: cf}, {mg: cg}))
            descend(0, mf, mg, cf * cg, {unit: Fraction(1)})
    return {m: c for m, c in total.items() if c}


def oracle_bracket(bivector, f, g) -> dict:
    """{f, g} as a plain dict: the sum over every entry (A, B) and every pair
    of terms F of f and G of g of (-1)^(|B| (|F| + |A|)) pi^{AB} d_A F d_B G."""
    table = bivector.table
    fs, gs = as_dict(f), as_dict(g)
    total: dict = {}
    for (a, b), entry in bivector.entries.items():
        ka, kb = _key(table, a), _key(table, b)
        parity_a = 1 if ka[0] == "odd" else 0
        parity_b = 1 if kb[0] == "odd" else 0
        for mf, cf in fs.items():
            dF = mono_d_left(ka, mf)
            if dF is None:
                continue
            sign = -1 if parity_b * (len(_word(mf[1])) + parity_a) % 2 else 1
            left = poly_mul(as_dict(entry), {dF[1]: sign * dF[0] * cf})
            for mg, cg in gs.items():
                dG = mono_d_left(kb, mg)
                if dG is not None:
                    for m, c in poly_mul(left, {dG[1]: dG[0] * cg}).items():
                        total[m] = total.get(m, 0) + c
    return {m: c for m, c in total.items() if c}
