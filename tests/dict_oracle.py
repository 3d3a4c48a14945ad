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
from functools import cache
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


def _step(ka: tuple, kb: tuple, F: tuple, G: tuple):
    """(sign * d_A F coefficient * d_B G coefficient, d_A F, d_B G) of one
    contraction step on the monomials F and G, or None if it vanishes."""
    dF = mono_d_left(ka, F)
    if dF is None:
        return None
    dG = mono_d_left(kb, G)
    if dG is None:
        return None
    parity_f = len(_word(F[1])) % 2
    parity_a = 1 if ka[0] == "odd" else 0
    parity_b = 1 if kb[0] == "odd" else 0
    sign = -1 if parity_b * (parity_f + parity_a) % 2 else 1
    return sign * dF[0] * dG[0], dF[1], dG[1]


def oracle_star(bivector, f, g, max_order: int, plain: bool = False) -> dict:
    """f * g as a plain dict; raises ValueError if the series outlives max_order.

    When every entry is even and has no odd factor, the entries commute
    with every factor and with one another, so the sum over the tuples that
    continue a state (depth, F, G) depends on that state alone, and it is
    memoised on it; each product of entries is built once.  Any other
    bivector, or ``plain``, takes the plain tuple sum.
    """
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
            got = _step(ka, kb, F, G)
            if got is None:
                continue
            factor, dF, dG = got
            c = coeff * factor
            here = poly_mul(centre, entry)
            if not here:
                continue
            if depth == max_order:
                raise ValueError(f"series alive past order {max_order}")
            even, odd, hbar = dF
            shifted = {(even, odd, hbar + n): c / (factorial(n) * 2**n)}
            add(poly_mul(poly_mul(here, shifted), {dG: Fraction(1)}))
            descend(n, dF, dG, c, here)

    @cache
    def series(depth: int, F: tuple, G: tuple) -> dict:
        """What descend(depth, F, G, 1, unit) adds, for central entries, as
        {(path, monomial): coefficient}: the entries commute, so the sorted
        indices of the steps a path takes stand for their product."""
        out: dict = {}
        n = depth + 1
        for i, (ka, kb, entry) in enumerate(steps):
            got = _step(ka, kb, F, G)
            if got is None or not entry:
                continue
            if depth == max_order:
                raise ValueError(f"series alive past order {max_order}")
            c, dF, dG = got
            even, odd, hbar = dF
            parts = [(path, m, c * x) for (path, m), x in series(n, dF, dG).items()]
            emitted = mono_mul((even, odd, hbar + n), dG)
            if emitted is not None:
                sign, m = emitted
                parts.append(((), m, Fraction(sign * c, factorial(n) * 2**n)))
            for path, m, x in parts:
                key = (tuple(sorted(path + (i,))), m)
                out[key] = out.get(key, 0) + x
        return out

    @cache
    def product(path: tuple) -> dict:
        out = {unit: Fraction(1)}
        for i in path:
            out = poly_mul(out, steps[i][2])
        return out

    central = not plain and all(not odd for _, _, entry in steps for _, odd, _ in entry)
    unit = ((0,) * table.n_even, 0, 0)
    for mf, cf in as_dict(f).items():
        for mg, cg in as_dict(g).items():
            add(poly_mul({mf: cf}, {mg: cg}))
            if central:
                for (path, m), x in series(0, mf, mg).items():
                    add(poly_mul(product(path), {m: cf * cg * x}))
            else:
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
