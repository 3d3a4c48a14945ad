"""Superbivectors, the graded Poisson bracket, and the Schouten bracket.

A bivector is kept as its full coefficient matrix pi^{AB} over a variable
table, with graded antisymmetry pi^{BA} = -(-1)^{|A||B|} pi^{AB}; mirrors of
given entries are filled in automatically.  The bracket orientation matches
the star product's first-order term, so pi_1(f,g) = (1/2){f,g} is an exact
identity, not an up-to-sign statement.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .graded_calculus import d_left
from .graded_ring import ODD, GradedPoly, VarTable


class VariableMismatch(ValueError):
    """Operands are declared over different variable tables."""


class SuperBivector:
    """Coefficient matrix of a super Poisson structure candidate."""

    __slots__ = ("table", "entries", "steps", "parity", "is_central")

    def __init__(self, table: VarTable, entries: Mapping[tuple[str, str], GradedPoly]):
        self.table = table
        full: dict[tuple[str, str], GradedPoly] = {}
        for (a, b), value in entries.items():
            if a not in table or b not in table:
                raise VariableMismatch(f"unknown variable in entry ({a}, {b})")
            if value.table != table:
                raise VariableMismatch(f"entry ({a}, {b}) built over a different table")
            if value.is_zero():
                continue
            pa = 1 if table.parity(a) == ODD else 0
            pb = 1 if table.parity(b) == ODD else 0
            mirror_sign = -1 if (pa * pb) & 1 == 0 else 1
            mirror = value.scale(mirror_sign)
            if a == b:
                if mirror_sign == -1:
                    raise ValueError(f"even diagonal entry ({a}, {a}) must vanish")
                full[(a, a)] = value
                continue
            if (a, b) in full and full[(a, b)] != value:
                raise ValueError(f"conflicting values for entry ({a}, {b})")
            if (b, a) in full and full[(b, a)] != mirror:
                raise ValueError(f"entries ({a}, {b}) and ({b}, {a}) break graded antisymmetry")
            full[(a, b)] = value
            full[(b, a)] = mirror
        self.entries = full
        parities = set()
        steps = []
        for (a, b), value in full.items():
            vp = value.parity()
            if vp == "mixed":
                raise ValueError(f"entry ({a}, {b}) is not parity-homogeneous")
            pa = 1 if table.parity(a) == ODD else 0
            pb = 1 if table.parity(b) == ODD else 0
            parities.add(((1 if vp == ODD else 0) + pa + pb) & 1)
            steps.append((a, b, value, pa, pb))
        if len(parities) > 1:
            raise ValueError("entries do not share a single bivector parity")
        # one contraction step (A, B, pi^{AB}, |A|, |B|) per entry, in table order
        index = table.index
        self.steps = tuple(sorted(steps, key=lambda s: (index(s[0]), index(s[1]))))
        self.parity = parities.pop() if parities else 0
        rows = {a for (a, _), v in full.items()}
        # central: no entry depends on a variable that a step differentiates
        self.is_central = not any(d_left(r, v) for v in full.values() for r in rows)

    def entry(self, a: str, b: str) -> GradedPoly:
        got = self.entries.get((a, b))
        return got if got is not None else self.table.zero()

    def canonical_pairs(self) -> list[tuple[str, str]]:
        """One (A, B) per mirror pair, index A <= index B, in table order."""
        index = self.table.index
        return [(a, b) for a, b, *_ in self.steps if index(a) <= index(b)]

    def rows(self) -> tuple[str, ...]:
        seen = {a for (a, _) in self.entries}
        return tuple(n for n in self.table.names() if n in seen)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperBivector):
            return NotImplemented
        return self.table == other.table and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SuperBivector({len(self.entries)} entries)"


class SuperTrivector:
    """Canonicalized trivector: entries keyed by non-decreasing index triples."""

    __slots__ = ("table", "entries")

    def __init__(self, table: VarTable, entries: Mapping[tuple[int, int, int], GradedPoly]):
        self.table = table
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}

    def is_zero(self) -> bool:
        return not self.entries

    def entry(self, i: int, j: int, k: int) -> GradedPoly:
        got = self.entries.get((i, j, k))
        return got if got is not None else self.table.zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperTrivector):
            return NotImplemented
        return self.table == other.table and self.entries == other.entries


def _bracket_sign(pb: int, pf: int, pa: int) -> int:
    # Koszul factor of one contraction step: (-1)^(|B|(|F|+|A|))
    return -1 if pb & (pf ^ pa) else 1


def poisson_bracket(pi: SuperBivector, f: GradedPoly, g: GradedPoly) -> GradedPoly:
    """{f, g} = sum over entries of sign * pi^{AB} * d_left(A, f) * d_left(B, g)."""
    t = pi.table
    if f.table != t or g.table != t:
        raise VariableMismatch("bracket operands must live over the bivector's table")
    out: dict = {}
    for pf, fp in _parity_parts(f):
        for a, b, entry, pa, pb in pi.steps:
            df = d_left(a, fp)
            if df.is_zero():
                continue
            dg = d_left(b, g)
            if dg.is_zero():
                continue
            sign = _bracket_sign(pb, pf, pa)
            for m, c in (entry * df * dg).terms.items():
                out[m] = out.get(m, 0) + sign * c
    return GradedPoly._of(t, {m: c for m, c in out.items() if c})


def _parity_parts(f: GradedPoly):
    evens = {m: c for m, c in f.terms.items() if not m.parity()}
    odds = {m: c for m, c in f.terms.items() if m.parity()}
    parts = []
    if evens:
        parts.append((0, GradedPoly._of(f.table, evens)))
    if odds:
        parts.append((1, GradedPoly._of(f.table, odds)))
    return parts


def _swap_sign(pa: int, pb: int) -> int:
    # transposing adjacent derivative symbols in a wedge block
    return 1 if pa & pb else -1


def _canonical_triple(table: VarTable, triple: tuple[int, int, int]):
    """Sort a derivative triple to non-decreasing order; None if it vanishes."""
    idx = list(triple)
    parities = [1 if table.specs[i].parity == ODD else 0 for i in idx]
    sign = 1
    for n in range(len(idx) - 1, 0, -1):
        for i in range(n):
            if idx[i] > idx[i + 1]:
                sign *= _swap_sign(parities[i], parities[i + 1])
                idx[i], idx[i + 1] = idx[i + 1], idx[i]
                parities[i], parities[i + 1] = parities[i + 1], parities[i]
    for i in range(2):
        if idx[i] == idx[i + 1] and not parities[i]:
            return None
    return tuple(idx), sign


def schouten_bracket(a: SuperBivector, b: SuperBivector) -> SuperTrivector:
    """Graded Schouten bracket [a, b] as a canonicalized trivector.

    Only zero versus nonzero is contractually meaningful; entries are exact.
    """
    if a.table != b.table:
        raise VariableMismatch("bivectors live over different tables")
    t = a.table
    acc: dict[tuple[int, int, int], GradedPoly] = {}

    def add(triple, value):
        canon = _canonical_triple(t, triple)
        if canon is None or value.is_zero():
            return
        key, sign = canon
        cur = acc.get(key, t.zero())
        acc[key] = cur + value.scale(sign)

    def par(name: str) -> int:
        return 1 if t.parity(name) == ODD else 0

    half = Fraction(1, 2)
    # (1/2) (-1)^(|i1|(|j1|+|j2|+|B|)) A^{mu i1} d_mu(B^{j1 j2}) d_i1 ^ d_j1 ^ d_j2
    for (mu, i1), a_entry in a.entries.items():
        for (j1, j2), b_entry in b.entries.items():
            der = d_left(mu, b_entry)
            if der.is_zero():
                continue
            exp = par(i1) * (par(j1) + par(j2) + b.parity)
            coeff = (a_entry * der).scale(half if exp % 2 == 0 else -half)
            add((t.index(i1), t.index(j1), t.index(j2)), coeff)
    # (1/2) (-1)^(|A|(|j1|+|B|)) B^{mu j1} d_mu(A^{i1 i2}) d_i1 ^ d_i2 ^ d_j1
    for (mu, j1), b_entry in b.entries.items():
        for (i1, i2), a_entry in a.entries.items():
            der = d_left(mu, a_entry)
            if der.is_zero():
                continue
            exp = a.parity * (par(j1) + b.parity)
            coeff = (b_entry * der).scale(half if exp % 2 == 0 else -half)
            add((t.index(i1), t.index(i2), t.index(j1)), coeff)
    return SuperTrivector(t, acc)


def is_poisson(pi: SuperBivector) -> bool:
    """True when [pi, pi] vanishes identically."""
    return schouten_bracket(pi, pi).is_zero()
