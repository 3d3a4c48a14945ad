"""Superbivectors, the graded Poisson bracket, and the Schouten bracket.

A bivector is kept as its full coefficient matrix pi^{AB} over a variable
table, with graded antisymmetry pi^{BA} = -(-1)^{|A||B|} pi^{AB}; mirrors of
given entries are filled in automatically.  The bracket orientation matches
the star product's first-order term, so pi_1(f,g) = (1/2){f,g} is an exact
identity, not an up-to-sign statement.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType
from collections.abc import Mapping

from .graded_calculus import _derivative_key, _mono_d, d_left
from .graded_ring import EVEN, ODD, GradedPoly, VarTable, _ReadOnly, _check_type, _mono_mul


class VariableMismatch(ValueError):
    """Operands are declared over different variable tables."""


class SuperBivector(_ReadOnly):
    """Coefficient matrix of a super Poisson structure candidate.

    Construction computes, once, all that the bracket and the star engine
    read; nothing is written afterwards.  ``_rows`` holds one contraction
    step per entry, mirrors included, packed and grouped by row A as (key A,
    mask A, bits A, |A|, ((key B, mask B, bits B, d_e * pi^{AB} as ints,
    |B|), ...)), rows and partners in table order (``rows()`` names the
    rows), ``_d_e`` the entries' common denominator, keys from
    ``_derivative_key`` and a packed m having the factor A when m & mask !=
    bits; ``_blocks`` the star engine's blocks of those rows, with
    ``_row_mask`` the rows' bits in ``VarTable._factor_bits``; ``_passive``
    the bits of hbar and of the even variables that are no row, which no
    step differentiates (a negative int: hbar's bits have no top); and
    ``_refusal`` why a star product must refuse the bivector, or None.
    """

    __slots__ = (
        "table", "entries", "parity", "is_central", "_d_e", "_row_names", "_rows", "_blocks",
        "_row_mask", "_passive", "_refusal",
    )

    def __init__(self, table: VarTable, entries: Mapping[tuple[str, str], GradedPoly]):
        _check_type("table", table, VarTable)
        _check_type("entries", entries, Mapping)
        self.table = table
        full: dict[tuple[str, str], GradedPoly] = {}
        for key, value in entries.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise TypeError(f"entry key {key!r} must be a pair of variable names")
            a, b = key
            if a not in table or b not in table:
                raise VariableMismatch(f"unknown variable in entry ({a}, {b})")
            if not isinstance(value, GradedPoly):
                raise TypeError(f"entry ({a}, {b}) must be a GradedPoly, got {type(value).__name__}")
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
            full[(a, b)] = value
            full[(b, a)] = mirror
        # read-only, as a built-in model's bivector is shared by every caller
        self.entries = MappingProxyType(full)
        zero, hbar_shift = table._zero, table._hbar_shift
        parities = set()
        support = 0  # every bit where a monomial of an entry differs from the unit's
        refusal = None  # the first entry, in entry order, that is odd or holds hbar
        for (a, b), value in full.items():
            vp = value.parity()
            if vp == "mixed":
                raise ValueError(f"entry ({a}, {b}) is not parity-homogeneous")
            pa = 1 if table.parity(a) == ODD else 0
            pb = 1 if table.parity(b) == ODD else 0
            parities.add(((1 if vp == ODD else 0) + pa + pb) & 1)
            bits = 0
            for m in value._num:
                bits |= m ^ zero
            support |= bits
            if refusal is None:
                if vp != EVEN:
                    refusal = f"entry ({a}, {b}) is not even"
                elif bits >> hbar_shift:
                    # a term's contraction order is read off its hbar power
                    refusal = f"entry ({a}, {b}) contains hbar"
        if len(parities) > 1:
            raise ValueError("entries do not share a single bivector parity")
        index = table.index
        rows: dict[str, list] = {}
        for a, b in sorted(full, key=lambda k: (index(k[0]), index(k[1]))):
            rows.setdefault(a, []).append((b, full[a, b]))
        self._row_names = tuple(rows)
        self.parity = parities.pop() if parities else 0
        self._d_e = d_e = lcm(*(value._den for value in full.values()))
        # every partner B is a row too, as its mirror entry is there
        packed = {a: (_derivative_key(table, a), *table._support(a)) for a in rows}
        odd = {a: 1 if table.parity(a) == ODD else 0 for a in rows}
        self._rows = tuple(
            (*packed[a], odd[a], tuple(
                (*packed[b], {m: c * (d_e // e._den) for m, c in e._num.items()}, odd[b])
                for b, e in partners
            ))
            for a, partners in rows.items()
        )
        # central: no entry has a factor of a row (distinct variables' masks are disjoint)
        rows_mask = sum(row[1] for row in self._rows)
        self.is_central = not support & rows_mask
        self._row_mask = rows_mask & (table._guard | table._odd)
        self._passive = -1 << hbar_shift | table._evens & ~rows_mask
        if not self.is_central:
            refusal = "bivector entries depend on contracted variables"
        self._refusal = refusal
        self._blocks = _blocks(table, self._rows, self.parity or support & table._odd)

    def entry(self, a: str, b: str) -> GradedPoly:
        """pi^{ab}, zero where no entry is set; a name the table does not
        declare is refused as ``VarTable.index`` refuses it."""
        try:
            got = self.entries.get((a, b))
        except TypeError:  # an unhashable name
            got = None
        if got is None:
            for name in (a, b):
                self.table.index(name)  # raises for a name not in the table
            return self.table.zero()
        return got

    def canonical_pairs(self) -> list[tuple[str, str]]:
        """One (A, B) per mirror pair, index A <= index B, in table order."""
        index = self.table.index
        pairs = [(index(a), index(b), a, b) for a, b in self.entries if index(a) <= index(b)]
        return [(a, b) for _, _, a, b in sorted(pairs)]

    def rows(self) -> tuple[str, ...]:
        return self._row_names

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperBivector):
            return NotImplemented
        return self.table == other.table and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SuperBivector({len(self.entries)} entries)"


def _blocks(table: VarTable, rows: tuple, joint: bool) -> tuple:
    """The star engine's blocks of packed rows, as (rows, mask, fill, links).

    A block is a connected component of the graph joining A and B when
    pi^{AB} != 0, in the order of its first row; its mask covers its fields
    and odd bits, and fill sets every other field to the bias.  ``links``
    holds (row bit, partner bits) for each of its rows, a variable's bit
    being its bit in ``VarTable._factor_bits``, so the block has a step
    (A, B) with A dividing mf and B dividing mg exactly when a row bit of
    mf links to a partner bit of mg.  Where the split is not exact
    (``joint``: an odd bivector or an odd entry factor), one block covers
    every variable (see "Blocks" in ``moyal``).
    """
    bit = table._guard | table._odd  # of a row's mask, its bit

    def links(block):
        return tuple((row[1] & bit, sum(p[1] & bit for p in row[4])) for row in block)

    if joint and rows:
        return ((rows, table._evens | table._odd, 0, links(rows)),)
    partners_of = {row[0]: row[4] for row in rows}
    home: dict[int, list] = {}  # row key -> the rows of its block
    blocks = []
    for row in rows:
        if row[0] not in home:
            todo, home[row[0]] = [row[0]], []
            blocks.append(home[row[0]])
            while todo:
                for partner in partners_of[todo.pop()]:
                    if (kb := partner[0]) not in home:
                        home[kb] = blocks[-1]
                        todo.append(kb)
        home[row[0]].append(row)
    masks = [sum(row[1] for row in block) for block in blocks]
    return tuple((tuple(b), mask, table._zero & ~mask, links(b)) for b, mask in zip(blocks, masks))


def _bracket_sign(pb: int, pf: int, pa: int) -> int:
    # Koszul factor of one contraction step: (-1)^(|B|(|F|+|A|))
    return -1 if pb & (pf ^ pa) else 1


def _row_derivatives(pi: SuperBivector, p: GradedPoly) -> dict[int, list]:
    """d_left(A, p) for every row A of pi with a non-zero one, keyed by A's
    derivative key, as (coefficient, monomial, parity of the term of p)
    triples with the coefficients over p's denominator."""
    odd = pi.table._odd
    out = {}
    for ka, *_ in pi._rows:
        d = [
            (got[0] * c, got[1], (m & odd).bit_count() & 1) for m, c in p._num.items()
            if (got := _mono_d(m, ka, odd)) is not None
        ]
        if d:
            out[ka] = d
    return out


def _bracket_num(pi: SuperBivector, df: dict, dg: dict) -> dict[int, int]:
    """Numerators of {f, g} over d_e * f's denominator * g's, with no zero
    entry, from the ``_row_derivatives`` tables df of f and dg of g."""
    t = pi.table
    out: dict[int, int] = {}
    for ka, _, _, pa, partners in pi._rows:
        dfs = df.get(ka)
        if dfs is None:
            continue
        for kb, _, _, entry, pb in partners:
            dgs = dg.get(kb)
            if dgs is None:
                continue
            signs = _bracket_sign(pb, 0, pa), _bracket_sign(pb, 1, pa)
            for me, ce in entry.items():
                for cf, mf, pf in dfs:
                    ef = _mono_mul(me, mf, t)
                    if ef is None:
                        continue
                    c = signs[pf] * ef[0] * ce * cf
                    for cg, mg, _ in dgs:
                        efg = _mono_mul(ef[1], mg, t)
                        if efg is not None:
                            out[efg[1]] = out.get(efg[1], 0) + efg[0] * c * cg
    return {m: c for m, c in out.items() if c}


def poisson_bracket(pi: SuperBivector, f: GradedPoly, g: GradedPoly) -> GradedPoly:
    """{f, g} = sum over entries of sign * pi^{AB} * d_left(A, f) * d_left(B, g).

    Each operand's row derivatives are taken once (``_row_derivatives``),
    and ``_bracket_num`` sums the terms into one map of packed monomials
    over the common denominator of f, g and the entries, with the sign
    (-1)^(|B| (|F| + |A|)) of each term F of f.  It reads the bivector's
    packed steps, as the star engine does, but sums them with its own code
    and sign, so the order-1 check, which compares those numerators with
    the product's, compares two separate computations; any entries will do,
    non-central, odd and Laurent ones included.
    """
    _check_type("bivector", pi, SuperBivector)
    _check_type("bracket operand", f, GradedPoly)
    _check_type("bracket operand", g, GradedPoly)
    t = pi.table
    if f.table != t or g.table != t:
        raise VariableMismatch("bracket operands must live over the bivector's table")
    num = _bracket_num(pi, _row_derivatives(pi, f), _row_derivatives(pi, g))
    return GradedPoly._of_scaled(t, num, pi._d_e * f._den * g._den)


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


def schouten_bracket(a: SuperBivector, b: SuperBivector) -> Mapping[tuple[int, int, int], GradedPoly]:
    """Graded Schouten bracket [a, b]: its non-zero components, read-only.

    Each is keyed by its canonical index triple, non-decreasing, so the
    bracket vanishes exactly when the mapping is empty.  Only zero versus
    nonzero is contractually meaningful; entries are exact.
    """
    _check_type("bivector", a, SuperBivector)
    _check_type("bivector", b, SuperBivector)
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

    def derivatives(pi: SuperBivector, by: SuperBivector) -> dict[str, list]:
        """d_mu of each entry of pi, for every row mu of ``by``: the non-zero
        ones, in entry order, each taken once."""
        return {
            mu: [(pair, der) for pair, entry in pi.entries.items() if (der := d_left(mu, entry))]
            for mu in by.rows()
        }

    d_b = derivatives(b, a)
    d_a = d_b if a is b else derivatives(a, b)
    half = Fraction(1, 2)
    # (1/2) (-1)^(|i1|(|j1|+|j2|+|B|)) A^{mu i1} d_mu(B^{j1 j2}) d_i1 ^ d_j1 ^ d_j2
    for (mu, i1), a_entry in a.entries.items():
        for (j1, j2), der in d_b[mu]:
            exp = par(i1) * (par(j1) + par(j2) + b.parity)
            coeff = (a_entry * der).scale(half if exp % 2 == 0 else -half)
            add((t.index(i1), t.index(j1), t.index(j2)), coeff)
    # (1/2) (-1)^(|A|(|j1|+|B|)) B^{mu j1} d_mu(A^{i1 i2}) d_i1 ^ d_i2 ^ d_j1
    for (mu, j1), b_entry in b.entries.items():
        for (i1, i2), der in d_a[mu]:
            exp = a.parity * (par(j1) + b.parity)
            coeff = (b_entry * der).scale(half if exp % 2 == 0 else -half)
            add((t.index(i1), t.index(i2), t.index(j1)), coeff)
    return MappingProxyType({key: value for key, value in acc.items() if value})


def is_poisson(pi: SuperBivector) -> bool:
    """True when [pi, pi] vanishes identically."""
    return not schouten_bracket(pi, pi)
