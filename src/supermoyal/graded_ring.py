"""Z2-graded supercommutative polynomial algebra with exact coefficients.

Even variables commute and may be declared invertible (Laurent exponents),
odd variables anticommute and square to zero, and a central formal parameter
``hbar`` carries its own exponent slot.  Coefficients are exact rationals:
an ``int`` where integral and a ``Fraction`` where a denominator appears
(``Fraction(2) == 2`` and both hash alike, so the two never disagree).
Canonical form: odd factors are kept in declaration order, with Koszul signs
absorbed into the coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
from typing import Iterable, Mapping, NamedTuple

EVEN = "even"
ODD = "odd"

RESERVED = ("hbar",)


class ParityMismatch(ValueError):
    """Substitution target and replacement disagree in parity."""


class NonInvertibleSubstitution(ValueError):
    """A negative power cannot be rewritten through the substitution."""


class VarSpec(NamedTuple):
    name: str
    parity: str
    invertible: bool = False
    weight: int | None = None


class Monomial(NamedTuple):
    """even: exponent per even slot; odd: bitmask over odd slots; hbar: power."""

    even: tuple[int, ...]
    odd: int
    hbar: int

    def parity(self) -> int:
        return self.odd.bit_count() & 1

    def degree(self) -> int:
        return self.hbar + self.odd.bit_count() + sum(abs(e) for e in self.even)


def _exact(value) -> int | Fraction:
    """An exact coefficient: ints stay ints, integral Fractions become ints."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not an exact coefficient")
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _merge_sign(left_mask: int, right_mask: int) -> int:
    # Koszul sign for concatenating two ascending odd-factor sequences:
    # (-1)^(number of transpositions needed to re-sort).
    inversions = 0
    rest = right_mask
    while rest:
        low = rest & -rest
        bit = low.bit_length() - 1
        inversions += (left_mask >> (bit + 1)).bit_count()
        rest ^= low
    return -1 if inversions & 1 else 1


def _mono_mul(a: Monomial, b: Monomial) -> tuple[int, Monomial] | None:
    """(sign, a*b) for two monomials, or None when they share an odd factor."""
    if a.odd & b.odd:
        return None
    sign = _merge_sign(a.odd, b.odd) if a.odd and b.odd else 1
    return sign, Monomial(tuple(map(add, a.even, b.even)), a.odd | b.odd, a.hbar + b.hbar)


def _mul_terms(a: dict, b: dict) -> dict:
    """Terms of the product of two term maps, with no zero coefficient."""
    terms: dict[Monomial, int | Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            got = _mono_mul(ma, mb)
            if got is not None:
                sign, m = got
                terms[m] = terms.get(m, 0) + sign * ca * cb
    return {m: c for m, c in terms.items() if c}


class VarTable:
    """Ordered table of variable declarations shared by polynomials."""

    __slots__ = ("specs", "_index", "_even_slot", "_odd_bit", "n_even", "n_odd")

    def __init__(self, specs: Iterable[VarSpec]):
        self.specs = tuple(specs)
        self._index: dict[str, int] = {}
        self._even_slot: dict[str, int] = {}
        self._odd_bit: dict[str, int] = {}
        for i, spec in enumerate(self.specs):
            if spec.name in self._index:
                raise ValueError(f"duplicate variable {spec.name!r}")
            if spec.name in RESERVED:
                raise ValueError(f"{spec.name!r} is reserved")
            if spec.parity not in (EVEN, ODD):
                raise ValueError(f"bad parity {spec.parity!r} for {spec.name!r}")
            if spec.invertible and spec.parity != EVEN:
                raise ValueError(f"only even variables may be invertible: {spec.name!r}")
            self._index[spec.name] = i
            if spec.parity == EVEN:
                self._even_slot[spec.name] = len(self._even_slot)
            else:
                self._odd_bit[spec.name] = len(self._odd_bit)
        self.n_even = len(self._even_slot)
        self.n_odd = len(self._odd_bit)

    @classmethod
    def build(cls, *decls: tuple) -> "VarTable":
        """Shorthand: build(("x", EVEN), ("l", EVEN, True), ("th", ODD), ...)."""
        specs = []
        for d in decls:
            name, parity = d[0], d[1]
            invertible = d[2] if len(d) > 2 else False
            weight = d[3] if len(d) > 3 else None
            specs.append(VarSpec(name, parity, invertible, weight))
        return cls(specs)

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, VarTable) and self.specs == other.specs)

    def __hash__(self) -> int:
        return hash(self.specs)

    def __repr__(self) -> str:
        return f"VarTable({', '.join(s.name for s in self.specs)})"

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        return self._index[name]

    def spec(self, name: str) -> VarSpec:
        return self.specs[self._index[name]]

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    def even_names(self) -> tuple[str, ...]:
        return tuple(self._even_slot)

    def odd_names(self) -> tuple[str, ...]:
        return tuple(self._odd_bit)

    def even_slot(self, name: str) -> int:
        return self._even_slot[name]

    def odd_bit(self, name: str) -> int:
        return self._odd_bit[name]

    def parity(self, name: str) -> str:
        return self.spec(name).parity

    # -- polynomial constructors ------------------------------------------

    def zero(self) -> "GradedPoly":
        return GradedPoly._of(self, {})

    def const(self, value) -> "GradedPoly":
        q = _exact(value)
        if q == 0:
            return self.zero()
        return GradedPoly._of(self, {Monomial((0,) * self.n_even, 0, 0): q})

    def one(self) -> "GradedPoly":
        return self.const(1)

    def hbar(self, power: int = 1) -> "GradedPoly":
        if power < 0:
            raise ValueError("hbar powers are non-negative")
        return GradedPoly._of(self, {Monomial((0,) * self.n_even, 0, power): 1})

    def var(self, name: str, power: int = 1) -> "GradedPoly":
        spec = self.spec(name)
        if spec.parity == EVEN:
            if power < 0 and not spec.invertible:
                raise NonInvertibleSubstitution(
                    f"variable {name!r} has no inverse"
                )
            if power == 0:
                return self.one()
            even = [0] * self.n_even
            even[self._even_slot[name]] = power
            return GradedPoly._of(self, {Monomial(tuple(even), 0, 0): 1})
        if power != 1:
            raise ValueError(f"odd variable {name!r} only carries power 1")
        return GradedPoly._of(self, {Monomial((0,) * self.n_even, 1 << self._odd_bit[name], 0): 1})

    def monomial_factors(self, m: Monomial) -> tuple[dict[str, int], tuple[str, ...]]:
        """Readable view of a monomial: even exponents by name, odd names in order."""
        evens = self.even_names()
        exps = {evens[i]: e for i, e in enumerate(m.even) if e != 0}
        odds = tuple(n for n in self.odd_names() if m.odd >> self._odd_bit[n] & 1)
        return exps, odds


class GradedPoly:
    """Immutable sparse polynomial: dict of canonical monomials to coefficients."""

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, int | Fraction]):
        self.table = table
        self.terms = {m: c for m, c in terms.items() if c != 0}
        self._hash = None

    @classmethod
    def _of(cls, table: VarTable, terms: dict[Monomial, int | Fraction]) -> "GradedPoly":
        """Trusted constructor: ``terms`` holds no zero and is not copied."""
        p = object.__new__(cls)
        p.table = table
        p.terms = terms
        p._hash = None
        return p

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            key = tuple(sorted(self.terms.items()))
            self._hash = hash((self.table, key))
        return self._hash

    def __repr__(self) -> str:
        if not self.terms:
            return "GradedPoly(0)"
        bits = []
        for m, c in sorted(self.terms.items()):
            exps, odds = self.table.monomial_factors(m)
            parts = [str(c)]
            if m.hbar:
                parts.append(f"hbar^{m.hbar}" if m.hbar != 1 else "hbar")
            parts += [f"{n}^{e}" if e != 1 else n for n, e in exps.items()]
            parts += list(odds)
            bits.append("*".join(parts))
        return "GradedPoly(" + " + ".join(bits) + ")"

    def _check(self, other: "GradedPoly") -> None:
        if self.table != other.table:
            raise ValueError("polynomials over different variable tables")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            q = terms.get(m, 0) + c
            if q:
                terms[m] = q
            else:
                del terms[m]
        return GradedPoly._of(self.table, terms)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly._of(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def scale(self, value) -> "GradedPoly":
        q = _exact(value)
        if q == 0:
            return self.table.zero()
        return GradedPoly._of(self.table, {m: _exact(c * q) for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            return self.__rmul__(other)
        self._check(other)
        return GradedPoly._of(self.table, _mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        # scalars are central; _exact turns a float away with TypeError
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "GradedPoly":
        if n < 0:
            raise ValueError("negative powers only arise through substitution")
        out = self.table.one()
        for _ in range(n):
            out = out * self
        return out

    def parity(self) -> str:
        seen = {m.parity() for m in self.terms}
        if len(seen) == 2:
            return "mixed"
        if seen == {1}:
            return ODD
        return EVEN

    def degree(self) -> int:
        return max((m.degree() for m in self.terms), default=0)

    def hbar_coefficient(self, power: int) -> "GradedPoly":
        """Terms at an exact hbar power, with that power stripped off."""
        terms = {
            Monomial(m.even, m.odd, 0): c
            for m, c in self.terms.items()
            if m.hbar == power
        }
        return GradedPoly._of(self.table, terms)

    def hbar_truncate(self, max_power: int) -> "GradedPoly":
        terms = {m: c for m, c in self.terms.items() if m.hbar <= max_power}
        return GradedPoly._of(self.table, terms)

    def constant_value(self) -> Fraction:
        empty = Monomial((0,) * self.table.n_even, 0, 0)
        return Fraction(self.terms.get(empty, 0))


def parity_of(a: GradedPoly) -> str:
    return a.parity()


def _invert_unit(repl: GradedPoly, power: int) -> GradedPoly:
    """(c*M*(1 + nu))^(-power) with M a unit Laurent monomial, nu nilpotent."""
    table = repl.table
    principal = [(m, c) for m, c in repl.terms.items() if m.odd == 0]
    if len(principal) != 1:
        raise NonInvertibleSubstitution(
            "replacement has no single invertible leading monomial"
        )
    (m0, c0) = principal[0]
    if m0.hbar != 0:
        raise NonInvertibleSubstitution("cannot invert an hbar-carrying monomial")
    evens = table.even_names()
    for slot, e in enumerate(m0.even):
        if e != 0 and not table.spec(evens[slot]).invertible:
            raise NonInvertibleSubstitution(
                f"negative power would require inverting {evens[slot]!r}"
            )
    inv_m0 = Monomial(tuple(-power * e for e in m0.even), 0, 0)
    lead = GradedPoly._of(table, {inv_m0: _exact(Fraction(1) / c0**power)})
    # nu = (repl - c0*M) / (c0*M); nilpotent because every term is odd-carrying
    nu_terms: dict[Monomial, Fraction] = {}
    for m, c in repl.terms.items():
        if m is m0 or m == m0:
            continue
        even = tuple(x - y for x, y in zip(m.even, m0.even))
        for slot, e in enumerate(even):
            if e < 0 and not table.spec(evens[slot]).invertible:
                raise NonInvertibleSubstitution(
                    f"negative power would require inverting {evens[slot]!r}"
                )
        nu_terms[Monomial(even, m.odd, m.hbar)] = _exact(Fraction(c) / c0)
    nu = GradedPoly._of(table, nu_terms)
    # (1 + nu)^(-k) = sum_j binom(k+j-1, j) (-nu)^j, finite by nilpotency
    series = table.one()
    nu_j = table.one()
    j = 0
    while True:
        j += 1
        nu_j = nu_j * nu
        if nu_j.is_zero():
            break
        series = series + nu_j.scale((-1) ** j * comb(power + j - 1, j))
    return lead * series


def substitute(
    a: GradedPoly,
    mapping: Mapping[str, GradedPoly],
    target: VarTable | None = None,
) -> GradedPoly:
    """Simultaneous parity-preserving substitution, possibly into a new table.

    Replacements must be parity-homogeneous and match the replaced variable's
    parity.  Variables not mentioned must exist (same name and parity) in the
    target table.  Negative exponents are pushed through the replacement via
    the finite geometric series, which requires the replacement to factor as
    unit * (1 + nilpotent).
    """
    src = a.table
    if target is None:
        for repl in mapping.values():
            target = repl.table
            break
        else:
            return a
    for name, repl in mapping.items():
        if name not in src:
            raise KeyError(f"unknown variable {name!r}")
        if repl.table != target:
            raise ValueError("replacement polynomials disagree on the target table")
        par = repl.parity()
        if not repl.is_zero() and par != src.parity(name):
            raise ParityMismatch(
                f"{name!r} is {src.parity(name)} but its replacement is {par}"
            )
    evens = src.even_names()
    odds = src.odd_names()
    support: set[str] = set()
    for m in a.terms:
        support.update(evens[i] for i, e in enumerate(m.even) if e)
        support.update(n for i, n in enumerate(odds) if m.odd >> i & 1)
    for name in support:
        if name not in mapping and name not in target:
            raise KeyError(
                f"variable {name!r} is not mapped and missing from the target table"
            )

    power_cache: dict[tuple[str, int], GradedPoly] = {}

    def var_power(name: str, e: int) -> GradedPoly:
        got = power_cache.get((name, e))
        if got is not None:
            return got
        repl = mapping.get(name)
        if repl is None:
            repl = target.var(name)
            if e < 0 and not target.spec(name).invertible:
                raise NonInvertibleSubstitution(
                    f"{name!r} is not invertible in the target table"
                )
        if e >= 0:
            out = repl**e
        else:
            out = _invert_unit(repl, -e)
        power_cache[(name, e)] = out
        return out

    total: dict[Monomial, int | Fraction] = {}
    for m, c in a.terms.items():
        part = target.hbar(m.hbar) if m.hbar else target.one()
        for slot, e in enumerate(m.even):
            if e:
                part = part * var_power(evens[slot], e)
                if part.is_zero():
                    break
        if not part.is_zero():
            for bit, name in enumerate(odds):
                if m.odd >> bit & 1:
                    part = part * var_power(name, 1)
                    if part.is_zero():
                        break
        for mm, q in part.terms.items():
            total[mm] = total.get(mm, 0) + c * q
    return GradedPoly._of(target, {m: c for m, c in total.items() if c})
