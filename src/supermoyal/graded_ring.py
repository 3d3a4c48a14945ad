"""Z2-graded supercommutative polynomial algebra with exact coefficients.

Even variables commute and may be declared invertible (Laurent exponents),
odd variables anticommute and square to zero, and a central formal parameter
``hbar`` carries its own exponent slot.  Canonical form: odd factors are kept
in declaration order, with Koszul signs absorbed into the coefficient.

Coefficients are exact rationals, stored in one layout: a map of monomials
to non-zero integer numerators over one positive denominator that shares no
factor with all of them (the layout of FLINT's ``fmpq_poly``).  Every ring
operation reads and writes this int form; the star engine does too.
``terms`` is a read-only view derived from it once per polynomial, with an
``int`` where a coefficient is integral and a ``Fraction`` where a
denominator appears; with denominator 1 the view is the int form itself.

Substitution is a ``SubstitutionPlan``: a mapping validated once, whose
powers and Laurent inverses are built once for every polynomial it rewrites.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import add
from types import MappingProxyType
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


def _exact(value) -> int | Fraction:
    """An exact coefficient: ints stay ints, integral Fractions become ints."""
    if type(value) is int:
        return value
    if not isinstance(value, Rational):
        raise TypeError(f"{type(value).__name__} {value!r} is not an exact coefficient")
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


class _ReadOnly:
    """Lets each attribute be bound once, by the constructor.

    A built-in model's objects are shared by every caller, so a later
    rebinding or deletion raises AttributeError instead of changing them.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__}.{name} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class VarTable(_ReadOnly):
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
        return cls(VarSpec(*d) for d in decls)

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
        return GradedPoly._of_scaled(self, {}, 1)

    def const(self, value) -> "GradedPoly":
        q = _exact(value)
        if q == 0:
            return self.zero()
        unit = Monomial((0,) * self.n_even, 0, 0)
        return GradedPoly._of_scaled(self, {unit: q.numerator}, q.denominator)

    def one(self) -> "GradedPoly":
        return self.const(1)

    def hbar(self, power: int = 1) -> "GradedPoly":
        if power < 0:
            raise ValueError("hbar powers are non-negative")
        return GradedPoly._of_scaled(self, {Monomial((0,) * self.n_even, 0, power): 1}, 1)

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
            return GradedPoly._of_scaled(self, {Monomial(tuple(even), 0, 0): 1}, 1)
        if power != 1:
            raise ValueError(f"odd variable {name!r} only carries power 1")
        odd = Monomial((0,) * self.n_even, 1 << self._odd_bit[name], 0)
        return GradedPoly._of_scaled(self, {odd: 1}, 1)

    def monomial_factors(self, m: Monomial) -> tuple[dict[str, int], tuple[str, ...]]:
        """Readable view of a monomial: even exponents by name, odd names in order."""
        evens = self.even_names()
        exps = {evens[i]: e for i, e in enumerate(m.even) if e != 0}
        odds = tuple(n for n in self.odd_names() if m.odd >> self._odd_bit[n] & 1)
        return exps, odds


class GradedPoly:
    """Immutable sparse polynomial over a variable table, in exact coefficients.

    Stores only the int form: ``_num`` maps monomials to non-zero integer
    numerators over the denominator ``_den`` > 0, canonical (no prime divides
    ``_den`` and every numerator).  ``terms`` is derived from it on first use.
    """

    __slots__ = ("table", "_terms", "_num", "_den", "_hash")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, int | Fraction]):
        exact = [(m, _exact(c)) for m, c in terms.items()]
        den = lcm(*(c.denominator for _, c in exact))
        # den is the lcm of the denominators, so no prime divides it and
        # every numerator: the pair is canonical as built
        self.table = table
        self._num = {m: c.numerator * (den // c.denominator) for m, c in exact if c}
        self._den = den
        self._terms = None
        self._hash = None

    @classmethod
    def _of_scaled(cls, table: VarTable, num: dict[Monomial, int], den: int) -> "GradedPoly":
        """Trusted constructor for ``num / den``: no zero numerator, ``den`` > 0.

        One gcd pass makes the pair canonical, skipped when ``den`` is 1;
        ``num`` is not copied when it already is canonical.
        """
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        p = object.__new__(cls)
        p.table = table
        p._num = num
        p._den = den
        p._terms = None
        p._hash = None
        return p

    @property
    def terms(self) -> dict[Monomial, int | Fraction]:
        """Monomial -> exact coefficient; callers must not mutate it."""
        if self._terms is None:
            den = self._den
            if den == 1:
                self._terms = self._num
            else:
                self._terms = {m: _exact(Fraction(c, den)) for m, c in self._num.items()}
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if self.table != other.table:
            return False
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.table, self._den, frozenset(self._num.items())))
        return self._hash

    def __repr__(self) -> str:
        if not self._num:
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
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        num = dict(self._num) if sa == 1 else {m: c * sa for m, c in self._num.items()}
        for m, c in other._num.items():
            q = num.get(m, 0) + c * sb
            if q:
                num[m] = q
            else:
                del num[m]
        return GradedPoly._of_scaled(self.table, num, den)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly._of_scaled(self.table, {m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def scale(self, value) -> "GradedPoly":
        q = _exact(value)
        if q == 0:
            return self.table.zero()
        n = q.numerator
        num = {m: c * n for m, c in self._num.items()}
        return GradedPoly._of_scaled(self.table, num, self._den * q.denominator)

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            return self.__rmul__(other)
        self._check(other)
        num = _mul_terms(self._num, other._num)
        return GradedPoly._of_scaled(self.table, num, self._den * other._den)

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
        seen = {m.parity() for m in self._num}
        if len(seen) == 2:
            return "mixed"
        if seen == {1}:
            return ODD
        return EVEN

    def hbar_coefficient(self, power: int) -> "GradedPoly":
        """Terms at an exact hbar power, with that power stripped off."""
        num = {
            Monomial(m.even, m.odd, 0): c
            for m, c in self._num.items()
            if m.hbar == power
        }
        return GradedPoly._of_scaled(self.table, num, self._den)

    def hbar_truncate(self, max_power: int) -> "GradedPoly":
        num = {m: c for m, c in self._num.items() if m.hbar <= max_power}
        return GradedPoly._of_scaled(self.table, num, self._den)


def parity_of(a: GradedPoly) -> str:
    return a.parity()


def _invert_unit(repl: GradedPoly) -> GradedPoly:
    """(c*M*(1 + nu))^(-1) with M a unit Laurent monomial, nu nilpotent."""
    table = repl.table
    principal = [(m, c) for m, c in repl._num.items() if m.odd == 0]
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
    # repl is c0/den * M0 (1 + nu), so lead * repl = 1 + nu; nu is nilpotent
    # because each of its terms carries an odd factor
    inv_m0 = Monomial(tuple(-e for e in m0.even), 0, 0)
    lead = GradedPoly(table, {inv_m0: Fraction(repl._den, c0)})
    minus_nu = table.one() - lead * repl
    # (1 + nu)^(-1) = sum_j (-nu)^j, finite by nilpotency
    series = power = table.one()
    while not (power := power * minus_nu).is_zero():
        series = series + power
    return lead * series


class SubstitutionPlan(_ReadOnly):
    """One parity-preserving substitution from ``src`` into ``target``.

    The mapping is validated once, when the plan is built: replacements must
    be parity-homogeneous, match the replaced variable's parity and live over
    ``target``.  Variables not mentioned must exist in the target table.
    Negative exponents are pushed through the replacement via the finite
    geometric series, which requires the replacement to factor as
    unit * (1 + nilpotent).  Each power of a replacement is built once and
    kept for every later call; a power that cannot be built is not kept and
    raises again.
    """

    __slots__ = ("src", "target", "mapping", "_names", "_missing", "_powers")

    def __init__(self, src: VarTable, mapping: Mapping[str, GradedPoly], target: VarTable):
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
        self.src = src
        self.target = target
        self.mapping = MappingProxyType(dict(mapping))  # checked above, so read-only
        self._names = src.even_names(), src.odd_names()
        # source variables no term may carry, neither mapped nor in the target,
        # each with its even slot or, for an odd one, ~bit
        self._missing = tuple(
            (n, src.even_slot(n) if src.parity(n) == EVEN else ~src.odd_bit(n))
            for n in src.names() if n not in mapping and n not in target
        )
        self._powers: dict[tuple[str, int], dict[Monomial, int | Fraction]] = {}

    def var_power(self, name: str, e: int) -> dict[Monomial, int | Fraction]:
        """Terms of the image of ``name**e``, for a non-zero exponent ``e``."""
        got = self._powers.get((name, e))
        if got is None:
            repl = self.mapping.get(name)
            if repl is None:
                repl = self.target.var(name)
                if e < 0 and not self.target.spec(name).invertible:
                    raise NonInvertibleSubstitution(
                        f"{name!r} is not invertible in the target table"
                    )
            got = (repl**e if e > 0 else _invert_unit(repl) ** -e).terms
            self._powers[(name, e)] = got
        return got

    def apply(self, a: GradedPoly) -> GradedPoly:
        if a.table != self.src:
            raise ValueError("polynomial is not over the substitution's source table")
        for name, key in self._missing:
            if any(m.odd >> ~key & 1 if key < 0 else m.even[key] for m in a._num):
                raise KeyError(
                    f"variable {name!r} is not mapped and missing from the target table"
                )
        evens, odds = self._names
        unit = (0,) * self.target.n_even
        total: dict[Monomial, int | Fraction] = {}
        for m, c in a.terms.items():
            part = {Monomial(unit, 0, m.hbar): c}
            for slot, e in enumerate(m.even):
                if e:
                    part = _mul_terms(part, self.var_power(evens[slot], e))
                    if not part:
                        break
            if part and m.odd:
                for bit, name in enumerate(odds):
                    if m.odd >> bit & 1:
                        part = _mul_terms(part, self.var_power(name, 1))
                        if not part:
                            break
            for mm, q in part.items():
                total[mm] = total.get(mm, 0) + q
        return GradedPoly(self.target, total)


def substitute(
    a: GradedPoly,
    mapping: Mapping[str, GradedPoly],
    target: VarTable,
) -> GradedPoly:
    """Simultaneous parity-preserving substitution, possibly into a new table.

    A one-shot ``SubstitutionPlan``.  Build the plan once to apply one
    mapping to many polynomials.
    """
    return SubstitutionPlan(a.table, mapping, target).apply(a)
