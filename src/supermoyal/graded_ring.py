"""Z2-graded supercommutative polynomial algebra with exact coefficients.

Even variables commute and may be declared invertible (Laurent exponents),
odd variables anticommute and square to zero, and a central formal parameter
``hbar`` carries its own exponent slot.  Canonical form: odd factors are kept
in declaration order, with Koszul signs absorbed into the coefficient.

Coefficients are exact rationals, stored in one layout: a map of monomials
to non-zero integer numerators over one positive denominator that shares no
factor with all of them (the layout of FLINT's ``fmpq_poly``).  Every ring
operation reads and writes this int form; the star engine does too.  Every
sum of polynomials' term maps over different denominators, in ``+`` and
``-``, the expression parser and substitution, is one ``_sum_terms``, which
copies its first part's map and writes into none.  The star engine sums
its cached monomial pairs with its own reader, ``StarEngine._sum_products``,
over a denominator that grows as the pairs arrive.

A monomial in the int form is one int, a packed exponent vector (Monagan and
Pearce, CASC 2007), laid out by its ``VarTable`` from the table's specs
alone, so equal tables pack alike:

    bits 0 .. n_odd - 1         the odd mask, bit i for odd slot i
    FIELD_BITS bits per slot    even slot i at n_odd + (n_even - 1 - i) * FIELD_BITS
    the bits above those        the hbar power

An even field holds its exponent plus the bias ``EXPONENT_LIMIT``, so every
exponent with -EXPONENT_LIMIT <= e < EXPONENT_LIMIT, Laurent ones included,
fills the field's low FIELD_BITS - 1 bits and leaves its top bit, the guard,
clear.  Slot 0 sits highest, so the even fields compare as one int in the
order of the exponent tuple.  A product of monomials without a common odd
factor adds the two ints and subtracts the bias once.  Two biased fields sum
below 2^FIELD_BITS, so no field carries into the next, and the product is in
range exactly when no guard bit is set: the lowest field out of range either
reaches the guard or, below the bias, borrows from the field above it, which
sets its guard too.  An exponent out of range raises ``ExponentOverflow``
instead of wrapping, wherever a field is written.  The hbar power sits above
every field, where a Python int has no top, so it has no limit.

``Monomial`` is the readable view: the public constructor packs its keys,
and ``terms`` is a read-only view derived from the int form once per
polynomial, with ``Monomial`` keys, an ``int`` where a coefficient is
integral and a ``Fraction`` where a denominator appears.  ``render_poly`` is
the one text form of a polynomial, read straight off the packed layout:
``repr`` and the engine's check details print it, and the command line's
``parse_expression`` reads it back.

Substitution is a ``SubstitutionPlan``: a mapping validated once, whose
powers and Laurent inverses are built once for every polynomial it rewrites.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import fields
from fractions import Fraction
from functools import cache, partial
from math import gcd, lcm
from numbers import Rational
from types import MappingProxyType, NoneType
from typing import NamedTuple, get_args, get_origin, get_type_hints

EVEN = "even"
ODD = "odd"

RESERVED = ("hbar",)

# the width of one even exponent's field in a packed monomial: the narrowest
# whose range holds the exponents the command line and the models are known
# to use, up to w^100000
FIELD_BITS = 19
# every even exponent e lies in -EXPONENT_LIMIT <= e < EXPONENT_LIMIT; it is
# also the bias each field adds to its exponent
EXPONENT_LIMIT = 1 << (FIELD_BITS - 2)
_FIELD = (1 << FIELD_BITS) - 1


class ExponentOverflow(ValueError):
    """An even exponent outside -EXPONENT_LIMIT <= e < EXPONENT_LIMIT.

    Raised wherever a packed field would be written out of range, so an
    exponent never wraps.
    """

    def __init__(self, exponent: int, name: str | None = None):
        of = "" if name is None else f" of {name!r}"
        super().__init__(
            f"exponent {exponent}{of} is past the exponent limit: every exponent e"
            f" has -{EXPONENT_LIMIT} <= e < {EXPONENT_LIMIT}"
        )
        self.exponent = exponent


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


def _check_type(name: str, value, kind, label: str = ""):
    """``value``, or a TypeError naming ``name`` unless it is a ``kind`` (a bool is no int)."""
    if not isinstance(value, kind) or kind is int and type(value) is bool:
        label = label or ("an int" if kind is int else f"a {kind.__name__}")
        raise TypeError(f"{name} must be {label}, got {type(value).__name__}")
    return value


def _field_check(hint):
    """(kinds, check) for an annotation ``X``, ``X | None``, ``tuple[X, ...]``, ``tuple[X, Y]`` or
    ``Mapping[K, V]``: an instance of ``kinds`` fits as it is, and ``check(name, value)`` returns
    ``value``, a non-str Sequence as a tuple, or raises a TypeError naming ``name``."""
    origin, args = get_origin(hint), get_args(hint)
    if NoneType in args:
        return args, partial(_check_type, kind=args, label=f"a {args[0].__name__} or None")
    if origin is not tuple:
        kind = origin or hint
        return () if kind is int else kind, partial(_check_type, kind=kind)  # a bool is an int instance
    if args[-1] is Ellipsis:
        kinds, item = _field_check(args[0])

        def check(name, value):
            if isinstance(_check_type(name, value, Sequence), str):  # a Sequence of characters
                raise TypeError(f"{name} must be a Sequence other than str, got str")
            return tuple(v if isinstance(v, kinds) else item(f"{name}[{i}]", v) for i, v in enumerate(value))
        return (), check

    def check(name, value):
        if type(value) is not tuple and isinstance(value, Sequence) and not isinstance(value, str):
            value = tuple(value)
        if type(value) is tuple and len(value) == len(args) and all(map(isinstance, value, args)):
            return value
        got = f"({', '.join(type(v).__name__ for v in value)})" if type(value) is tuple else type(value).__name__
        raise TypeError(f"{name} must be a ({', '.join(kind.__name__ for kind in args)}), got {got}")
    return (), check


@cache
def _field_checks(cls) -> tuple:
    """(name, kinds, check) per init field of the dataclass ``cls``, read once from its annotations."""
    hints = get_type_hints(cls)
    return tuple((f.name, *_field_check(hints[f.name])) for f in fields(cls) if f.init)


def _check_fields(obj) -> None:
    """Check each field of the frozen dataclass ``obj`` against its annotation, sequences as tuples."""
    for name, kinds, check in _field_checks(type(obj)):
        value = getattr(obj, name)
        if not isinstance(value, kinds) and (checked := check(name, value)) is not value:
            object.__setattr__(obj, name, checked)


def _exact(value) -> int | Fraction:
    """An exact coefficient: ints stay ints, integral Fractions become ints;
    a bool is refused, as ``_check_type`` refuses it as an int."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        _check_type("coefficient", value, int)
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


def _mono_mul(a: int, b: int, table: VarTable) -> tuple[int, int] | None:
    """(sign, a*b) for two packed monomials, or None when they share an odd factor."""
    odd = table._odd
    oa, ob = a & odd, b & odd
    if oa & ob:
        return None
    m = a + b - table._zero
    if m & table._guard:
        raise table._overflow(a, b)
    return (_merge_sign(oa, ob) if oa and ob else 1), m


def _mul_terms(a: dict, b: dict, table: VarTable) -> dict:
    """Terms of the product of two packed term maps, with no zero coefficient."""
    terms: dict[int, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            got = _mono_mul(ma, mb, table)
            if got is not None:
                sign, m = got
                terms[m] = terms.get(m, 0) + sign * ca * cb
    return terms if all(terms.values()) else {m: c for m, c in terms.items() if c}


def _sum_terms(parts: list[tuple[int, dict, int]]) -> tuple[dict, int]:
    """(num, den) of the sum of c * num / den over the parts (c, num, den):
    the sum over the lcm of the denominators, with no zero coefficient and
    no gcd pass.  ``+``, ``-``, the parser and substitution sum through
    here.  It copies the first part's map and writes into none, so a part
    may be a polynomial's own ``_num``."""
    den = lcm(*[d for _, _, d in parts])
    rest = iter(parts)
    c, a, d = next(rest, (1, {}, 1))
    c *= den // d
    num = dict(a) if c == 1 else {m: c * q for m, q in a.items()}
    for c, b, d in rest:
        c *= den // d
        for m, q in b.items():
            q = num.get(m, 0) + c * q
            if q:
                num[m] = q
            else:
                del num[m]
    return num, den


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
    """Ordered table of variable declarations shared by polynomials.

    It also fixes the packed layout of its monomials (see the module
    docstring): ``_odd`` masks the odd bits, ``_shifts[i]`` is even slot i's
    field, ``_zero`` is the unit monomial (every field at the bias),
    ``_guard`` the fields' top bits, ``_evens`` all the fields' bits,
    ``_carry`` the bits below each guard bit and ``_hbar_shift`` where the
    hbar power starts.
    """

    __slots__ = (
        "specs", "_index", "_even_slot", "_odd_bit", "n_even", "n_odd",
        "_odd", "_shifts", "_zero", "_guard", "_evens", "_carry", "_hbar_shift",
    )

    def __init__(self, specs: Iterable[VarSpec]):
        self.specs = tuple(specs)
        self._index: dict[str, int] = {}
        self._even_slot: dict[str, int] = {}
        self._odd_bit: dict[str, int] = {}
        for i, spec in enumerate(self.specs):
            _check_type("spec", spec, VarSpec)
            _check_type("name", spec.name, str)
            _check_type("invertible", spec.invertible, bool)
            if spec.weight is not None:
                _check_type("weight", spec.weight, int)
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
        self.n_even = n_even = len(self._even_slot)
        self.n_odd = n_odd = len(self._odd_bit)
        self._odd = (1 << n_odd) - 1
        self._shifts = tuple(n_odd + (n_even - 1 - i) * FIELD_BITS for i in range(n_even))
        self._zero = sum(EXPONENT_LIMIT << s for s in self._shifts)
        self._guard = self._zero << 1
        self._evens = sum(_FIELD << s for s in self._shifts)
        self._carry = self._guard - (self._zero >> (FIELD_BITS - 2))
        self._hbar_shift = n_odd + n_even * FIELD_BITS

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
        try:
            return self._index[name]
        except (KeyError, TypeError):
            _check_type("name", name, str)  # a name of the wrong type is named
            raise

    def spec(self, name: str) -> VarSpec:
        try:
            return self.specs[self._index[name]]
        except (KeyError, TypeError):
            _check_type("name", name, str)
            raise

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    def even_names(self) -> tuple[str, ...]:
        return tuple(self._even_slot)

    def odd_names(self) -> tuple[str, ...]:
        return tuple(self._odd_bit)

    def even_slot(self, name: str) -> int:
        try:
            return self._even_slot[name]
        except (KeyError, TypeError):
            raise self._not_of_parity(name, EVEN) from None

    def odd_bit(self, name: str) -> int:
        try:
            return self._odd_bit[name]
        except (KeyError, TypeError):
            raise self._not_of_parity(name, ODD) from None

    def _not_of_parity(self, name: str, want: str) -> KeyError:
        """The error of a slot lookup by a name that is not a ``want``
        variable; ``self.parity`` raises first for a name of the wrong type
        or one the table does not declare."""
        return KeyError(f"{name!r} is an {self.parity(name)} variable, not an {want} one")

    def parity(self, name: str) -> str:
        return self.spec(name).parity

    # -- packed monomials ---------------------------------------------------

    def _pack(self, m: Monomial) -> int:
        """The packed int of a monomial view."""
        if not (isinstance(m, tuple) and len(m) == 3):
            raise TypeError(f"term key {m!r} must be a Monomial")
        even, odd, hbar = m
        _check_type("odd mask", odd, int)
        _check_type("hbar power", hbar, int)
        if not isinstance(even, tuple):
            raise TypeError(f"term key {m!r}: even exponents must be a tuple, got {type(even).__name__}")
        for e in even:
            _check_type("even exponent", e, int)
        if len(even) != self.n_even or not 0 <= odd <= self._odd:
            raise ValueError(f"{m!r} is not a monomial over {self!r}")
        if hbar < 0:
            raise ValueError("hbar powers are non-negative")
        key = (hbar << self._hbar_shift) + odd
        for i, (e, s) in enumerate(zip(even, self._shifts)):
            if not -EXPONENT_LIMIT <= e < EXPONENT_LIMIT:
                raise ExponentOverflow(e, self.even_names()[i])
            key += (e + EXPONENT_LIMIT) << s
        return key

    def _unpack(self, key: int) -> Monomial:
        """The monomial view of a packed int."""
        even = [0] * self.n_even
        for slot, e in self._exponents(key):
            even[slot] = e
        return Monomial(tuple(even), key & self._odd, key >> self._hbar_shift)

    def _exponents(self, key: int) -> list[tuple[int, int]]:
        """(slot, exponent) of each non-zero even exponent of a packed int, by slot.

        Only the non-zero fields are visited: a field differs from the
        bias exactly when its exponent is not zero.
        """
        out = []
        x = ((key ^ self._zero) & self._evens) >> self.n_odd
        slot = self.n_even  # the lowest field is the last slot's
        while x:
            skip = ((x & -x).bit_length() - 1) // FIELD_BITS
            x >>= skip * FIELD_BITS
            slot -= skip + 1
            out.append((slot, ((x & _FIELD) ^ EXPONENT_LIMIT) - EXPONENT_LIMIT))
            x >>= FIELD_BITS
        out.reverse()
        return out

    def _support(self, name: str) -> tuple[int, int]:
        """(mask, bits): a packed m has the factor ``name`` when m & mask != bits."""
        if self.parity(name) == EVEN:
            s = self._shifts[self._even_slot[name]]
            return _FIELD << s, EXPONENT_LIMIT << s
        return 1 << self._odd_bit[name], 0

    def _factor_bits(self, m: int) -> int:
        """One bit per variable that divides the packed m, so that
        m & mask != bits for its ``_support`` exactly when the bit is set:
        the guard bit of an even variable's field and the odd bit of an odd one.

        A field of (m ^ _zero) & _evens is 0 exactly when its exponent is,
        and lies below the guard bit, so adding ``_carry`` sets the guard bit
        exactly for a non-zero exponent and carries into no other field.
        """
        return ((m ^ self._zero) & self._evens) + self._carry & self._guard | m & self._odd

    def _overflow(self, a: int, b: int) -> ExponentOverflow:
        """The error of a product of packed monomials whose exponents leave the range."""
        sums: dict[int, int] = {}
        for key in (a, b):
            for slot, e in self._exponents(key):
                sums[slot] = sums.get(slot, 0) + e
        slot, e = min((s, e) for s, e in sums.items() if not -EXPONENT_LIMIT <= e < EXPONENT_LIMIT)
        return ExponentOverflow(e, self.even_names()[slot])

    # -- polynomial constructors ------------------------------------------

    def zero(self) -> "GradedPoly":
        return GradedPoly._of_scaled(self, {}, 1)

    def const(self, value) -> "GradedPoly":
        q = _exact(value)
        if q == 0:
            return self.zero()
        return GradedPoly._of_scaled(self, {self._zero: q.numerator}, q.denominator)

    def one(self) -> "GradedPoly":
        return self.const(1)

    def hbar(self, power: int = 1) -> "GradedPoly":
        _check_type("power", power, int)
        if power < 0:
            raise ValueError("hbar powers are non-negative")
        return GradedPoly._of_scaled(self, {self._zero + (power << self._hbar_shift): 1}, 1)

    def var(self, name: str, power: int = 1) -> "GradedPoly":
        _check_type("name", name, str)
        _check_type("power", power, int)
        return GradedPoly._of_scaled(self, {self._var_key(name, power): 1}, 1)

    def _var_key(self, name: str, power: int = 1) -> int:
        """The packed monomial ``name**power``; any variable's zero power is
        the unit."""
        spec = self.spec(name)
        if power == 0:
            return self._zero
        if spec.parity == EVEN:
            if power < 0 and not spec.invertible:
                raise NonInvertibleSubstitution(
                    f"variable {name!r} has no inverse"
                )
            if not -EXPONENT_LIMIT <= power < EXPONENT_LIMIT:
                raise ExponentOverflow(power, name)
            return self._zero + (power << self._shifts[self._even_slot[name]])
        if power != 1:
            raise ValueError(f"odd variable {name!r} only carries power 1")
        return self._zero | 1 << self._odd_bit[name]


class GradedPoly:
    """Immutable sparse polynomial over a variable table, in exact coefficients.

    Stores only the int form: ``_num`` maps packed monomials to non-zero
    integer numerators over the denominator ``_den`` > 0, canonical (no prime
    divides ``_den`` and every numerator).  ``terms`` is built from it on
    each read.  No code writes to ``_num`` after the polynomial is built.

    ``_memo`` is no part of the value: ``StarEngine._split`` keeps there the
    last engine's split of the polynomial, which ``==``, ``hash`` and
    ``repr`` never read.
    """

    __slots__ = ("table", "_num", "_den", "_memo")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, int | Fraction]):
        _check_type("table", table, VarTable)
        _check_type("terms", terms, Mapping)
        pack = table._pack
        exact = [(pack(m), _exact(c)) for m, c in terms.items()]
        den = lcm(*(c.denominator for _, c in exact))
        # den is the lcm of the denominators, so no prime divides it and
        # every numerator: the pair is canonical as built
        self.table = table
        self._num = {m: c.numerator * (den // c.denominator) for m, c in exact if c}
        self._den = den
        self._memo = None

    @classmethod
    def _of_scaled(cls, table: VarTable, num: dict[int, int], den: int) -> "GradedPoly":
        """Trusted constructor for ``num / den``: no zero numerator, ``den`` > 0.

        One gcd pass makes the pair canonical, skipped when ``den`` is 1;
        ``num`` is not copied when it already is canonical.
        """
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        return cls._of_canonical(table, num, den)

    @classmethod
    def _of_canonical(cls, table: VarTable, num: dict[int, int], den: int) -> "GradedPoly":
        """Trusted constructor for ``num / den`` already canonical: no gcd pass, no copy."""
        p = object.__new__(cls)
        p.table = table
        p._num = num
        p._den = den
        p._memo = None
        return p

    @property
    def terms(self) -> dict[Monomial, int | Fraction]:
        """Monomial -> exact coefficient, a new dict on each read."""
        unpack, den = self.table._unpack, self._den
        return {
            unpack(m): c if den == 1 else _exact(Fraction(c, den))
            for m, c in self._num.items()
        }

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
        return hash((self.table, self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        return f"GradedPoly({render_poly(self)})"

    def _check(self, other: "GradedPoly") -> None:
        if self.table != other.table:
            raise ValueError("polynomials over different variable tables")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check(other)
        num, den = _sum_terms([(1, self._num, self._den), (1, other._num, other._den)])
        return GradedPoly._of_scaled(self.table, num, den)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly._of_scaled(self.table, {m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check(other)
        num, den = _sum_terms([(1, self._num, self._den), (-1, other._num, other._den)])
        return GradedPoly._of_scaled(self.table, num, den)

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
        num = _mul_terms(self._num, other._num, self.table)
        return GradedPoly._of_scaled(self.table, num, self._den * other._den)

    def __rmul__(self, other):
        # scalars are central; _exact turns a float away with TypeError
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "GradedPoly":
        _check_type("power", n, int)
        if n < 0:
            raise ValueError("negative powers only arise through substitution")
        out = self.table.one()
        for _ in range(n):
            out = out * self
        return out

    def parity(self) -> str:
        odd = self.table._odd
        seen = {(m & odd).bit_count() & 1 for m in self._num}
        if len(seen) == 2:
            return "mixed"
        if seen == {1}:
            return ODD
        return EVEN

    def hbar_coefficient(self, power: int) -> "GradedPoly":
        """Terms at an exact hbar power, with that power stripped off."""
        _check_type("power", power, int)
        h = self.table._hbar_shift
        low = (1 << h) - 1
        num = {m & low: c for m, c in self._num.items() if m >> h == power}
        return GradedPoly._of_scaled(self.table, num, self._den)

    def hbar_truncate(self, max_power: int) -> "GradedPoly":
        _check_type("max_power", max_power, int)
        h = self.table._hbar_shift
        num = {m: c for m, c in self._num.items() if m >> h <= max_power}
        return GradedPoly._of_scaled(self.table, num, self._den)


def _decimal(n: int) -> str:
    """The decimal digits of an int n >= 0 of any size.  CPython's ``str``
    refuses an int past its digit limit (4,300 by default), so n is cut in
    two at a power of 10 until each part is within it."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half of n's digits
        high, low = divmod(n, 10**k)
        return _decimal(high) + _decimal(low).rjust(k, "0")


def render_poly(p: GradedPoly) -> str:
    """Canonical text form, whatever the size of a coefficient.
    ``cli.parse_expression`` reads it back exactly when each integer in it
    has at most the interpreter's limit of digits for ``int`` (4,300 by
    default); a longer integer literal is a parse error."""
    _check_type("polynomial", p, GradedPoly)
    if p.is_zero():
        return "0"
    t = p.table
    evens = t.even_names()
    odds = t.odd_names()
    odd, fields, hs, den = t._odd, t._evens, t._hbar_shift, p._den
    # each term's text and degree come from one walk over its fields; the
    # terms go by descending degree, then descending exponents in slot order
    # (the order of the even fields read as one int), odd mask and hbar
    rows = []
    for m, c in p._num.items():
        h = m >> hs
        factors = ["hbar" if h == 1 else f"hbar^{h}"] if h else []
        mask = rest = m & odd
        degree = mask.bit_count()
        for slot, e in t._exponents(m):
            degree += e
            factors.append(evens[slot] if e == 1 else f"{evens[slot]}^{e}")
        while rest:
            low = rest & -rest
            factors.append(odds[low.bit_length() - 1])
            rest ^= low
        g = gcd(c, den)
        try:
            mag = str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"
        except ValueError:  # past the interpreter's limit on int strings
            mag = _decimal(abs(c) // g) if g == den else f"{_decimal(abs(c) // g)}/{_decimal(den // g)}"
        if mag != "1" or not factors:
            factors.insert(0, mag)
        rows.append((-degree, -(m & fields), mask, h, c < 0, "*".join(factors)))
    rows.sort()
    pieces = [("-" if rows[0][4] else "") + rows[0][5]]
    for *_, negative, body in rows[1:]:
        pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)


def _invert_term(table: VarTable, m: int, c: int, den: int) -> tuple[dict, int]:
    """(num, den) of (c/den * m)^(-1) for a packed monomial m with no odd
    factor and no hbar whose variables are all invertible;
    NonInvertibleSubstitution otherwise."""
    if m & table._odd:
        raise NonInvertibleSubstitution("cannot invert an odd factor")
    if m >> table._hbar_shift:
        raise NonInvertibleSubstitution("cannot invert an hbar-carrying monomial")
    exps = table._exponents(m)
    evens = table.even_names()
    for slot, _ in exps:
        if not table.spec(evens[slot]).invertible:
            raise NonInvertibleSubstitution(
                f"negative power would require inverting {evens[slot]!r}"
            )
    for slot, e in exps:
        if e == -EXPONENT_LIMIT:  # its negation is one past the range
            raise ExponentOverflow(EXPONENT_LIMIT, evens[slot])
    sign = 1 if c > 0 else -1
    # every field e + bias becomes -e + bias
    return {2 * table._zero - m: sign * den}, sign * c


def _invert_unit(repl: GradedPoly) -> GradedPoly:
    """(c*M*(1 + nu))^(-1) with M a unit Laurent monomial, nu nilpotent."""
    table = repl.table
    principal = [(m, c) for m, c in repl._num.items() if not m & table._odd]
    if len(principal) != 1:
        raise NonInvertibleSubstitution(
            "replacement has no single invertible leading monomial"
        )
    (m0, c0) = principal[0]
    # repl is c0/den * M0 (1 + nu), so lead * repl = 1 + nu; nu is nilpotent
    # because each of its terms carries an odd factor
    lead = GradedPoly._of_scaled(table, *_invert_term(table, m0, c0, repl._den))
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

    An even variable that the mapping leaves alone and the target declares
    even is kept: the plan stores its target field once, and ``apply`` adds
    its exponent straight into the term's packed key.  Only mapped factors,
    odd ones and a negative power of a kept variable the target cannot
    invert go through ``var_power``.
    """

    __slots__ = ("src", "target", "mapping", "_names", "_missing", "_kept", "_powers")

    def __init__(self, src: VarTable, mapping: Mapping[str, GradedPoly], target: VarTable):
        _check_type("mapping", mapping, Mapping)
        _check_type("target", target, VarTable)
        for name, repl in mapping.items():
            if name not in src:
                raise KeyError(f"unknown variable {name!r}")
            if not isinstance(repl, GradedPoly):
                raise TypeError(
                    f"replacement for {name!r} must be a GradedPoly, got {type(repl).__name__}"
                )
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
        # each with the mask and bits of its support test
        self._missing = tuple(
            (n, *src._support(n)) for n in src.names() if n not in mapping and n not in target
        )
        # per source even slot: (target field shift, invertible in the target)
        # of a kept variable, else None
        self._kept = tuple(
            (target._shifts[target._even_slot[n]], target.spec(n).invertible)
            if n not in mapping and n in target and target.parity(n) == EVEN else None
            for n in self._names[0]
        )
        self._powers: dict[tuple[str, int], GradedPoly] = {}

    def var_power(self, name: str, e: int) -> GradedPoly:
        """The image of ``name**e``, for a non-zero exponent ``e``."""
        got = self._powers.get((name, e))
        if got is None:
            repl = self.mapping.get(name)
            if repl is None:
                repl = self.target.var(name)
                if e < 0 and not self.target.spec(name).invertible:
                    raise NonInvertibleSubstitution(
                        f"{name!r} is not invertible in the target table"
                    )
            got = repl**e if e > 0 else _invert_unit(repl) ** -e
            self._powers[(name, e)] = got
        return got

    def apply(self, a: GradedPoly) -> GradedPoly:
        if a.table != self.src:
            raise ValueError("polynomial is not over the substitution's source table")
        for name, mask, bits in self._missing:
            if any(m & mask != bits for m in a._num):
                raise KeyError(
                    f"variable {name!r} is not mapped and missing from the target table"
                )
        src, target = self.src, self.target
        evens, odds = self._names
        odd, h_src, h_dst, unit = src._odd, src._hbar_shift, target._hbar_shift, target._zero
        # each term's image is c * part / d, one part of the sum
        parts = []
        kept = self._kept
        for m, c in a._num.items():
            # kept factors go into the key; each source exponent is in range,
            # and kept variables have distinct target fields, so it is too
            key = unit + (m >> h_src << h_dst)
            factors = []
            for slot, e in src._exponents(m):
                field = kept[slot]
                if field is not None and (e > 0 or field[1]):
                    key += e << field[0]
                else:
                    factors.append((evens[slot], e))
            rest = m & odd
            while rest:
                low = rest & -rest
                factors.append((odds[low.bit_length() - 1], 1))
                rest ^= low
            part, d = {key: 1}, 1
            for name, e in factors:
                image = self.var_power(name, e)
                part = _mul_terms(part, image._num, target)
                if not part:
                    break
                d *= image._den
            else:
                parts.append((c, part, d))
        num, den = _sum_terms(parts)
        return GradedPoly._of_scaled(target, num, den * a._den)


def substitute(
    a: GradedPoly,
    mapping: Mapping[str, GradedPoly],
    target: VarTable,
) -> GradedPoly:
    """Simultaneous parity-preserving substitution, possibly into a new table.

    A one-shot ``SubstitutionPlan``.  Build the plan once to apply one
    mapping to many polynomials.
    """
    _check_type("polynomial", a, GradedPoly)
    return SubstitutionPlan(a.table, mapping, target).apply(a)
