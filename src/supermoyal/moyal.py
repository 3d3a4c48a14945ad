"""Exact Moyal-type star product driven by a central superbivector.

The product is the formal exponential of the bivector's bidifferential
kernel: the order-n term applies n contraction steps, each taking a left
derivative on both tensor slots and a Koszul sign

    (-1)^(|B| (|F| + |A|))

for the entry (A, B) acting on a first slot of current parity |F|.  States
that survive past the configured order raise instead of being dropped, so a
returned value is always the complete series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from random import Random

from .graded_calculus import d_left
from .graded_ring import EVEN, ODD, GradedPoly, Monomial
from .poisson import SuperBivector, _bracket_sign as _step_sign, poisson_bracket


class NonCentralBivector(ValueError):
    """Star products need entries that no differentiated variable can see."""


class TruncationExceeded(RuntimeError):
    """The contraction series is still alive past the configured order."""


class MixedParityInput(ValueError):
    """Supercommutators are defined for parity-homogeneous arguments."""


class StarEngine:
    """Star product for one bivector, with a per-engine monomial cache."""

    __slots__ = ("bivector", "table", "max_order", "_cache")

    def __init__(self, bivector: SuperBivector, max_order: int = 8):
        if max_order < 0:
            raise ValueError(f"max_order must be non-negative, got {max_order}")
        if not bivector.is_central:
            raise NonCentralBivector("bivector entries depend on contracted variables")
        for (a, b), entry in bivector.entries.items():
            if entry.parity() != EVEN:
                raise NonCentralBivector(f"entry ({a}, {b}) is not even")
        self.bivector = bivector
        self.table = bivector.table
        self.max_order = max_order
        self._cache: dict[tuple[Monomial, Monomial], GradedPoly] = {}

    def star(self, f: GradedPoly, g: GradedPoly) -> GradedPoly:
        if f.table != self.table or g.table != self.table:
            raise ValueError("operands must live over the engine's variable table")
        out = self.table.zero()
        for mf, cf in f.terms.items():
            for mg, cg in g.terms.items():
                out = out + self._star_mono(mf, mg).scale(cf * cg)
        return out

    def _star_mono(self, mf: Monomial, mg: Monomial) -> GradedPoly:
        got = self._cache.get((mf, mg))
        if got is not None:
            return got
        t = self.table
        steps = self.bivector.steps
        one = Fraction(1)
        F0 = GradedPoly(t, {mf: one})
        G0 = GradedPoly(t, {mg: one})
        total = F0 * G0
        states = [(t.one(), F0, G0, mf.parity())]
        order = 0
        while states:
            order += 1
            next_states = []
            order_sum = t.zero()
            for center, F, G, pf in states:
                for a, b, entry, pa, pb in steps:
                    dF = d_left(a, F)
                    if dF.is_zero():
                        continue
                    dG = d_left(b, G)
                    if dG.is_zero():
                        continue
                    sign = _step_sign(pb, pf, pa)
                    c2 = (center * entry).scale(sign)
                    if c2.is_zero():
                        continue
                    if order > self.max_order:
                        raise TruncationExceeded(
                            f"series alive past hbar order {self.max_order}"
                        )
                    next_states.append((c2, dF, dG, pf ^ pa))
                    order_sum = order_sum + c2 * dF * dG
            if not order_sum.is_zero():
                scale = Fraction(1, factorial(order) * 2**order)
                total = total + (t.hbar(order) * order_sum).scale(scale)
            states = next_states
        self._cache[(mf, mg)] = total
        return total

    def supercommutator(self, f: GradedPoly, g: GradedPoly) -> GradedPoly:
        pf, pg = f.parity(), g.parity()
        if pf == "mixed" or pg == "mixed":
            raise MixedParityInput("supercommutator needs homogeneous arguments")
        # f*g - (-1)^{|f||g|} g*f; odd-odd arguments anticommute classically
        sign = -1 if (pf == ODD and pg == ODD) else 1
        return self.star(f, g) - self.star(g, f).scale(sign)


@dataclass(frozen=True)
class ContractEntry:
    name: str
    status: str
    detail: str = ""


@dataclass(frozen=True)
class ContractReport:
    entries: tuple[ContractEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.status == "pass" for e in self.entries)


def _row_basis(engine: StarEngine, n_even: int, n_odd: int, max_degree: int):
    """All monomials of bounded degree in a few bivector-row variables."""
    t = engine.table
    rows = engine.bivector.rows()
    evens = [n for n in rows if t.parity(n) == EVEN][:n_even]
    odds = [n for n in rows if t.parity(n) == ODD][:n_odd]
    basis = []
    for deg in range(max_degree + 1):
        for odd_count in range(min(deg, len(odds)) + 1):
            even_deg = deg - odd_count
            for odd_pick in combinations(odds, odd_count):
                for even_split in _compositions(even_deg, len(evens)):
                    p = t.one()
                    for name, e in zip(evens, even_split):
                        for _ in range(e):
                            p = p * t.var(name)
                    for name in odd_pick:
                        p = p * t.var(name)
                    basis.append(p)
    return basis


def _compositions(total: int, slots: int):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _sample_poly(rng: Random, engine: StarEngine, max_terms: int = 2) -> GradedPoly:
    t = engine.table
    rows = engine.bivector.rows()
    names = list(rows) if rows else list(t.names())
    out = t.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = t.const(rng.choice([1, -1, 2, Fraction(1, 2)]))
        for _ in range(rng.randint(0, 2)):
            term = term * t.var(rng.choice(names))
        out = out + term
    return out


def check_quantization_contract(
    engine: StarEngine,
    seed: int = 0,
    associativity: bool = True,
) -> ContractReport:
    """Spot-check bilinearity, associativity, and the order-1 bracket match.

    Failures are reported, not raised.  The associativity sweep runs an
    exhaustive low-degree basis plus randomized polynomial triples.
    """
    t = engine.table
    rng = Random(seed)
    entries: list[ContractEntry] = []

    basis = _row_basis(engine, 2, 2, 2)
    fails: list[str] = []
    for _ in range(3):
        f, g, h = (_sample_poly(rng, engine) for _ in range(3))
        if engine.star(f + g, h) != engine.star(f, h) + engine.star(g, h):
            fails.append("left additivity")
        if engine.star(f, g + h) != engine.star(f, g) + engine.star(f, h):
            fails.append("right additivity")
        if engine.star(f.scale(Fraction(3, 2)), g) != engine.star(f, g).scale(Fraction(3, 2)):
            fails.append("scalar linearity")
        if engine.star(t.hbar() * f, g) != t.hbar() * engine.star(f, g):
            fails.append("hbar linearity")
    entries.append(
        ContractEntry("bilinearity", "fail" if fails else "pass", "; ".join(sorted(set(fails))))
    )

    if associativity:
        bad = 0
        first = ""
        for f in basis:
            for g in basis:
                fg = engine.star(f, g)
                for h in basis:
                    if engine.star(fg, h) != engine.star(f, engine.star(g, h)):
                        bad += 1
                        if not first:
                            first = f"first failure on basis triple ({f!r}, {g!r}, {h!r})"
        for _ in range(10):
            f, g, h = (_sample_poly(rng, engine) for _ in range(3))
            if engine.star(engine.star(f, g), h) != engine.star(f, engine.star(g, h)):
                bad += 1
                if not first:
                    first = "failure on a randomized triple"
        entries.append(
            ContractEntry("associativity", "fail" if bad else "pass", first if bad else "")
        )

    bad = 0
    first = ""
    pi = engine.bivector
    pairs = [(f, g) for f in basis for g in basis]
    for _ in range(10):
        pairs.append((_sample_poly(rng, engine), _sample_poly(rng, engine)))
    for f, g in pairs:
        lhs = engine.star(f, g).hbar_coefficient(1)
        rhs = poisson_bracket(pi, f, g).scale(Fraction(1, 2))
        if lhs != rhs:
            bad += 1
            if not first:
                first = f"pair ({f!r}, {g!r})"
    entries.append(
        ContractEntry("order1-bracket", "fail" if bad else "pass", first if bad else "")
    )
    return ContractReport(tuple(entries))
