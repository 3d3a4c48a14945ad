"""Exact Moyal-type star product driven by a central superbivector.

The product is the formal exponential of the bivector's bidifferential
kernel: the order-n term applies n contraction steps, each taking a left
derivative on both tensor slots and a Koszul sign

    (-1)^(|B| (|F| + |A|))

for the entry (A, B) acting on a first slot of current parity |F|.

The series is summed in its multi-index form.  A live state is the pair of
derived monomials (F, G) together with a centre polynomial; contributions
that reach the same pair are added, because what a state produces next
depends only on (F, G) (entries are even and central, |F| is read off F,
and the 1/(n! 2^n) prefactor only on the order n).  Each order then costs
one product centre * F * G per distinct pair, so the work grows with the
number of derived monomial pairs, not with the number of step sequences.

A non-zero contribution at order max_order + 1 raises ``TruncationExceeded``
instead of being dropped, so a returned value is always the complete series.
Merged centres that cancel to zero are dropped first; that can only turn a
raise into the complete series, never hide a live term.
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
    """The contraction series is still alive past the configured order.

    ``sufficient_order`` is an order at which the same product completes,
    when ``StarEngine.star`` can bound one from its operands, else None.
    """

    def __init__(self, max_order: int, sufficient_order: int | None = None):
        msg = f"series alive past hbar order {max_order}"
        if sufficient_order is not None:
            msg += f"; order {sufficient_order} suffices for these operands"
        super().__init__(msg)
        self.max_order = max_order
        self.sufficient_order = sufficient_order


class MixedParityInput(ValueError):
    """Supercommutators are defined for parity-homogeneous arguments."""


@dataclass(frozen=True)
class EngineStats:
    """Counters of one engine: cache use and the size of its contraction runs.

    ``peak_states[n]`` is the largest number of live (merged) states seen at
    hbar order n over all products computed so far; ``max_order_reached``
    is the highest order that had a live state, or -1 before any product.
    """

    cache_hits: int
    cache_misses: int
    cache_size: int
    peak_states: tuple[int, ...]
    max_order_reached: int


class StarEngine:
    """Star product for one bivector, with a per-engine monomial cache."""

    __slots__ = ("bivector", "table", "max_order", "_cache", "_hits", "_misses", "_peaks")

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
        self._hits = 0
        self._misses = 0
        self._peaks: list[int] = []

    @property
    def stats(self) -> EngineStats:
        peaks = tuple(self._peaks)
        return EngineStats(self._hits, self._misses, len(self._cache), peaks, len(peaks) - 1)

    def star(self, f: GradedPoly, g: GradedPoly) -> GradedPoly:
        if f.table != self.table or g.table != self.table:
            raise ValueError("operands must live over the engine's variable table")
        out = self.table.zero()
        try:
            for mf, cf in f.terms.items():
                for mg, cg in g.terms.items():
                    out = out + self._star_mono(mf, mg).scale(cf * cg)
        except TruncationExceeded:
            raise TruncationExceeded(self.max_order, self._sufficient_order(f, g)) from None
        return out

    def _sufficient_order(self, f: GradedPoly, g: GradedPoly) -> int | None:
        """min over operands of the largest row degree, or None if unbounded.

        Each contraction step removes one row factor from each slot, so no
        series runs longer than either operand's row degree.  A negative
        exponent on a row variable never runs out, so it bounds nothing.
        """
        t = self.table
        rows = self.bivector.rows()
        slots = [t.even_slot(r) for r in rows if t.parity(r) == EVEN]
        odd_mask = sum(1 << t.odd_bit(r) for r in rows if t.parity(r) == ODD)
        bounds = []
        for p in (f, g):
            if any(m.even[s] < 0 for m in p.terms for s in slots):
                continue
            bounds.append(
                max((sum(m.even[s] for s in slots) + (m.odd & odd_mask).bit_count()
                     for m in p.terms), default=0)
            )
        return min(bounds) if bounds else None

    def _star_mono(self, mf: Monomial, mg: Monomial) -> GradedPoly:
        got = self._cache.get((mf, mg))
        if got is not None:
            self._hits += 1
            return got
        self._misses += 1
        t = self.table
        steps = self.bivector.steps
        peaks = self._peaks
        one = Fraction(1)
        F = GradedPoly(t, {mf: one})
        G = GradedPoly(t, {mg: one})
        total = F * G
        # live states (centre, F, G, |F|), one per derived monomial pair (F, G)
        states = [(t.one(), F, G, mf.parity())]
        order = 0
        while states:
            if order == len(peaks):
                peaks.append(0)
            peaks[order] = max(peaks[order], len(states))
            order += 1
            merged: dict[tuple[Monomial, Monomial], GradedPoly] = {}
            for centre, F, G, pf in states:
                last_a = None
                for a, b, entry, pa, pb in steps:
                    # steps are sorted by row, so one derivative serves a run
                    if a != last_a:
                        last_a, dF = a, d_left(a, F)
                    if dF.is_zero():
                        continue
                    dG = d_left(b, G)
                    if dG.is_zero():
                        continue
                    ((nF, cF),) = dF.terms.items()
                    ((nG, cG),) = dG.terms.items()
                    c2 = (centre * entry).scale(_step_sign(pb, pf, pa) * cF * cG)
                    if c2.is_zero():
                        continue
                    if order > self.max_order:
                        raise TruncationExceeded(self.max_order)
                    key = (nF, nG)
                    prev = merged.get(key)
                    merged[key] = c2 if prev is None else prev + c2
            states = []
            order_sum = t.zero()
            for (nF, nG), centre in merged.items():
                if centre.is_zero():
                    continue
                F = GradedPoly(t, {nF: one})
                G = GradedPoly(t, {nG: one})
                order_sum = order_sum + centre * (F * G)
                states.append((centre, F, G, nF.parity()))
            if not order_sum.is_zero():
                scale = Fraction(1, factorial(order) * 2**order)
                total = total + (t.hbar(order) * order_sum).scale(scale)
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
