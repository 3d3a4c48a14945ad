"""Exact Moyal-type star product driven by a central superbivector.

The product is the formal exponential of the bivector's bidifferential
kernel: the order-n term applies n contraction steps, each taking a left
derivative on both tensor slots and a Koszul sign

    (-1)^(|B| (|F| + |A|))

for the entry (A, B) acting on a first slot of current parity |F|.

The series is summed in its multi-index form.  A live state is a pair of
bare derived monomials (F, G) together with a centre, the term map of a
polynomial in the entries; contributions that reach the same pair are added
into one centre, because what a state produces next depends only on (F, G)
(entries are even and central, |F| is read off F, and the 1/(n! 2^n)
prefactor only on the order n).  Each order then costs one product
centre * F * G per distinct pair, so the work grows with the number of
derived monomial pairs, not with the number of step sequences.  Steps work
on monomials directly (one derivative, one product), and every sum is
accumulated in place in a dict.  Contraction coefficients are integers, so
with integral entries the centres stay integral and a denominator appears
only where an order's sum is divided by n! 2^n.

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

# d_left is not called here; bench/tests/test_bench.py expects the name
# moyal.d_left, which bench/layertrace.py rebinds like every other import
from .graded_calculus import _mono_d, _var_key, d_left  # noqa: F401
from .graded_ring import EVEN, ODD, GradedPoly, Monomial, _exact, _mono_mul, _mul_terms
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

    __slots__ = (
        "bivector", "table", "max_order", "_steps", "_unit",
        "_cache", "_hits", "_misses", "_peaks",
    )

    def __init__(self, bivector: SuperBivector, max_order: int = 8):
        if max_order < 0:
            raise ValueError(f"max_order must be non-negative, got {max_order}")
        if not bivector.is_central:
            raise NonCentralBivector("bivector entries depend on contracted variables")
        for (a, b), entry in bivector.entries.items():
            if entry.parity() != EVEN:
                raise NonCentralBivector(f"entry ({a}, {b}) is not even")
        self.bivector = bivector
        self.table = t = bivector.table
        # steps as (derivative key of A, of B, terms of pi^{AB}, |A|, |B|)
        self._steps = tuple(
            (_var_key(t, a), _var_key(t, b), entry.terms, pa, pb)
            for a, b, entry, pa, pb in bivector.steps
        )
        self._unit = Monomial((0,) * t.n_even, 0, 0)
        self.max_order = max_order
        self._cache: dict[tuple[Monomial, Monomial], dict] = {}
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
        out: dict = {}
        try:
            for mf, cf in f.terms.items():
                for mg, cg in g.terms.items():
                    c = cf * cg
                    for m, q in self._star_mono(mf, mg).items():
                        out[m] = out.get(m, 0) + c * q
        except TruncationExceeded:
            raise TruncationExceeded(self.max_order, self._sufficient_order(f, g)) from None
        return GradedPoly._of(self.table, {m: q for m, q in out.items() if q})

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

    def _star_mono(self, mf: Monomial, mg: Monomial) -> dict:
        """Terms of mf * mg, cached per engine; callers must not mutate them."""
        got = self._cache.get((mf, mg))
        if got is not None:
            self._hits += 1
            return got
        self._misses += 1
        peaks = self._peaks
        total = _mul_terms({mf: 1}, {mg: 1})
        # live states (centre, F, G): one per derived monomial pair (F, G),
        # with the centre polynomial as a term map
        states = [({self._unit: 1}, mf, mg)]
        order = 0
        while states:
            if order == len(peaks):
                peaks.append(0)
            peaks[order] = max(peaks[order], len(states))
            order += 1
            merged: dict[tuple[Monomial, Monomial], dict] = {}
            for centre, F, G in states:
                pf = F.odd.bit_count() & 1
                last_a = None
                for ka, kb, e, pa, pb in self._steps:
                    # steps are sorted by row, so one derivative serves a run
                    if ka != last_a:
                        last_a, dF = ka, _mono_d(F, ka)
                    if dF is None:
                        continue
                    dG = _mono_d(G, kb)
                    if dG is None:
                        continue
                    ce = _mul_terms(centre, e)
                    if not ce:
                        continue
                    if order > self.max_order:
                        raise TruncationExceeded(self.max_order)
                    c = _step_sign(pb, pf, pa) * dF[0] * dG[0]
                    acc = merged.setdefault((dF[1], dG[1]), {})
                    for m, q in ce.items():
                        acc[m] = acc.get(m, 0) + c * q
            states = []
            order_sum: dict = {}
            for (nF, nG), centre in merged.items():
                centre = {m: q for m, q in centre.items() if q}
                if not centre:
                    continue
                states.append((centre, nF, nG))
                fg = _mono_mul(nF, nG)
                if fg is None:
                    continue
                sign, FG = fg
                FG = Monomial(FG.even, FG.odd, FG.hbar + order)
                for m, q in _mul_terms(centre, {FG: sign}).items():
                    order_sum[m] = order_sum.get(m, 0) + q
            denominator = factorial(order) * 2**order
            for m, q in order_sum.items():
                total[m] = total.get(m, 0) + _exact(Fraction(q, denominator))
        total = self._cache[(mf, mg)] = {m: q for m, q in total.items() if q}
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
