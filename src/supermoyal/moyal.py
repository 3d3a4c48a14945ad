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
derived monomial pairs, not with the number of step sequences.

The kernel visits only live steps.  It reads the bivector's packed step
table (``SuperBivector._rows``, built with the bivector), grouped by row A,
and a state tries a row only when A divides F, and a partner B only when B
divides G, read off the variable's field or odd bit of the packed monomial
(see ``graded_ring``) before any derivative is taken; F is differentiated
once per live row and G once per live partner.  At order 1 the centre is
the unit, so centre * entry is the entry itself; at order 0 and for each
merged state, the product with the single monomial F * G is taken term by
term.  ``star`` reads the monomial-pair cache and runs the kernel only on
a miss whose block parts have no run yet (see "Runs" below), so a product
of cached pairs costs dict reads and integer multiply-adds.

All of it is integer arithmetic.  The step table holds the entries scaled
once by their common denominator d_e, so centres and contraction
coefficients are ints and the order-n sum is d_e^n n! 2^n times the true
order-n term.  The kernel sums a monomial pair's orders at the one scale

    D = max_order! (2 d_e)^max_order,

order n adding its integer sum times D / (n! (2 d_e)^n), an integer that is
order n - 1's divided by n 2 d_e, and reduces the total over D by one gcd
pass (see ``graded_ring``: the int form of a polynomial).  The caches hold
that reduced polynomial, so D never leaves the kernel.  ``star`` of two
single terms with coefficient 1 returns the cached polynomial itself, which
is safe because a ``GradedPoly`` is immutable, and on a miss the product
``_star_mono`` caches, with no sum around it.  Every other product, and
every side of the quantization contract's basis sweep, is read pair by pair
by one method, ``StarEngine._sum_products``: it sums int numerators over
one shared denominator, the lcm of the pair denominators.  ``star`` reduces
that sum once.  The sweep needs only an equality per triple, so it compares
the two sides' numerators and builds no polynomial; it reads each term of a
product operand without its passive factor (see "Passive factors" below),
and each row (f, g) in two reader jobs, (f g) * h and f * (g h) for every
h, kept apart by a tag per h (``_basis_sweep``).  The order-1 check does
the same with each product's hbar^1 numerators and the bracket's, which
``poisson._bracket_num`` sums from one table of row derivatives per operand
(``_order1_sweep``).

What an engine needs from the bivector alone (d_e, the packed rows, the
blocks below, and the reason to refuse it when it is not central, has an
odd entry or an entry with hbar) is computed once, when the bivector is
built, and an engine only reads it.  The pair cache, the run cache, the
memo of monomial products and the two classification memos (see "Blocks"),
the scale D and the counters stay per engine, so engines share no
contraction work, and a fresh engine, as in a new process, starts with every
cache empty.

A non-zero contribution at order max_order + 1 raises ``TruncationExceeded``
instead of being dropped, so a returned value is always the complete series.
Merged centres that cancel to zero are dropped first; that can only turn a
raise into the complete series, never hide a live term.

Mirrored pairs.  For homogeneous f and g the product obeys the
opposite-algebra identity

    g * f = (-1)^(|f||g|) (f * g)|_{hbar -> -hbar},

where hbar -> -hbar flips the sign of each term of odd contraction order n.
``StarEngine`` rejects an entry that contains hbar, so each contraction step
adds exactly one power of hbar, and n is a term's hbar power less the
operands' own.  Proof: f * g is mu exp(hbar P / 2)(f (x) g), with mu the
product of the two slots and

    P(F (x) G) = sum_{A,B} (-1)^(|B| (|F| + |A|)) pi^{AB} d_A F (x) d_B G,

the kernel's order n applying P n times.  The graded flip
tau(F (x) G) = (-1)^(|F||G|) G (x) F satisfies mu tau = mu (the ring is
supercommutative) and tau tau = 1.  The entries are even and central, so
they pass through tau and the derivatives; as d_A G and d_B F have parities
|G| + |A| and |F| + |B|, the signs of tau P tau add up to (-1)^(|A||F|):

    tau P tau (F (x) G) = sum_{A,B} (-1)^(|A||F|) pi^{AB} d_B F (x) d_A G.

Swapping the names A and B and using the graded antisymmetry
pi^{BA} = -(-1)^(|A||B|) pi^{AB} that ``SuperBivector`` enforces turns the
right side into -P(F (x) G).  Nothing here asks whether |A| + |B| is even
or odd, so it holds for even and odd bivectors alike.  Then tau P = -P tau,
and since g (x) f = (-1)^(|f||g|) tau(f (x) g),

    g * f = (-1)^(|f||g|) mu exp(hbar P / 2) tau (f (x) g)
          = (-1)^(|f||g|) mu tau exp(-hbar P / 2)(f (x) g)
          = (-1)^(|f||g|) (f * g)|_{hbar -> -hbar}.

So a cache miss on (mg, mf) whose mirror (mf, mg) is cached flips signs
on the mirror's numerators instead of contracting again; the mirror's
series has the same live states order by order, so it raises
``TruncationExceeded`` exactly when the cached one would have.  A term of
order n gains the factor (-1)^(|f||g|) (-1)^n, so when that factor is 1 on
every term (for even pairs: no term of odd order) the flip changes no
coefficient, and the reduced polynomial is the mirror's own: the miss
caches the mirror object itself, and both entries hold one object.  And
the supercommutator f * g - (-1)^(|f||g|) g * f is twice the odd-order
part of f * g.

Blocks.  Join A and B when pi^{AB} != 0; a block is a connected component of
that graph, and P = sum_b P_b, with P_b the steps inside block b.  A miss
splits the pair into the parts of its k >= 0 live blocks and a passive rest
(a block is live when one of its steps (A, B) has A dividing mf and B
dividing mg).  Proof for an even bivector with no odd factor in an entry:
an even step has |A| = |B|, so
d_A (x) d_B is an even operator on the super tensor product, whose product
is (a (x) b)(c (x) d) = (-1)^(|b||c|) ac (x) bd.  Writing out the Koszul
signs with |A| = |B| gives P_b(X Y) = (P_b X) Y when Y has no variable of
block b, and P_b(X Y) = X (P_b Y) when X has none.  Steps of two blocks
differentiate different variables and leave the central entries alone, so
the P_b commute and exp(hbar P / 2) = prod_b exp(hbar P_b / 2).  Write
mf = s_f F_1 ... F_k F_0 and mg = s_g G_1 ... G_k G_0, with F_b, G_b the
factors of live block b, F_0, G_0 the rest (hbar included) and s_f, s_g the
signs of regrouping their odd factors (products of ``_merge_sign``).
Expanding the tensor product gives

    mf (x) mg = s (F_1 (x) G_1) ... (F_k (x) G_k) (F_0 (x) G_0),
    s = s_f s_g (-1)^(sum_{b < c} |G_b| |F_c|),

with c running to the rest.  Each exp(hbar P_b / 2) acts on its own
factor alone and the blocks that are not live act as the identity, and mu
is an algebra map because the ring is supercommutative, so

    mf * mg = s (F_1 * G_1) ... (F_k * G_k) F_0 G_0,

each F_b * G_b the series of block b alone.  With k = 0 this is mf mg, and
s = 1: such a miss is one monomial product, with its one state at order 0.
That product is sign * (mf mg) for ``_mono_mul``'s (sign, mf mg), or zero
when mf and mg share an odd factor, so it depends on that pair alone, and
an engine keeps one object per (sign, mf mg) and one zero: every miss with
no live block reads it, and so does a miss with live blocks whose rest
F_0 G_0 vanishes.  With k = 1 it is s (F_1 * G_1) F_0 G_0, where s = 1
unless the rest has an odd factor: order by order, the joint kernel's
states are block 1's
states times (F_0, G_0), each centre up to a sign that the state fixes, so
they merge, cancel and fire alike and the live states per order are block
1's.  With k >= 2, the order-n term of
exp(hbar P / 2) is the sum over n_1 + ... + n_k = n of
prod_b (hbar P_b / 2)^(n_b) / n_b!, so a joint state at order n is one
state of each block, their orders summing to n, and its merged centre is
n! / prod_b n_b! times the product of the blocks' centres, up to sign.  The
centres lie in a polynomial ring over Q, which has no zero divisors, so a
joint state is live exactly when each of its block states is: the joint
live states per order are the blocks' counts convolved.  For the same
reason the joint series fires a step past max_order exactly when some block
b fires from an order a_b while the others sit at live orders summing to
max_order - a_b.  Block b fires from every order up to its highest, a_b,
and block c is live at every order up to its depth depth_c, so the engine
raises when a_b + sum_{c != b} depth_c >= max_order for some live b, and
records the joint peaks up to max_order first, as the joint series would.
One fold over the live blocks takes that maximum for any k >= 1: block 1's
run seeds the series, the counts and a = a_1, and each later block c
multiplies in its series, convolves in its counts and sets a to
max(a + depth_c, a_c + depth), depth that of the blocks before c; the
counts are cut at max_order only for the peaks, or depth would fall short.

An odd bivector, or an entry with an odd factor, is one block over every
variable: two odd block operators anticommute, so the exponential does not
factor, and centres with odd factors can multiply to zero, so counts do not
convolve.  Its rest is only the operands' hbar powers, and stripping them
is exact: hbar is even and central and no step differentiates it, so
exp(hbar P / 2)(hbar^a F (x) hbar^b G) = hbar^(a+b) exp(hbar P / 2)(F (x) G),
with s = 1 and the same states order by order.

How a miss finds its live blocks.  An operand monomial's row bits are one
bit per bivector row that divides it, by the same m & mask != bits test
the kernel makes, taken for every row at once (``VarTable._factor_bits``,
masked by ``SuperBivector._row_mask``).  Each block lists (row bit,
partner bits) for its rows (``poisson._blocks``), so a block is live
exactly when a row bit of mf links to a partner bit of mg.  A one-block
bivector takes the same test, so a pair with no live step takes the k = 0
path: its kernel would return F_b G_b from one state at order 0 and fire
nothing, which is what the k = 0 path caches and records.  An engine
keeps each operand's row bits per monomial, and a pair's live blocks and
sign s per shape, (rows of mf, rows of mg, mf & odd, mg & odd).  That key
is complete: the live blocks depend on the row bits alone, and s
(``_regroup_sign``) reads only the parts' odd factors, mf & mask & odd and
mg & mask & odd for the live blocks' masks and the rest, so only the odd
masks beside the live blocks.  Both memos fill as misses arrive: one
classification per distinct monomial and one per distinct shape.

Runs.  The series F_b * G_b of a block, its live states per order and the
highest order it fired from depend only on the parts (F_b, G_b), so an
engine keeps them per pair of parts, as the block's run, with the series
reduced over D, and every later miss with the same parts reads the run
instead of contracting again.  With one live block the pair's product is
the run times s F_0 G_0: each key gains F_0 G_0's fields and hbar power,
and each coefficient its sign, with a ``_merge_sign`` per term when F_0 G_0
has odd factors (no key of the run has one: they lie outside the block).
Keys stay distinct, so each term of the run is one term of the product.
The entries live in passive fields, which F_0 G_0 may fill too, so every
shifted key is tested against the guard bits when F_0 G_0 has an even
exponent.  Such a pair raises ``TruncationExceeded`` exactly when
its run fired from max_order, and records the run's live states.

Passive factors.  A variable is passive when no step differentiates it:
hbar, and each even variable that is no row, such as an entry's constant
D11_12 (``SuperBivector._passive`` holds their bits).  For a monomial c in
passive variables, with any exponents an element of the ring may have,

    (c m) * h = c (m * h)   and   f * (c m) = c (f * m).

Proof: c is even, so it adds nothing to a Koszul sign and commutes with
every factor, the central entries included, and no d_A differentiates it,
so d_A (c F) = c d_A F with |c F| = |F|.  Hence P(c F (x) G) =
(c (x) 1) P(F (x) G) and P(F (x) c G) = (1 (x) c) P(F (x) G), so
exp(hbar P / 2) commutes with both, and mu takes either to c times mu,
the ring being supercommutative.  Order by order, each state of the pair
with c is c times a state of the pair without it, in the same slot and
with the same centre, so the two merge, cancel and fire alike: the same
live states at every order and the same truncation.  (This is the
argument that strips hbar from the rest of a joint block above.)  Odd
passive variables are not stripped, as they carry signs.  The basis
sweep's product operands are full of such factors (hbar powers and
entries' constants), so it splits each term once into m0, the term with
its passive bits set as the unit's, and the shift m - m0 of the packed
key, reads the pair of m0 and moves every key of its product by the
shift.  Terms that differ only by a passive factor share that pair, so
the sweep reads as many pairs as two ``star`` calls per triple would, one
per pair, and misses fewer.  A moved key past the exponent range sends
the unmoved pair to the engine, so the ``ExponentOverflow`` is ``star``'s
(a batched row of the sweep first replays as one job per product).

Two products skip the gcd pass that makes a polynomial canonical (see
``graded_ring``), because they are canonical as built: the run is, and
multiplying each of its numerators by +-1 over the same denominator keeps
their gcd with it, so one run times a signed monomial is too, and so is a
mirror read, which flips signs over the mirror's denominator.  A product
of k >= 2 runs multiplies their numerators and denominators, and is
reduced once: a run with no order-0 term, as th * th for an odd row th,
may have every numerator divisible by a factor of another run's
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd
from random import Random

# d_left is not called here; bench/tests/test_bench.py expects the name
# moyal.d_left, which bench/layertrace.py rebinds like every other import
from .graded_calculus import _mono_d, d_left  # noqa: F401
from .graded_ring import (
    _FIELD, EVEN, EXPONENT_LIMIT, ODD, ExponentOverflow, GradedPoly, _check_int, _check_type, _merge_sign, _mono_mul,
    _mul_terms, render_poly,
)
from .poisson import SuperBivector, _bracket_num, _bracket_sign as _step_sign, _row_derivatives


# the largest max_order an engine accepts: every run sums its orders over
# D = max_order! (2 d_e)^max_order, which grows with the order (1,940 bits at
# 256 with d_e = 1), and every run's integer sum carries D until it is reduced
MAX_ORDER = 256


def check_max_order(max_order: int) -> None:
    """Raise a ValueError naming the bound unless 0 <= max_order <= MAX_ORDER,
    and a TypeError for a value that is not an int (a bool included)."""
    _check_int("max_order", max_order)
    if max_order < 0:
        raise ValueError(f"max_order must be non-negative, got {max_order}")
    if max_order > MAX_ORDER:
        raise ValueError(f"max_order must be at most {MAX_ORDER}, got {max_order}")


class NonCentralBivector(ValueError):
    """Star products need even, hbar-free entries that no differentiated
    variable can see."""


class TruncationExceeded(RuntimeError):
    """The contraction series is still alive past the configured order.

    ``sufficient_order`` is an order at which the same product completes,
    when ``StarEngine.star`` can bound one by ``MAX_ORDER`` from its
    operands, else None.
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
    """Star product for one bivector, with a per-engine monomial cache.

    The bivector's refusal, d_e and blocks are built with the bivector and
    read by every engine over it; the pair cache, the run cache, the memos
    of monomial products, row bits and pair shapes, the scale for
    ``max_order`` and ``stats`` belong to this engine alone.  ``stats``
    count monomial pairs, not runs.  ``bivector``, ``table`` and
    ``max_order`` are read-only: the scale and both caches are built for them.
    """

    __slots__ = (
        "_bivector", "_table", "_max_order", "_blocks", "_unit", "_scale",
        "_cache", "_runs", "_monos", "_row_bits", "_shapes", "_hits", "_misses", "_peaks",
    )

    def __init__(self, bivector: SuperBivector, max_order: int = 8):
        _check_type("bivector", bivector, SuperBivector)
        check_max_order(max_order)
        if bivector._refusal is not None:
            raise NonCentralBivector(bivector._refusal)
        d_e, self._blocks = bivector._d_e, bivector._blocks
        self._bivector = bivector
        self._table = t = bivector.table
        self._unit = t._zero
        self._max_order = max_order
        self._scale = factorial(max_order) * (2 * d_e) ** max_order  # the cache scale D
        self._cache: dict[tuple[int, int], GradedPoly] = {}
        # the block runs, keyed by the parts (F_b, G_b): (series, counts, fired)
        self._runs: dict[tuple[int, int], tuple[GradedPoly, list, int]] = {}
        # the products of pairs with no live block, one per (sign, mf mg), and zero under None
        self._monos: dict[tuple[int, int] | None, GradedPoly] = {}
        # an operand monomial's row bits, and a pair's (live blocks, sign) by its shape
        self._row_bits: dict[int, int] = {}
        self._shapes: dict[tuple[int, int, int, int], tuple[tuple, int]] = {}
        self._hits = 0
        self._misses = 0
        self._peaks: list[int] = []

    bivector = property(lambda self: self._bivector)
    table = property(lambda self: self._table)
    max_order = property(lambda self: self._max_order)

    @property
    def stats(self) -> EngineStats:
        peaks = tuple(self._peaks)
        return EngineStats(self._hits, self._misses, len(self._cache), peaks, len(peaks) - 1)

    def star(self, f: GradedPoly, g: GradedPoly) -> GradedPoly:
        return self._product(f, g, False)

    def supercommutator(self, f: GradedPoly, g: GradedPoly) -> GradedPoly:
        # f*g - (-1)^{|f||g|} g*f is twice the odd-order part of f*g, pair by
        # pair (see the module docstring), so g*f is never computed
        return self._product(f, g, True)

    def _product(self, f: GradedPoly, g: GradedPoly, odd_only: bool) -> GradedPoly:
        """f * g, or with ``odd_only`` twice its terms of odd contraction order."""
        if not isinstance(f, GradedPoly) or not isinstance(g, GradedPoly):
            bad = type(g if isinstance(f, GradedPoly) else f).__name__
            entry = "supercommutator" if odd_only else "star"
            raise TypeError(f"{entry} operand must be a GradedPoly, got {bad}")
        if odd_only and "mixed" in (f.parity(), g.parity()):
            raise MixedParityInput("supercommutator needs homogeneous arguments")
        t = self._table
        if not (f.table is t or f.table == t) or not (g.table is t or g.table == t):
            raise ValueError("operands must live over the engine's variable table")
        if not odd_only and len(f._num) == len(g._num) == 1 and f._den * g._den == 1:
            [(mf, cf)], [(mg, cg)] = f._num.items(), g._num.items()
            if cf * cg == 1:  # the cached product itself: a GradedPoly is immutable
                got = self._cache.get((mf, mg))
                if got is not None:
                    self._hits += 1
                    return got
                try:  # a miss: the pair's product, with no sum around it
                    return self._star_mono(mf, mg)
                except TruncationExceeded:
                    raise TruncationExceeded(self._max_order, self._sufficient_order(f, g)) from None
        [num], scale = self._sum_products([(2 if odd_only else 1, f, g)], odd_only=odd_only)
        return GradedPoly._of_scaled(t, num, scale * f._den * g._den)

    def _sum_products(
        self, jobs: list, scale: int = 1, odd_only: bool = False, splits: list | None = None
    ) -> tuple[list, int]:
        """c0 * x * y for each job (c0, x, y), read pair by pair from the cache:
        (maps, S), each map the int numerators over S, with no zero entry
        (but see the batched rows below).

        S starts at ``scale`` and grows to the lcm of the pair denominators,
        rescaling the maps summed so far; the operands' own denominators are
        left to the caller.  ``odd_only`` keeps the terms of odd contraction
        order.  A miss goes to ``_star_mono``; ``TruncationExceeded`` carries
        the sufficient order of the job being summed.

        ``splits``, if given, holds for each job (xs, ys, shifts): the terms
        of x and of y with their passive factors taken out, and each pair's
        shift, in the order the pairs are read (see "Passive factors" above).
        The job then reads the pairs of xs and ys and moves every key of a
        pair's product by the pair's shift.  A moved key past the exponent
        range sends the unmoved pair, rebuilt from x and y, to
        ``_star_mono``, whose ``ExponentOverflow`` is the one ``star`` raises.

        That recovery, like the sufficient order, needs a job's pairs to be
        those of x * y, so it runs only in a job of one product.  A job of a
        batched row of the basis sweep sums the pairs of many products and
        gives None for x and y: it picks no pair, its ``ExponentOverflow`` or
        ``TruncationExceeded`` is raised bare, for the sweep to replay the
        row as one job per product, and its map keeps the zero entries that
        the sweep's comparison passes over.
        """
        get, star_mono = self._cache.get, self._star_mono
        t = self._table
        hs, guard = t._hbar_shift, t._guard
        maps = []
        hits = 0
        try:
            for i, (c0, x, y) in enumerate(jobs):
                acc = {}
                maps.append(acc)
                if splits is None:
                    xs, ys, shifts = x._num.items(), y._num.items(), None
                else:
                    xs, ys, shifts = splits[i]
                k = 0  # the pairs of a split job read so far
                for mx, cx in xs:
                    for my, cy in ys:
                        got = get((mx, my))
                        if got is None:
                            got = star_mono(mx, my)
                        else:
                            hits += 1
                        d = got._den
                        if scale % d:
                            grow = d // gcd(scale, d)
                            scale *= grow
                            for part in maps:
                                for m in part:
                                    part[m] *= grow
                        c = c0 * cx * cy * (scale // d)
                        terms = got._num.items()
                        if odd_only:
                            h = (mx >> hs) + (my >> hs)
                            terms = [(m, q) for m, q in terms if (m >> hs) - h & 1]
                        if shifts:
                            shift = shifts[k]
                            k += 1
                            if shift:
                                for m, q in terms:
                                    p = m + shift
                                    if p & guard:
                                        if x is not None:
                                            star_mono(*list(product(x._num, y._num))[k - 1])
                                        raise t._overflow(m, shift + self._unit)
                                    acc[p] = acc.get(p, 0) + c * q
                                continue
                        for m, q in terms:
                            acc[m] = acc.get(m, 0) + c * q
                if x is not None and 0 in acc.values():
                    maps[-1] = {m: q for m, q in acc.items() if q}
        except TruncationExceeded:
            if x is None:
                raise
            raise TruncationExceeded(self._max_order, self._sufficient_order(x, y)) from None
        finally:
            self._hits += hits
        return maps, scale

    def _mark(self) -> tuple:
        """The engine's state, for ``_roll_back``: the memos' sizes, the
        counters and a copy of the peaks."""
        return (len(self._cache), len(self._runs), len(self._monos), len(self._row_bits),
                len(self._shapes), self._hits, self._misses, self._peaks[:])

    def _roll_back(self, mark: tuple) -> None:
        """Restore the state ``_mark`` returned.  The memos only ever gain
        keys, so dropping the keys added since, the last ones, restores them."""
        *sizes, self._hits, self._misses, peaks = mark
        self._peaks[:] = peaks
        memos = self._cache, self._runs, self._monos, self._row_bits, self._shapes
        for memo, n in zip(memos, sizes):
            while len(memo) > n:
                memo.popitem()

    def _sufficient_order(self, f: GradedPoly, g: GradedPoly) -> int | None:
        """min over operands of the largest row degree, or None if unbounded.

        Each contraction step removes one row factor from each slot, so no
        series runs longer than either operand's row degree.  A negative
        exponent on a row variable never runs out, so it bounds nothing.
        A bound above ``MAX_ORDER`` is no order an engine accepts: None.
        """
        keys = [row[0] for row in self._bivector._rows]
        bounds = []
        for p in (f, g):
            degrees = []
            for m in p._num:
                # a row's exponent, read off its packed field or odd bit as _mono_d does
                exps = [(m >> k & _FIELD) - EXPONENT_LIMIT if k >= 0 else m >> ~k & 1 for k in keys]
                if min(exps, default=0) < 0:
                    break
                degrees.append(sum(exps))
            else:
                bounds.append(max(degrees, default=0))
        order = min(bounds, default=None)
        return order if order is not None and order <= MAX_ORDER else None

    def _star_mono(self, mf: int, mg: int) -> GradedPoly:
        """mf * mg, reduced, for a pair not yet in the cache; the result is cached.

        Splits mf (x) mg as sign * (F_1 (x) G_1) ... (F_k (x) G_k) (F_0 (x) G_0),
        each F_b, G_b the factors of live block b and F_0, G_0 the rest, reads
        each block's run from the run cache, and multiplies the runs by
        sign * F_0 G_0 (see "Blocks" above).  ``peak_states`` take the joint
        series' counts up to ``max_order``.
        """
        self._misses += 1
        t = self._table
        mirror = self._cache.get((mg, mf))
        if mirror is not None:
            # mg * mf = s (mf * mg)|_{hbar -> -hbar}: flip each term of odd order n,
            # which leaves the mirror canonical
            hs, odd = t._hbar_shift, t._odd
            s = -1 if (mf & odd).bit_count() & (mg & odd).bit_count() & 1 else 1
            h = (mf >> hs) + (mg >> hs)
            total = {m: -s * q if (m >> hs) - h & 1 else s * q for m, q in mirror._num.items()}
            # a flip that changes no coefficient leaves the mirror's own polynomial
            got = mirror if total == mirror._num else GradedPoly._of_canonical(t, total, mirror._den)
            self._cache[(mf, mg)] = got
            return got
        live, s = self._classify(mf, mg)
        if not live:  # no step fires: the product is the one term mf mg
            fg = _mono_mul(mf, mg, t)
            got = self._monos.get(fg)
            if got is None:  # the engine's first pair with this product
                got = t.zero() if fg is None else GradedPoly._of_canonical(t, {fg[1]: fg[0]}, 1)
                self._monos[fg] = got
            if not self._peaks:
                self._peaks.append(1)  # its one state, at order 0
            self._cache[(mf, mg)] = got
            return got
        unit, runs = self._unit, self._runs
        counts = None
        for rows, mask, fill, _ in live:
            F, G = mf & mask | fill, mg & mask | fill
            run = runs.get((F, G))
            if run is None:
                total, c, f = self._contract(F, G, rows)
                run = runs[F, G] = (GradedPoly._of_scaled(t, total, self._scale), c, f)
            series, c, f = run
            if counts is None:
                num, den, counts, fired, used = series._num, series._den, c, f, mask
                continue
            # the joint live states per order: the counts convolved; a block
            # fires from each order up to its ``fired`` beside any live orders
            # of the others, whose depths add
            joint = [0] * (len(counts) + len(c) - 1)
            for i, a in enumerate(counts):
                for j, b in enumerate(c):
                    joint[i + j] += a * b
            fired = max(fired + len(c) - 1, f + len(counts) - 1)
            counts = joint
            num = _mul_terms(num, series._num, t)
            den *= series._den
            used |= mask  # the blocks' fields and odd bits are disjoint
        fill = unit & used
        fg = _mono_mul(mf & ~used | fill, mg & ~used | fill, t)
        if fg is None:  # F_0 and G_0 share an odd factor
            got = self._monos.setdefault(None, t.zero())
        else:
            sign, FG = fg
            if num is not series._num:  # a product of runs: one gcd pass
                got = GradedPoly._of_scaled(t, _times_monomial(num, s * sign, FG, t), den)
            elif FG == unit:
                got = series  # one live block and no rest: the pair's product is its run
            else:  # one run times a signed monomial is canonical as it is
                got = GradedPoly._of_canonical(t, _times_monomial(num, s * sign, FG, t), den)
        peaks = self._peaks
        for n, c in enumerate(counts[:self._max_order + 1]):
            if n == len(peaks):
                peaks.append(c)
            elif c > peaks[n]:
                peaks[n] = c
        if fired >= self._max_order:
            raise TruncationExceeded(self._max_order)
        self._cache[(mf, mg)] = got
        return got

    def _classify(self, mf: int, mg: int) -> tuple[tuple, int]:
        """(live, s) of a pair: its live blocks, in block order, and the sign s
        of regrouping it into their parts and the rest (see "Blocks" above).

        Both depend only on the pair's shape, (rows dividing mf, rows
        dividing mg, odd factors of mf, odd factors of mg), so the engine
        keeps them per shape, and each operand's rows as bits per monomial.
        """
        t, row_bits = self._table, self._row_bits
        rf, rg = row_bits.get(mf), row_bits.get(mg)
        if rf is None:
            rf = row_bits[mf] = t._factor_bits(mf) & self._bivector._row_mask
        if rg is None:
            rg = row_bits[mg] = t._factor_bits(mg) & self._bivector._row_mask
        odd = t._odd
        shape = (rf, rg, mf & odd, mg & odd)
        got = self._shapes.get(shape)
        if got is None:
            live = []
            for block in self._blocks:
                for a, p in block[3]:
                    if rf & a and rg & p:
                        live.append(block)
                        break
            s = 1  # the sign when every odd factor lies in the first block's part
            if live and (mf | mg) & odd & ~live[0][1]:
                s = _regroup_sign(mf, mg, live, odd)
            got = self._shapes[shape] = tuple(live), s
        return got

    def _contract(self, mf: int, mg: int, rows: tuple) -> tuple[dict, list, int]:
        """The series of mf * mg over the steps in ``rows``: (total, counts, fired).

        ``total`` maps monomials to int numerators over D; ``counts[n]`` is
        the number of live states at order n, and ``fired`` the highest order
        from which a step fired, or -1.  A step fired from ``max_order``
        ends the run there.
        """
        # looked up per call, so a test may patch these module names
        mono_d, mono_mul, step_sign = _mono_d, _mono_mul, _step_sign
        t = self._table
        odd, hbar = t._odd, 1 << t._hbar_shift
        max_order, step = self._max_order, 2 * self._bivector._d_e
        weight = self._scale  # D / (n! (2 d_e)^n) at order n
        fg = mono_mul(mf, mg, t)
        total = {} if fg is None else {fg[1]: fg[0] * weight}
        # live states (centre, F, G): one per derived monomial pair (F, G),
        # with the centre (d_e^n times a polynomial in the entries) as int terms
        states = [({self._unit: 1}, mf, mg)]
        counts = []
        fired = -1
        order = 0
        while states:
            counts.append(len(states))
            order += 1
            merged: dict[tuple[int, int], dict] = {}
            for centre, F, G in states:
                pf = (F & odd).bit_count() & 1
                for ka, ma, wa, pa, partners in rows:
                    # support test: A must divide F before any derivative
                    if F & ma == wa:
                        continue
                    cF, dF = mono_d(F, ka, odd)
                    for kb, mb, wb, e, pb in partners:
                        if G & mb == wb:
                            continue
                        cG, dG = mono_d(G, kb, odd)
                        if order == 1:
                            ce = e  # the centre is the unit
                        else:
                            ce = _mul_terms(centre, e, t)
                            if not ce:
                                continue
                        c = step_sign(pb, pf, pa) * cF * cG
                        acc = merged.get((dF, dG))
                        if acc is None:
                            merged[dF, dG] = {m: c * q for m, q in ce.items()}
                            continue
                        for m, q in ce.items():
                            acc[m] = acc.get(m, 0) + c * q
            if not merged:
                break  # the series has ended
            fired = order - 1
            if order > max_order:
                break
            weight //= order * step
            states = []
            for (nF, nG), centre in merged.items():
                if 0 in centre.values():
                    centre = {m: q for m, q in centre.items() if q}
                    if not centre:
                        continue
                states.append((centre, nF, nG))
                fg = mono_mul(nF, nG, t)
                if fg is None:
                    continue
                sign, FG = fg
                FG += order * hbar
                sign *= weight
                for m, q in centre.items():
                    got = mono_mul(m, FG, t)
                    if got is not None:
                        p = got[1]
                        total[p] = total.get(p, 0) + got[0] * sign * q
        if 0 in total.values():
            total = {m: q for m, q in total.items() if q}
        return total, counts, fired


def _regroup_sign(mf: int, mg: int, blocks: list, odd: int) -> int:
    """s_f s_g (-1)^(sum_{b < c} |G_b| |F_c|) of "Blocks" above: the sign of
    regrouping mf (x) mg into the parts of ``blocks``, in their order, and
    the rest, last."""
    sign = 1
    seen_f = seen_g = pg = 0  # odd factors of the parts so far, parity of the G's
    used = sum(block[1] for block in blocks)
    for mask in (*(block[1] for block in blocks), ~used):
        F, G = mf & mask & odd, mg & mask & odd
        if F:
            sign *= _merge_sign(seen_f, F) * (-1 if pg & F.bit_count() else 1)
            seen_f |= F
        if G:
            sign *= _merge_sign(seen_g, G)
            seen_g |= G
            pg ^= G.bit_count() & 1
    return sign


def _times_monomial(num: dict, sign: int, FG: int, t) -> dict:
    """The terms of sign * num * FG, for a monomial FG with no odd factor of num.

    Where FG has an even exponent, every key is tested against the guard
    bits: the entries live in the passive fields that FG writes too.
    """
    shift, odd = FG - t._zero, t._odd
    fo = FG & odd
    out = {m + shift: (sign * _merge_sign(m & odd, fo) if fo and m & odd else sign) * c
           for m, c in num.items()}
    if (FG ^ t._zero) & t._evens:
        guard = t._guard
        for p in out:
            if p & guard:
                raise t._overflow(p - shift, FG)
    return out


@dataclass(frozen=True)
class CheckRecord:
    """One named check: its status, the two sides compared, and a detail."""

    check_id: str
    category: str
    status: str
    lhs: GradedPoly | None = None
    rhs: GradedPoly | None = None
    detail: str = ""

    def __post_init__(self):
        for name in ("check_id", "category", "status", "detail"):
            _check_type(name, getattr(self, name), str)
        if self.status not in ("pass", "fail", "skip"):
            raise ValueError(f"status must be pass, fail or skip, got {self.status!r}")
        for name in ("lhs", "rhs"):
            side = getattr(self, name)
            if side is not None and not isinstance(side, GradedPoly):
                raise TypeError(f"{name} must be a GradedPoly or None, got {type(side).__name__}")


def _record(check_id, category, ok, lhs=None, rhs=None, detail="") -> CheckRecord:
    """The record of a check that passes if ``ok`` and fails otherwise."""
    return CheckRecord(check_id, category, "pass" if ok else "fail", lhs, rhs, detail)


def _row_basis(engine: StarEngine):
    """All monomials of degree <= 2 in the first two even and two odd rows."""
    t = engine.table
    rows = engine.bivector.rows()
    evens = [n for n in rows if t.parity(n) == EVEN][:2]
    odds = [n for n in rows if t.parity(n) == ODD][:2]
    basis = []
    for deg in range(3):
        for odd_count in range(min(deg, len(odds)) + 1):
            even_deg = deg - odd_count
            for odd_pick in combinations(odds, odd_count):
                for even_split in product(range(even_deg + 1), repeat=len(evens)):
                    if sum(even_split) != even_deg:
                        continue
                    p = t.one()
                    for name, e in zip(evens, even_split):
                        p = p * t.var(name, e)
                    for name in odd_pick:
                        p = p * t.var(name)
                    basis.append(p)
    return basis


def _sample_poly(rng: Random, engine: StarEngine) -> GradedPoly:
    """1-2 terms, each a coefficient 1, -1, 2 or 1/2 times 0-2 rows, summed
    over the denominator 2 and reduced once."""
    t = engine.table
    rows = engine.bivector.rows()
    names = list(rows) if rows else list(t.names())
    num: dict[int, int] = {}
    for _ in range(rng.randint(1, 2)):
        c, m = rng.choice((2, -2, 4, 1)), t._zero  # the coefficient times 2
        for _ in range(rng.randint(0, 2)):
            got = _mono_mul(m, t._var_key(rng.choice(names)), t)
            if got is None:
                c = 0  # an odd row drawn twice: the term is zero, the draws go on
            else:
                c, m = c * got[0], got[1]
        num[m] = num.get(m, 0) + c
    return GradedPoly._of_scaled(t, {m: c for m, c in num.items() if c}, 2)


def _split_passive(p: GradedPoly, passive: int, fill: int) -> tuple[list, list]:
    """p's terms (m0, c) with their passive factors taken out, and each
    term's shift m - m0: m0 is m with the bits of ``passive`` set as the
    unit's, ``fill``, so with no hbar and each passive field at the bias."""
    terms, shifts = [], []
    for m, c in p._num.items():
        shift = (m & passive) - fill
        terms.append((m - shift, c))
        shifts.append(shift)
    return terms, shifts


def _basis_sweep(engine: StarEngine, basis: list, products: list) -> str:
    """Every basis triple's (f * g) * h against f * (g * h): the detail of the
    first that differs, or "".

    ``products[i][j]`` is basis[i] * basis[j].  Both sides of a triple are
    read by ``StarEngine._sum_products``, the reader ``star`` uses, one read
    per pair of 2 ``star`` calls per triple, but each product operand's
    terms are read with their passive factors taken out, split once per
    product (see "Passive factors" above): the sweep's hits and misses add
    up to those calls', and fewer of them miss.  Every side is an int
    numerator map over one shared denominator S, kept from row to row and
    never reduced; each side takes the other side's operand denominator,
    so the two maps of a triple are equal exactly when its two products are.

    One reader call per row (f, g) sums it in two jobs: (f g) * h for every
    h, and f * (g h) for every h.  The sides of h = basis[j] stay apart by a
    tag j << T added to each of their pairs' shifts, where T lies above
    every hbar power a side can reach: a product operand's is at most
    MAX_ORDER, the order of the engine that built it, and the pair read adds
    at most the sweep engine's max_order, so at most 2 MAX_ORDER.  The row's
    two tagged maps, which keep their zero entries, are compared once; when
    they differ other than by a zero entry, the first h whose untagged sides
    differ names the triple.

    A row reads its pairs in another order than 2 ``star`` calls per triple
    would, so a row that raises ``TruncationExceeded`` or
    ``ExponentOverflow`` rolls the engine back to its state at the row's
    start and replays the row as one job per side of each triple, in those
    calls' order: the error and the engine stats are then theirs.  Relies on
    every basis element being a single monomial with coefficient 1 and no
    passive factor, as ``_row_basis`` builds them.
    """
    passive = engine.bivector._passive
    fill = engine._unit & passive
    split = [[_split_passive(p, passive, fill) for p in row] for row in products]
    T = engine.table._hbar_shift + (2 * MAX_ORDER).bit_length()
    tags = [j << T for j in range(len(basis))]
    # per g, the right operands of a row's two jobs: each h over g h's
    # denominator, and the terms of every g h with their tagged shifts
    rights = []
    for g_row, g_split in zip(products, split):
        hs = [(m, gh._den) for h, gh in zip(basis, g_row) for m in h._num]
        gh_terms = [term for terms, _ in g_split for term in terms]
        gh_shifts = [s + tag for (_, shifts), tag in zip(g_split, tags) for s in shifts]
        rights.append((hs, gh_terms, gh_shifts))
    scale = 1  # S
    first = ""
    for f, f_row, f_split in zip(basis, products, split):
        f_terms = f._num.items()
        for g, fg, (fg_terms, fg_shifts), (hs, gh_terms, gh_shifts), g_row, g_split in zip(
            basis, f_row, f_split, rights, products, split
        ):
            j = None  # the index of the row's first h whose sides differ
            mark = engine._mark()
            try:
                (lhs, rhs), scale = engine._sum_products(
                    [(1, None, None), (fg._den, None, None)], scale,
                    splits=[(fg_terms, hs, [s + tag for s in fg_shifts for tag in tags]),
                            (f_terms, gh_terms, gh_shifts)],
                )
                if not first and lhs != rhs:
                    keys = lhs.keys() | rhs.keys()
                    j = min((m >> T for m in keys if lhs.get(m, 0) != rhs.get(m, 0)), default=None)
            except (TruncationExceeded, ExponentOverflow):
                engine._roll_back(mark)
                jobs, splits = [], []  # (f g) h and f (g h), each taking the other's denominator
                for h, gh, (terms, shifts) in zip(basis, g_row, g_split):
                    jobs += (gh._den, fg, h), (fg._den, f, gh)
                    splits += (fg_terms, h._num.items(), fg_shifts), (f_terms, terms, shifts)
                row, scale = engine._sum_products(jobs, scale, splits=splits)
                if not first and row[::2] != row[1::2]:
                    j = next(j for j, (a, b) in enumerate(zip(row[::2], row[1::2])) if a != b)
            if j is not None:
                first = (
                    "first failure on basis triple"
                    f" ({render_poly(f)}, {render_poly(g)}, {render_poly(basis[j])})"
                )
    return first


def _order1_sweep(pi: SuperBivector, pairs: list) -> str:
    """The detail of the first pair (f, df, g, dg, fg) whose product fg has
    an hbar^1 term other than half the bracket {f, g}, or "".

    df and dg are f's and g's ``_row_derivatives``, from which
    ``_bracket_num`` sums the bracket's numerators over d_e f._den g._den.
    The two sides are compared cross-multiplied, as numerator maps over
    2 d_e f._den g._den fg._den, so no polynomial is built.
    """
    h = pi.table._hbar_shift
    low = (1 << h) - 1
    for f, df, g, dg, fg in pairs:
        scale = 2 * pi._d_e * f._den * g._den
        lhs = {m & low: scale * c for m, c in fg._num.items() if m >> h == 1}
        if lhs != {m: fg._den * c for m, c in _bracket_num(pi, df, dg).items()}:
            return f"pair ({render_poly(f)}, {render_poly(g)})"
    return ""


def check_quantization_contract(
    engine: StarEngine, associativity: bool = True
) -> tuple[CheckRecord, ...]:
    """Spot-check bilinearity, associativity, and the order-1 bracket match.

    Returns the ``CheckRecord``s ``contract bilinearity``, ``contract
    associativity`` and ``contract order1-bracket``, in that order.  Failures
    are reported, not raised.  The associativity sweep runs an exhaustive
    low-degree basis plus randomized polynomial triples; with
    ``associativity=False`` it is not run and its record is a ``skip``.
    Each basis triple compares the int numerators of its two sides, which
    ``_basis_sweep`` sums with the reader ``star`` uses.  Each order-1 pair
    compares the int numerators of its product's hbar^1 term with those of
    the bracket (``_order1_sweep``), from ``poisson._row_derivatives`` taken
    once per basis element and once per sampled operand; every other check
    compares ``star`` products.  A series that outlives ``max_order`` raises
    ``TruncationExceeded``, as ``star`` does.
    """
    _check_type("engine", engine, StarEngine)
    _check_type("associativity", associativity, bool)
    t = engine.table
    rng = Random(0)  # fixed, so a model gets the same report on every run

    basis = _row_basis(engine)
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
    failure = "; ".join(sorted(set(fails)))
    records = [_record("contract bilinearity", "contract", not failure, detail=failure)]

    # each basis product once, for both checks below; basis[0] is 1, so this is
    # the order in which the sweep first needs them, and a truncation error
    # names the first basis pair whose series outlives max_order
    products = [[engine.star(g, h) for h in basis] for g in basis]
    if associativity:
        first = _basis_sweep(engine, basis, products)
        for _ in range(10):
            f, g, h = (_sample_poly(rng, engine) for _ in range(3))
            if engine.star(engine.star(f, g), h) != engine.star(f, engine.star(g, h)):
                first = first or "failure on a randomized triple"
        records.append(_record("contract associativity", "contract", not first, detail=first))
    else:
        records.append(CheckRecord(
            "contract associativity", "contract", "skip",
            detail="bracket pairs even with odd coordinates; the product is "
            "order-1 consistent but associativity fails at order 2, so the "
            "sweep is not run",
        ))

    pi = engine.bivector
    tables = [_row_derivatives(pi, f) for f in basis]
    pairs = [
        (f, df, g, dg, fg) for f, df, f_row in zip(basis, tables, products)
        for g, dg, fg in zip(basis, tables, f_row)
    ]
    for _ in range(10):
        f, g = _sample_poly(rng, engine), _sample_poly(rng, engine)
        pairs.append((f, _row_derivatives(pi, f), g, _row_derivatives(pi, g), engine.star(f, g)))
    first = _order1_sweep(pi, pairs)
    records.append(_record("contract order1-bracket", "contract", not first, detail=first))
    return tuple(records)
