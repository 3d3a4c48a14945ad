"""Star product engine: frozen low-order values and structural checks."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, gcd
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bidiff_oracle import bidiff_apply
from dict_oracle import as_dict, oracle_star as dict_oracle_star
from test_acceptance import _oracle_star

import supermoyal.moyal as moyal
from supermoyal import poisson
from supermoyal.cli import load_model, parse_expression
from supermoyal.graded_calculus import _derivative_key, d_left
from supermoyal.graded_ring import (
    EVEN, EXPONENT_LIMIT, ODD, ExponentOverflow, GradedPoly, Monomial, VarTable, render_poly,
)
from supermoyal.models import builtin, list_builtins
from supermoyal.moyal import (
    MAX_ORDER,
    CheckRecord,
    EngineStats,
    MixedParityInput,
    NonCentralBivector,
    StarEngine,
    TruncationExceeded,
    check_quantization_contract,
)
from supermoyal.poisson import SuperBivector, poisson_bracket


def moyal_mini():
    t = VarTable.build(("x", EVEN), ("y", EVEN))
    pi = SuperBivector(t, {("x", "y"): t.one()})
    return t, pi


def pair_odd():
    t = VarTable.build(("C", EVEN), ("th1", ODD), ("th2", ODD))
    pi = SuperBivector(t, {("th1", "th2"): t.var("C")})
    return t, pi


def grass2():
    t = VarTable.build(("K1", EVEN), ("K2", EVEN), ("xi1", ODD), ("xi2", ODD))
    pi = SuperBivector(
        t,
        {("xi1", "xi1"): t.var("K1"), ("xi2", "xi2"): t.var("K2")},
    )
    return t, pi


def t1_mini():
    t = VarTable.build(("x", EVEN), ("w", EVEN), ("th", ODD))
    pi = SuperBivector(t, {("x", "th"): t.var("w")})
    return t, pi


def p34():
    t = VarTable.build(
        ("z1", EVEN), ("z2", EVEN), ("l1", EVEN), ("l2", EVEN),
        ("xi1", ODD), ("xi2", ODD), ("xi3", ODD), ("xi4", ODD),
    )
    ll = t.var("l1") * t.var("l2")
    sq = t.var("l1") ** 2 + t.var("l2") ** 2
    entries = {("z1", "z2"): ll.scale(2)}
    for i in range(1, 5):
        entries[(f"xi{i}", f"xi{i}")] = sq
    return t, SuperBivector(t, entries)


class TestLowOrderValues:
    def test_order_zero_is_the_plain_product(self):
        t, pi = p34()
        eng = StarEngine(pi)
        f = t.var("z1") * t.var("xi1") + t.var("l2") ** 2
        g = t.var("z2") + t.var("xi2") * t.var("xi3")
        assert eng.star(f, g).hbar_coefficient(0) == f * g

    def test_odd_pair_star(self):
        t, pi = pair_odd()
        eng = StarEngine(pi)
        th1, th2, C = t.var("th1"), t.var("th2"), t.var("C")
        assert eng.star(th1, th2) == th1 * th2 + (t.hbar() * C).scale(Fraction(1, 2))
        assert eng.star(th2, th1) == th2 * th1 + (t.hbar() * C).scale(Fraction(1, 2))
        assert eng.supercommutator(th1, th2) == t.hbar() * C
        assert eng.supercommutator(th2, th1) == t.hbar() * C

    def test_odd_diagonal_star(self):
        t, pi = grass2()
        eng = StarEngine(pi)
        xi1, xi2, K2 = t.var("xi1"), t.var("xi2"), t.var("K2")
        assert eng.star(xi2, xi2) == (t.hbar() * K2).scale(Fraction(1, 2))
        assert eng.supercommutator(xi2, xi2) == t.hbar() * K2

    def test_degree_two_by_one(self):
        t, pi = grass2()
        eng = StarEngine(pi)
        xi1, xi2, K2 = t.var("xi1"), t.var("xi2"), t.var("K2")
        half = Fraction(1, 2)
        assert eng.star(xi1 * xi2, xi2) == (t.hbar() * K2 * xi1).scale(half)
        assert eng.star(xi2, xi1 * xi2) == (t.hbar() * K2 * xi1).scale(-half)

    def test_degree_two_by_two(self):
        t, pi = grass2()
        eng = StarEngine(pi)
        f = t.var("xi1") * t.var("xi2")
        expected = (t.hbar(2) * t.var("K1") * t.var("K2")).scale(Fraction(-1, 4))
        assert eng.star(f, f) == expected

    def test_even_moyal_square(self):
        t, pi = moyal_mini()
        eng = StarEngine(pi)
        x2 = t.var("x") ** 2
        y2 = t.var("y") ** 2
        got = eng.star(x2, y2)
        expected = (
            x2 * y2
            + (t.hbar() * t.var("x") * t.var("y")).scale(2)
            + t.hbar(2).scale(Fraction(1, 2))
        )
        assert got == expected
        assert eng.supercommutator(x2, y2) == (t.hbar() * t.var("x") * t.var("y")).scale(4)


class TestCommutatorTables:
    def test_even_even_pair(self):
        t, pi = p34()
        eng = StarEngine(pi)
        got = eng.supercommutator(t.var("z1"), t.var("z2"))
        assert got == (t.hbar() * t.var("l1") * t.var("l2")).scale(2)

    def test_even_odd_pair(self):
        t, pi = t1_mini()
        eng = StarEngine(pi)
        x, th, w = t.var("x"), t.var("th"), t.var("w")
        half = Fraction(1, 2)
        assert eng.star(x, th) == x * th + (t.hbar() * w).scale(half)
        assert eng.star(th, x) == x * th - (t.hbar() * w).scale(half)
        assert eng.supercommutator(x, th) == t.hbar() * w
        assert eng.supercommutator(th, x) == -(t.hbar() * w)

    def test_commutator_equals_entry_in_every_block(self):
        t, pi = p34()
        eng = StarEngine(pi)
        for (a, b), entry in pi.entries.items():
            got = eng.supercommutator(t.var(a), t.var(b))
            assert got == t.hbar() * entry

    def test_zero_commutators(self):
        t, pi = p34()
        eng = StarEngine(pi)
        for a, b in [("z1", "l1"), ("l1", "l2"), ("z1", "xi1"), ("xi1", "xi2")]:
            assert eng.supercommutator(t.var(a), t.var(b)).is_zero()


class TestObstruction:
    def test_mixed_even_odd_entries_break_associativity(self):
        t, pi = t1_mini()
        eng = StarEngine(pi)
        x, th, w = t.var("x"), t.var("th"), t.var("w")
        left = eng.star(eng.star(th, x), th)
        right = eng.star(th, eng.star(x, th))
        assert left == -(t.hbar() * w * th)
        assert right.is_zero()
        assert left - right == -(t.hbar() * w * th)


class TestAssociativitySpots:
    def test_grassmann_regression_triple(self):
        t, pi = grass2()
        eng = StarEngine(pi)
        xi1, xi2 = t.var("xi1"), t.var("xi2")
        assert eng.star(eng.star(xi1, xi2), xi2) == eng.star(xi1, eng.star(xi2, xi2))

    def test_p34_sample_triples(self):
        t, pi = p34()
        eng = StarEngine(pi)
        samples = [
            (t.var("z1"), t.var("z2"), t.var("z1")),
            (t.var("xi1"), t.var("xi1"), t.var("xi1")),
            (t.var("z1") * t.var("xi1"), t.var("xi1"), t.var("z2")),
            (t.var("xi1") * t.var("xi2"), t.var("xi2") * t.var("xi3"), t.var("xi3")),
            (t.var("z1") ** 2, t.var("z2"), t.var("xi4")),
        ]
        for f, g, h in samples:
            assert eng.star(eng.star(f, g), h) == eng.star(f, eng.star(g, h))


class TestStructure:
    def test_single_step_matches_bidifferential_kernel(self):
        t, pi = p34()
        eng = StarEngine(pi)
        samples = [
            (t.var("z1") * t.var("z2"), t.var("z2")),
            (t.var("xi1") * t.var("xi2"), t.var("xi2")),
            (t.var("z1"), t.var("xi1")),
            (t.var("xi3"), t.var("z2") * t.var("xi3")),
        ]
        for f, g in samples:
            expected = t.zero()
            for (a, b), entry in pi.entries.items():
                s1, s2, sign = bidiff_apply(entry, a, b, f, g)
                expected = expected + (entry * s1 * s2).scale(sign)
            got = eng.star(f, g).hbar_coefficient(1)
            assert got == expected.scale(Fraction(1, 2))

    def test_hbar_linearity(self):
        t, pi = p34()
        eng = StarEngine(pi)
        f = t.var("z1") * t.var("xi1")
        g = t.var("z2")
        assert eng.star(t.hbar() * f, g) == t.hbar() * eng.star(f, g)
        assert eng.star(f, t.hbar() * g) == t.hbar() * eng.star(f, g)

    def test_additivity(self):
        t, pi = p34()
        eng = StarEngine(pi)
        f = t.var("z1")
        g = t.var("xi1") * t.var("xi2")
        h = t.var("z2") ** 2
        assert eng.star(f + g, h) == eng.star(f, h) + eng.star(g, h)
        assert eng.star(h, f + g) == eng.star(h, f) + eng.star(h, g)

    def test_first_order_matches_half_bracket(self):
        t, pi = p34()
        eng = StarEngine(pi)
        f = t.var("z1") * t.var("z2") + t.var("xi1") * t.var("xi2")
        g = t.var("z2") + t.var("xi2")
        lhs = eng.star(f, g).hbar_coefficient(1)
        assert lhs == poisson_bracket(pi, f, g).scale(Fraction(1, 2))


class TestErrors:
    def test_truncation_is_detected(self):
        t, pi = moyal_mini()
        eng = StarEngine(pi, max_order=1)
        with pytest.raises(TruncationExceeded):
            eng.star(t.var("x") ** 2, t.var("y") ** 2)
        t, pi = p34()
        with pytest.raises(TruncationExceeded):
            StarEngine(pi, max_order=8).star(t.var("z1", 9), t.var("z2", 9))

    def test_negative_max_order_rejected(self):
        _, pi = moyal_mini()
        with pytest.raises(ValueError):
            StarEngine(pi, max_order=-1)

    def test_max_order_that_is_not_an_int_rejected(self):
        # True would otherwise build an order-1 engine
        _, pi = moyal_mini()
        with pytest.raises(TypeError, match="^max_order must be an int, got bool$"):
            StarEngine(pi, True)

    def test_bivector_that_is_not_a_superbivector_rejected(self):
        _, pi = moyal_mini()
        with pytest.raises(TypeError, match="^bivector must be a SuperBivector, got dict$"):
            StarEngine(dict(pi.entries))

    def test_max_order_above_the_limit_rejected(self):
        _, pi = moyal_mini()
        with pytest.raises(ValueError, match=f"at most {MAX_ORDER}"):
            StarEngine(pi, max_order=MAX_ORDER + 1)

    def test_sufficient_order_never_exceeds_the_limit(self):
        t, pi = p34()
        eng = StarEngine(pi, max_order=8)
        with pytest.raises(TruncationExceeded) as info:
            eng.star(t.var("z1", MAX_ORDER), t.var("z2", MAX_ORDER))
        assert info.value.sufficient_order == MAX_ORDER
        with pytest.raises(TruncationExceeded) as info:
            eng.star(t.var("z1", 300), t.var("z2", 300))
        assert info.value.sufficient_order is None
        assert "suffices" not in str(info.value)
        # rows read off their packed fields and odd bits: a negative exponent
        # bounds nothing, and an odd row counts once
        t = VarTable.build(("x", EVEN, True), ("y", EVEN, True), ("k", EVEN), ("th", ODD), ("ph", ODD))
        pi = SuperBivector(t, {("x", "y"): t.var("k"), ("th", "ph"): t.const(2)})
        eng = StarEngine(pi, max_order=1)
        x, y, th, ph = (t.var(n) for n in ("x", "y", "th", "ph"))
        for f, g, sufficient in [
            (t.var("x", -1), y**3, 3),
            (t.var("x", -1), t.var("y", -2), None),
            (x**2 * th, y**2 * ph, 3),
        ]:
            with pytest.raises(TruncationExceeded) as info:
                eng.star(f, g)
            assert info.value.sufficient_order == sufficient

    def test_noncentral_bivector_rejected(self):
        t = VarTable.build(("z1", EVEN), ("z2", EVEN))
        pi = SuperBivector(t, {("z1", "z2"): t.var("z1")})
        with pytest.raises(NonCentralBivector):
            StarEngine(pi)

    def test_odd_entry_rejected(self):
        t = VarTable.build(("x", EVEN), ("y", EVEN), ("th", ODD))
        pi = SuperBivector(t, {("x", "y"): t.var("th")})
        with pytest.raises(NonCentralBivector):
            StarEngine(pi)

    def test_hbar_entry_rejected(self):
        # the mirror path reads a term's contraction order off its hbar power
        t = VarTable.build(("x", EVEN), ("y", EVEN))
        for entry in (t.hbar(), t.one() + t.hbar(2)):
            pi = SuperBivector(t, {("x", "y"): entry})
            with pytest.raises(NonCentralBivector, match=r"entry \(x, y\) contains hbar"):
                StarEngine(pi)

    def test_mixed_parity_commutator_rejected(self):
        t, pi = t1_mini()
        eng = StarEngine(pi)
        with pytest.raises(MixedParityInput):
            eng.supercommutator(t.var("x") + t.var("th"), t.var("x"))

    def test_foreign_table_rejected(self):
        t, pi = p34()
        other = VarTable.build(("x", EVEN))
        eng = StarEngine(pi)
        with pytest.raises(ValueError):
            eng.star(other.var("x"), t.var("z1"))

    @pytest.mark.parametrize("entry, bad, first", [
        ("star", 1, False), ("star", 1, True),
        ("supercommutator", 1, False), ("supercommutator", None, True),
    ])
    def test_operand_that_is_not_a_polynomial_rejected(self, entry, bad, first):
        t, pi = p34()
        args = (bad, t.var("z1")) if first else (t.var("z1"), bad)
        message = f"^{entry} operand must be a GradedPoly, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=message):
            getattr(StarEngine(pi), entry)(*args)

    @pytest.mark.parametrize("attr", ["max_order", "bivector", "table"])
    def test_engine_settings_cannot_be_rebound(self, attr):
        # the scale, the weights and both caches are built for the engine's
        # order, bivector and table; an order-2 engine rebound to 8 once
        # dropped the 3/4*hbar^3*D11_12^3 term of x11^3 * x12^3
        m = builtin("T0-cotangent")
        t, other = m.table, builtin("P3|4")
        eng = StarEngine(m.bivector, 2)
        for value in (8, other.bivector, other.table):
            with pytest.raises(AttributeError):
                setattr(eng, attr, value)
        with pytest.raises(AttributeError):
            delattr(eng, attr)
        fresh = StarEngine(m.bivector, 2)
        f, g = t.var("x11", 2), t.var("x12", 2)
        assert eng.star(f, g) == fresh.star(f, g)
        assert (eng.max_order, eng.bivector, eng.table) == (2, m.bivector, t)
        with pytest.raises(TruncationExceeded):
            eng.star(t.var("x11", 3), t.var("x12", 3))


_CONTRACT_IDS = ["contract bilinearity", "contract associativity", "contract order1-bracket"]


class TestContract:
    def test_full_contract_on_associative_model(self):
        _, pi = p34()
        records = check_quantization_contract(StarEngine(pi))
        assert [r.check_id for r in records] == _CONTRACT_IDS
        assert {r.category for r in records} == {"contract"}
        assert all(r.status == "pass" for r in records), records

    def test_contract_without_associativity(self):
        _, pi = t1_mini()
        records = check_quantization_contract(StarEngine(pi), associativity=False)
        assert [r.check_id for r in records] == _CONTRACT_IDS
        assert [r.status for r in records] == ["pass", "skip", "pass"], records
        assert records[1].detail.startswith("bracket pairs even with odd coordinates; ")

    def test_associativity_failure_names_the_first_basis_triple(self):
        records = check_quantization_contract(StarEngine(builtin("T1-cotangent").bivector))
        assert [r.check_id for r in records] == _CONTRACT_IDS
        assert [r.status for r in records] == ["pass", "fail", "pass"], records
        assert records[1].detail == "first failure on basis triple (x12, x11, t11*t12)"

    def test_order1_failure_names_the_first_pair(self, monkeypatch):
        # the contraction step's sign flipped, as in criterion 11's mutation
        monkeypatch.setattr(moyal, "_step_sign", lambda *a, _o=moyal._step_sign: -_o(*a))
        _, pi = p34()
        order1 = check_quantization_contract(StarEngine(pi))[2]
        assert (order1.check_id, order1.status) == ("contract order1-bracket", "fail")
        assert order1.detail.startswith("pair (")

    def test_order1_failure_writes_the_pair_as_star_input(self, monkeypatch):
        # a bracket that is always zero; the pair is in the syntax star reads
        monkeypatch.setattr(moyal, "_bracket_num", lambda pi, df, dg: {})
        order1 = check_quantization_contract(StarEngine(builtin("T0-cotangent").bivector))[2]
        assert order1 == CheckRecord(
            "contract order1-bracket", "contract", "fail", detail="pair (x12, x11)"
        )

    def test_bilinearity_failure_lists_each_broken_law_once_sorted(self, monkeypatch):
        # a product that adds 1 breaks all four laws in each of the three rounds
        t, pi = p34()
        star = StarEngine.star
        monkeypatch.setattr(StarEngine, "star", lambda self, f, g: star(self, f, g) + t.one())
        assert check_quantization_contract(StarEngine(pi))[0] == CheckRecord(
            "contract bilinearity", "contract", "fail",
            detail="hbar linearity; left additivity; right additivity; scalar linearity",
        )


def _star_sweep(engine, basis, products):
    """The basis sweep as two ``star`` calls per triple: the oracle of
    ``moyal._basis_sweep``, which sums the same pairs without ``star``."""
    first = ""
    for f, f_row in zip(basis, products):
        for g, fg, g_row in zip(basis, f_row, products):
            for h, gh in zip(basis, g_row):
                if engine.star(fg, h) != engine.star(f, gh) and not first:
                    first = (
                        "first failure on basis triple"
                        f" ({render_poly(f)}, {render_poly(g)}, {render_poly(h)})"
                    )
    return first


def _stripped_star_sweep(engine, basis, products):
    """The basis sweep as ``star`` calls on the stripped monomials: each
    term c m of a product operand is read as c P (m0 * h) or c P (f * m0),
    with P its passive monomial, the hbar power and the even variables that
    are no row, multiplied back with the ring product, and m = P m0.  The
    oracle of the stats of ``moyal._basis_sweep``, which reads those pairs."""
    t = engine.table
    rows = engine.bivector.rows()
    passive = [t.even_slot(n) for n in t.even_names() if n not in rows]

    def split(p):
        out = []
        for mono, c in p.terms.items():
            even, outer = list(mono.even), [0] * t.n_even
            for i in passive:
                even[i], outer[i] = 0, even[i]
            m0 = GradedPoly(t, {Monomial(tuple(even), mono.odd, 0): 1})
            out.append((c, m0, GradedPoly(t, {Monomial(tuple(outer), 0, mono.hbar): 1})))
        return out

    first = ""
    for f, f_row in zip(basis, products):
        for g, fg, g_row in zip(basis, f_row, products):
            for h, gh in zip(basis, g_row):
                lhs = sum(((P * engine.star(m0, h)).scale(c) for c, m0, P in split(fg)), t.zero())
                rhs = sum(((P * engine.star(f, m0)).scale(c) for c, m0, P in split(gh)), t.zero())
                if lhs != rhs and not first:
                    first = (
                        "first failure on basis triple"
                        f" ({render_poly(f)}, {render_poly(g)}, {render_poly(h)})"
                    )
    return first


def _outcome(engine, run, *args):
    """What ``run(engine, *args)`` returns, or its truncation text, and the
    engine's stats after it."""
    try:
        got = run(engine, *args)
    except TruncationExceeded as err:
        got = str(err)
    return got, engine.stats


_SWEEP_COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(1, 5))


@st.composite
def sweep_cases(draw):
    """A bivector for the contract's basis sweep, and max_order.

    The rows are 2-4 even and odd variables, beside an even constant k and
    odd constants a1 and a2.  Entries have fractional coefficients, so pair
    denominators differ within a row of the sweep, and an entry may carry k
    or a1 a2, whose square vanishes.  The bivector is even or odd; an odd
    one, like T1-cotangent's, can fail associativity at order 2.
    """
    parities = draw(st.lists(st.sampled_from((EVEN, ODD)), min_size=2, max_size=4))
    rows = [f"v{i}" for i in range(len(parities))]
    decls = [*zip(rows, parities), ("k", EVEN), ("a1", ODD), ("a2", ODD)]
    t = VarTable.build(*draw(st.permutations(decls)))
    passive = {"1": t.one(), "k": t.var("k"), "a": t.var("a1") * t.var("a2"),
               "1+a": t.one() + t.var("a1") * t.var("a2")}
    shape = draw(st.integers(0, 1))
    entries = {}
    for a, b in combinations_with_replacement(rows, 2):
        odd_a, odd_b = t.parity(a) == ODD, t.parity(b) == ODD
        if (odd_a + odd_b) % 2 == shape and (a != b or odd_a) and draw(st.booleans()):
            c = draw(st.sampled_from(_SWEEP_COEFFS))
            entries[(a, b)] = passive[draw(st.sampled_from(sorted(passive)))].scale(c)
    assume(entries)
    return SuperBivector(t, entries), draw(st.sampled_from((0, 1, 2, 3, 8)))


def _check_sweep(got, star, stripped):
    """A sweep's outcome against the star sweep's and the stripped one's: the
    result or truncation text of the first, the stats of the second, and
    the reads (hits plus misses) and live states of both.  The stripped
    sweep's own truncation text may name a smaller sufficient order, as it
    multiplies one term at a time."""
    (value, stats), (want, star_stats), (stripped_value, want_stats) = got, star, stripped
    assert value == want
    assert stats == want_stats
    assert stats.cache_hits + stats.cache_misses == star_stats.cache_hits + star_stats.cache_misses
    assert stats.peak_states == star_stats.peak_states
    truncated = "series alive past hbar order"
    if isinstance(want, str) and want.startswith(truncated):
        assert stripped_value.startswith(truncated)
    else:
        assert stripped_value == want


class TestBasisSweep:
    """``moyal._basis_sweep`` against the two ``star`` calls per triple it
    replaced, for the detail and the truncation text, and against the same
    calls on the stripped monomials, for the engine stats."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(
        sweep_cases(),
        st.tuples(st.just(builtin("T1-cotangent").bivector), st.sampled_from((1, 2, 8))),
    ))
    def test_contract_matches_the_star_sweep(self, case):
        pi, max_order = case
        got = _outcome(StarEngine(pi, max_order), check_quantization_contract)
        oracles = []
        for sweep in (_star_sweep, _stripped_star_sweep):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(moyal, "_basis_sweep", sweep)
                oracles.append(_outcome(StarEngine(pi, max_order), check_quantization_contract))
        _check_sweep(got, *oracles)

    @settings(max_examples=40, deadline=None)
    @given(sweep_cases(), st.data())
    def test_any_basis_order_and_truncation_inside_the_sweep(self, case, data):
        # the products come from an engine at order 8, so the swept engine
        # reads every pair itself and may run out of orders inside the sweep
        pi, max_order = case
        ref = StarEngine(pi, 8)
        basis = moyal._row_basis(ref)
        basis = [basis[i] for i in data.draw(st.permutations(range(len(basis))))]
        products = [[ref.star(g, h) for h in basis] for g in basis]
        _check_sweep(*(_outcome(StarEngine(pi, max_order), sweep, basis, products)
                       for sweep in (moyal._basis_sweep, _star_sweep, _stripped_star_sweep)))

    @staticmethod
    def _sweep_table():
        return VarTable.build(("x", EVEN), ("y", EVEN), ("k", EVEN), ("a", ODD), ("b", ODD))

    def test_an_overflow_inside_the_sweep_is_the_star_calls_error(self):
        # k^50000 in an entry: a moved key of the sweep passes the exponent
        # range, and the error and stats are those of 2 star calls per triple
        t = self._sweep_table()
        pi = SuperBivector(t, {("x", "y"): t.var("k", 50000), ("a", "b"): t.one()})
        eng = StarEngine(pi, 8)
        basis = moyal._row_basis(eng)
        products = [[eng.star(g, h) for h in basis] for g in basis]
        with pytest.raises(ExponentOverflow, match="^exponent 150000 of 'k' is past the exponent limit: "):
            moyal._basis_sweep(eng, basis, products)
        assert eng.stats == EngineStats(1950, 507, 506, (1, 2, 1), 2)

    def test_a_truncation_inside_the_sweep_is_the_star_calls_error(self):
        # the products from an engine at order 8, the sweep on one at order 1
        t = self._sweep_table()
        pi = SuperBivector(t, {("x", "y"): t.one(), ("a", "b"): t.one()})
        ref = StarEngine(pi, 8)
        basis = moyal._row_basis(ref)
        products = [[ref.star(g, h) for h in basis] for g in basis]
        eng = StarEngine(pi, 1)
        with pytest.raises(TruncationExceeded,
                           match="^series alive past hbar order 1; order 2 suffices for these operands$"):
            moyal._basis_sweep(eng, basis, products)
        assert eng.stats == EngineStats(70, 87, 86, (1, 1), 1)

    def test_a_roll_back_restores_the_marked_state(self):
        t, pi = p34()
        eng = StarEngine(pi)
        eng.star(t.var("z1") * t.var("xi1"), t.var("z2") * t.var("xi1"))
        memos = (eng._cache, eng._runs, eng._monos, eng._row_bits, eng._shapes)
        before = [dict(memo) for memo in memos], eng.stats
        mark = eng._mark()
        eng.star(t.var("z1", 2) + t.var("xi2"), t.var("z2", 3) * t.var("xi2") + t.var("z1"))
        assert eng.stats != before[1]
        eng._roll_back(mark)
        assert ([dict(memo) for memo in memos], eng.stats) == before


def _bracket_sweep(pi, pairs):
    """The order-1 check as a comparison of polynomials: the oracle of
    ``moyal._order1_sweep``, which compares numerators and builds none."""
    for f, _, g, _, fg in pairs:
        if fg.hbar_coefficient(1) != poisson_bracket(pi, f, g).scale(Fraction(1, 2)):
            return f"pair ({render_poly(f)}, {render_poly(g)})"
    return ""


def _ring_sample_poly(rng, engine):
    """``moyal._sample_poly`` built with ring operations, drawing the same
    values in the same order: its oracle."""
    t = engine.table
    rows = engine.bivector.rows()
    names = list(rows) if rows else list(t.names())
    out = t.zero()
    for _ in range(rng.randint(1, 2)):
        term = t.const(rng.choice([1, -1, 2, Fraction(1, 2)]))
        for _ in range(rng.randint(0, 2)):
            term = term * t.var(rng.choice(names))
        out = out + term
    return out


def _order1_pairs(engine, seed=0):
    """The order-1 check's pairs (f, df, g, dg, fg): every basis pair, then
    10 sampled ones, drawn from a generator seeded by ``seed``."""
    pi, rng = engine.bivector, Random(seed)
    basis = moyal._row_basis(engine)
    samples = [moyal._sample_poly(rng, engine) for _ in range(20)]
    pairs = [(f, g) for f in basis for g in basis] + list(zip(samples[::2], samples[1::2]))
    return [(f, moyal._row_derivatives(pi, f), g, moyal._row_derivatives(pi, g), engine.star(f, g))
            for f, g in pairs]


_BUILT_IN_CASES = st.sampled_from([builtin(n) for n in list_builtins()]).map(
    lambda m: (m.bivector, m.max_order)
)


class TestOrder1Sweep:
    """``moyal._order1_sweep`` against the comparison of polynomials it
    replaced: the same detail on products as the engine makes them, and on
    products tampered at one pair."""

    @pytest.mark.parametrize("name", [*list_builtins(), "P3|N=6"])
    def test_contract_matches_the_polynomial_check_on_each_built_in(self, name):
        m = builtin(name)
        got = _outcome(StarEngine(m.bivector, m.max_order), check_quantization_contract, m.associative)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moyal, "_order1_sweep", _bracket_sweep)
            want = _outcome(StarEngine(m.bivector, m.max_order), check_quantization_contract, m.associative)
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(sweep_cases())
    def test_contract_matches_the_polynomial_check(self, case):
        # fractional and odd entries, passive k and a1 a2 factors, and orders
        # that may end the contract in a truncation
        pi, max_order = case
        got = _outcome(StarEngine(pi, max_order), check_quantization_contract)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moyal, "_order1_sweep", _bracket_sweep)
            want = _outcome(StarEngine(pi, max_order), check_quantization_contract)
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(sweep_cases(), _BUILT_IN_CASES), st.integers(0, 20))
    def test_a_tampered_product_fails_at_its_pair(self, case, seed):
        pi = case[0]
        t = pi.table
        pairs = _order1_pairs(StarEngine(pi, 8), seed)
        assert moyal._order1_sweep(pi, pairs) == _bracket_sweep(pi, pairs) == ""
        live = [i for i, (f, _, g, _, _) in enumerate(pairs) if poisson_bracket(pi, f, g)]
        assume(live)
        # the operands hold at most 2 factors and the entries fewer than 5 of
        # any variable, so no bracket has a term with x^9
        extra = t.hbar() * t.var(t.even_names()[0], 9)

        def only_bracket(fg):
            m, c = next(iter(fg.hbar_coefficient(1).terms.items()))
            return fg - t.hbar() * GradedPoly(t, {m: c})

        # the last basis pair with a bracket, and the last pair of all with one
        basis_live = [i for i in live if i < len(pairs) - 10]
        for i in {*basis_live[-1:], live[-1]}:
            f, df, g, dg, fg = pairs[i]
            want = f"pair ({render_poly(f)}, {render_poly(g)})"
            for tampered in (fg + t.hbar() * fg.hbar_coefficient(1), fg + extra, only_bracket(fg)):
                bad = pairs[:i] + [(f, df, g, dg, tampered)] + pairs[i + 1:]
                assert moyal._order1_sweep(pi, bad) == _bracket_sweep(pi, bad) == want

    @pytest.mark.parametrize("name", list_builtins())
    def test_sample_poly_matches_the_ring_build(self, name):
        # the same polynomials from the same draws, leaving the generator alike
        eng = StarEngine(builtin(name).bivector)
        for seed in range(21):
            a, b = Random(seed), Random(seed)
            for _ in range(10):
                assert moyal._sample_poly(a, eng) == _ring_sample_poly(b, eng)
            assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("name", [*list_builtins(), "P3|N=6"])
    def test_row_derivatives_are_taken_once_per_operand(self, name, monkeypatch):
        # each basis element's table serves all its pairs; each sampled
        # operand takes its own
        m = builtin(name)
        calls = []
        take = moyal._row_derivatives
        monkeypatch.setattr(moyal, "_row_derivatives", lambda pi, p: calls.append(p) or take(pi, p))
        eng = StarEngine(m.bivector, m.max_order)
        check_quantization_contract(eng, associativity=m.associative)
        basis = moyal._row_basis(eng)
        assert len(calls) == len(basis) + 20
        assert calls[:len(basis)] == basis

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(sweep_cases(), _BUILT_IN_CASES), st.integers(0, 20))
    def test_row_derivatives_are_the_left_derivatives(self, case, seed):
        # each row's list is d_left(A, p), beside the parity of the term of p
        # it came from: the derivative's parity plus |A|
        pi = case[0]
        t, eng = pi.table, StarEngine(pi)
        p = _ring_sample_poly(Random(seed), eng) * _ring_sample_poly(Random(seed + 1), eng)
        table = moyal._row_derivatives(pi, p)
        for a in pi.rows():
            d = table.get(_derivative_key(t, a), [])
            assert GradedPoly._of_scaled(t, {m: c for c, m, _ in d}, p._den) == d_left(a, p)
            pa = 1 if t.parity(a) == ODD else 0
            assert all(pf == ((m & t._odd).bit_count() + pa) & 1 for _, m, pf in d)
        assert set(table) <= {_derivative_key(t, a) for a in pi.rows()}
        assert all(table.values())

    def test_the_contract_and_the_bracket_share_one_summation(self):
        assert moyal._bracket_num is poisson._bracket_num
        assert moyal._row_derivatives is poisson._row_derivatives


def test_the_pair_reader_rescales_every_map_when_its_denominator_grows():
    # the pairs (1, y), (x, y), (u, v) and (x^3, y^3) reduce over 1, 2, 3 and
    # 4, so each job raises the shared denominator of the maps before it
    t = VarTable.build(("x", EVEN), ("y", EVEN), ("u", EVEN), ("v", EVEN))
    pi = SuperBivector(t, {("x", "y"): t.one(), ("u", "v"): t.const(Fraction(2, 3))})
    x, y, u, v = (t.var(n) for n in "xyuv")
    jobs = [(1, t.one(), y), (3, x, y), (-1, u, v), (2, x**3, y**3)]
    eng = StarEngine(pi)
    maps, scale = eng._sum_products(jobs)
    assert scale == 12
    for (c0, a, b), num in zip(jobs, maps):
        assert GradedPoly._of_scaled(t, num, scale) == eng.star(a, b).scale(c0)


def _product_or_error(engine, f, g):
    try:
        return engine.star(f, g), engine.supercommutator(f, g)
    except TruncationExceeded as err:
        return type(err), str(err), err.sufficient_order


class TestEnginePlan:
    """The step table is built with the bivector; the pair cache stays per engine."""

    def _calls(self, t):
        z1, z2, xi1, xi2 = (t.var(n) for n in ("z1", "z2", "xi1", "xi2"))
        return [
            [(z1**2 + xi1 * xi2, z2 * xi2), (xi1 * xi2, z1 * z2)],
            [(z1, z2), (z1**3 * xi2, z2**2 * xi1 + xi2), (z1, z2)],
        ]

    def test_engines_over_one_bivector_keep_their_own_cache_and_stats(self):
        t, pi = p34()
        first, second = StarEngine(pi), StarEngine(pi)
        assert first._blocks is second._blocks  # the bivector's, built with it
        memos = ("_cache", "_runs", "_monos", "_row_bits", "_shapes")
        for memo in memos:
            assert getattr(first, memo) is not getattr(second, memo)
        for engine, calls in zip((first, second), self._calls(t)):
            fresh = StarEngine(p34()[1])
            for f, g in calls:
                assert engine.star(f, g) == fresh.star(f, g)
            assert engine.stats == fresh.stats
            for memo in memos:
                assert getattr(engine, memo) == getattr(fresh, memo)
        assert first.stats != second.stats
        # each engine holds the monomials and shapes of its own calls only
        assert first._row_bits.keys() != second._row_bits.keys()
        assert first._shapes.keys() != second._shapes.keys()

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 8])
    def test_max_order_is_per_engine(self, order):
        t, pi = p34()
        StarEngine(pi, max_order=8)  # an engine at another order
        shared, fresh = StarEngine(pi, max_order=order), StarEngine(p34()[1], max_order=order)
        for calls in self._calls(t):
            for f, g in calls + [(t.var("z1", 9), t.var("z2", 9))]:
                assert _product_or_error(shared, f, g) == _product_or_error(fresh, f, g)

    @pytest.mark.parametrize("entry, message", [
        (lambda t: t.hbar(), r"entry \(x, y\) contains hbar"),
        (lambda t: t.var("x"), "bivector entries depend on contracted variables"),
    ])
    def test_a_rejected_bivector_raises_on_every_engine(self, entry, message):
        t = VarTable.build(("x", EVEN), ("y", EVEN))
        pi = SuperBivector(t, {("x", "y"): entry(t)})
        for _ in range(2):
            with pytest.raises(NonCentralBivector, match=message):
                StarEngine(pi)


class TestTruncationBoundary:
    def test_series_ending_at_max_order_is_returned(self):
        # sum_n (hbar/2)^n (2 l1 l2)^n n! C(8,n)^2 z1^(8-n) z2^(8-n)
        t, pi = p34()
        eng = StarEngine(pi, max_order=8)
        ll = t.var("l1") * t.var("l2")
        want = t.zero()
        for n in range(9):
            term = t.hbar(n) * ll**n * t.var("z1", 8 - n) * t.var("z2", 8 - n)
            want = want + term.scale(factorial(n) * comb(8, n) ** 2)
        assert eng.star(t.var("z1", 8), t.var("z2", 8)) == want

    def test_first_order_series_at_max_order_one(self):
        t, pi = moyal_mini()
        eng = StarEngine(pi, max_order=1)
        want = t.var("x") * t.var("y") + t.hbar().scale(Fraction(1, 2))
        assert eng.star(t.var("x"), t.var("y")) == want


_COEFFS = (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))


def _random_poly(draw, t, names):
    out = t.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = t.const(draw(st.sampled_from(_COEFFS[1:])))
        for name in draw(st.lists(st.sampled_from(names), max_size=2)):
            term = term * t.var(name)
        out = out + term
    return out


@st.composite
def central_cases(draw):
    """A constant bivector on up to 4 variables, and operands of degree <= 2."""
    parities = draw(st.lists(st.sampled_from((EVEN, ODD)), min_size=1, max_size=4))
    names = [f"v{i}" for i in range(len(parities))]
    t = VarTable.build(*zip(names, parities))
    odd = [p == ODD for p in parities]
    # constant entries are even, so |A| + |B| is the bivector parity for every entry
    shape = draw(st.integers(0, 1))
    entries = {}
    for i, j in combinations_with_replacement(range(len(names)), 2):
        if (odd[i] + odd[j]) % 2 == shape and (i != j or odd[i]):
            entries[(names[i], names[j])] = t.const(draw(st.sampled_from(_COEFFS)))
    f = _random_poly(draw, t, names)
    # the oracle reads its starting sign from the parity of f
    bit = draw(st.integers(0, 1))
    f = GradedPoly(t, {m: c for m, c in f.terms.items() if m.parity() == bit})
    return SuperBivector(t, entries), f, _random_poly(draw, t, names)


class TestOracleAgreement:
    @settings(max_examples=50, deadline=None)
    @given(central_cases())
    def test_random_central_bivectors(self, case):
        pi, f, g = case
        got = StarEngine(pi).star(f, g)
        assert got == _oracle_star(pi, f, g, 8)
        assert got.hbar_coefficient(1) == poisson_bracket(pi, f, g).scale(Fraction(1, 2))


@st.composite
def even_central_triples(draw):
    """An even constant bivector from ``central_cases`` and three operands."""
    pi, f, g = draw(central_cases().filter(lambda case: case[0].parity == 0))
    return pi, f, g, _random_poly(draw, pi.table, list(pi.table.names()))


class TestAssociativityProperty:
    # odd bivectors are left out: t1_mini shows they need not be associative
    @settings(max_examples=50, deadline=None)
    @given(even_central_triples())
    def test_random_even_constant_bivectors(self, case):
        pi, f, g, h = case
        eng = StarEngine(pi)
        assert eng.star(eng.star(f, g), h) == eng.star(f, eng.star(g, h))


def _row_degree_3(draw, t, rows):
    """c * r1 * r2 * r3 over row variables, with no odd one repeated."""
    evens = [r for r in rows if t.parity(r) == EVEN]
    odds = [r for r in rows if t.parity(r) == ODD]
    k = draw(st.integers(0 if evens else 3, min(3, len(odds))))
    picks = draw(st.lists(st.sampled_from(odds), min_size=k, max_size=k, unique=True)) if k else []
    if k < 3:
        picks += draw(st.lists(st.sampled_from(evens), min_size=3 - k, max_size=3 - k))
    term = t.const(draw(st.sampled_from(_COEFFS[1:])))
    for r in draw(st.permutations(picks)):
        term = term * t.var(r)
    return term


# (bivector parity, even count, odd count) such that every row has >= 2 entries
# and row-degree-3 operands exist
_MERGING_SHAPES = (
    (0, 3, 0), (0, 0, 3), (0, 3, 2), (0, 3, 3),
    (1, 2, 2), (1, 2, 3), (1, 3, 2), (1, 3, 3),
)


@st.composite
def merging_cases(draw):
    """A constant bivector with >= 2 entries in every row, and row-degree-3 operands.

    Two steps on different factors of an operand reach the same monomial pair
    in either order, so these products merge contraction paths from order 2.
    """
    shape, n_even, n_odd = draw(st.sampled_from(_MERGING_SHAPES))
    parities = draw(st.permutations([EVEN] * n_even + [ODD] * n_odd))
    names = [f"v{i}" for i in range(len(parities))]
    t = VarTable.build(*zip(names, parities))
    odd = [p == ODD for p in parities]
    entries = {}
    for i, j in combinations_with_replacement(range(len(names)), 2):
        if (odd[i] + odd[j]) % 2 == shape and (i != j or odd[i]):
            entries[(names[i], names[j])] = t.const(draw(st.sampled_from(_COEFFS[1:])))
    pi = SuperBivector(t, entries)
    rows = pi.rows()
    f = _row_degree_3(draw, t, rows)
    g = _row_degree_3(draw, t, rows)
    if draw(st.booleans()):
        # a second term of the same parity, so the oracle can read |f| off f
        extra = _row_degree_3(draw, t, rows)
        if extra.parity() == f.parity():
            f = f + extra
    if draw(st.booleans()):
        g = g + _row_degree_3(draw, t, rows)
    return pi, f, g


class TestMergedPaths:
    @settings(max_examples=50, deadline=None)
    @given(merging_cases())
    def test_engine_matches_oracle_where_paths_meet(self, case):
        pi, f, g = case
        eng = StarEngine(pi)
        got = eng.star(f, g)
        assert got == _oracle_star(pi, f, g, 8)


def t0_ladder(k):
    """x11^k x12^k t11 t12 and x21^k x22^k t21 t22 on T0-cotangent."""
    m = builtin("T0-cotangent")
    t = m.table
    f = t.var("x11", k) * t.var("x12", k) * t.var("t11") * t.var("t12")
    g = t.var("x21", k) * t.var("x22", k) * t.var("t21") * t.var("t22")
    return m.bivector, f, g


def _oracle_by_halves(pi, k):
    """The ladder product from the tuple-sum oracle, one parity block at a time.

    T0-cotangent has only even-even and odd-odd entries.  The two kernels act
    on disjoint variables and commute, so the exponential factors and, with
    the even right-hand factor moved past the odd left-hand one at no sign,
    (fe fo) * (ge go) = (fe *even ge)(fo *odd go).  The direct oracle needs
    about a minute at k = 3; the halves need well under a second.
    """
    t = pi.table
    even = {key: v for key, v in pi.entries.items() if t.parity(key[0]) == EVEN}
    odd = {key: v for key, v in pi.entries.items() if t.parity(key[0]) == ODD}
    fe = t.var("x11", k) * t.var("x12", k)
    ge = t.var("x21", k) * t.var("x22", k)
    fo = t.var("t11") * t.var("t12")
    go = t.var("t21") * t.var("t22")
    return _oracle_star(SuperBivector(t, even), fe, ge, 2 * k) * _oracle_star(
        SuperBivector(t, odd), fo, go, 2
    )


class TestLadder:
    def test_engine_matches_tuple_sum_oracle(self):
        pi, f, g = t0_ladder(2)
        # row degree 6 on each side, so the series ends at order 6
        assert StarEngine(pi, max_order=6).star(f, g) == _oracle_star(pi, f, g, 6)

    @pytest.mark.parametrize("k", [2, 3])
    def test_engine_matches_oracle_by_parity_blocks(self, k):
        pi, f, g = t0_ladder(k)
        assert StarEngine(pi, max_order=2 * k + 2).star(f, g) == _oracle_by_halves(pi, k)

    def test_truncation_names_the_row_degree(self):
        pi, f, g = t0_ladder(2)
        with pytest.raises(TruncationExceeded) as info:
            StarEngine(pi, max_order=5).star(f, g)
        assert info.value.sufficient_order == 6
        assert "order 6 suffices" in str(info.value)

    def test_stats_count_merged_states(self):
        pi, f, g = t0_ladder(2)
        eng = StarEngine(pi)
        assert eng.stats == EngineStats(0, 0, 0, (), -1)
        eng.star(f, g)
        # order 1: 4 x-steps and 4 t-steps reach 8 distinct pairs; order 6
        # removes every row factor, leaving the single pair (1, 1)
        assert eng.stats == EngineStats(0, 1, 1, (1, 8, 26, 44, 26, 8, 1), 6)
        eng.star(f, g)
        eng.star(f.scale(2), g)
        stats = eng.stats
        assert (stats.cache_hits, stats.cache_misses, stats.cache_size) == (2, 1, 1)


class TestDictOracle:
    """The engine against an oracle over plain dicts that shares no ring code."""

    @settings(max_examples=50, deadline=None)
    @given(central_cases())
    def test_random_central_bivectors(self, case):
        pi, f, g = case
        want = dict_oracle_star(pi, f, g, 8)
        assert as_dict(StarEngine(pi).star(f, g)) == want
        # constant entries take the oracle's memoised sum, which is its tuple sum
        assert dict_oracle_star(pi, f, g, 8, plain=True) == want

    @settings(max_examples=50, deadline=None)
    @given(merging_cases())
    def test_paths_that_meet(self, case):
        pi, f, g = case
        assert as_dict(StarEngine(pi).star(f, g)) == dict_oracle_star(pi, f, g, 8)

    def test_t0_ladder(self):
        pi, f, g = t0_ladder(2)
        assert as_dict(StarEngine(pi, max_order=6).star(f, g)) == dict_oracle_star(pi, f, g, 6)


@st.composite
def passive_cases(draw):
    """Entries in passive constants, operands with passive factors, and max_order.

    The entries are polynomials in an even constant k and odd constants
    a1..a4 (in pairs, so that they are even).  A product of two entries
    can vanish, as (a1 a2)(a1 a3) does, so a live step may meet a centre
    times entry that is zero.  Operands have row degree <= 3 and carry
    passive factors; each draws its rows on its own, so a row may sit on one
    side only.
    """
    shapes = [(2, 0), (3, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]
    n_even, n_odd = draw(st.sampled_from(shapes))
    rows = [f"e{i}" for i in range(n_even)] + [f"o{i}" for i in range(n_odd)]
    decls = [(r, EVEN if r[0] == "e" else ODD) for r in rows]
    odds = ["a1", "a2", "a3", "a4"]
    decls += [("k", EVEN)] + [(a, ODD) for a in odds]
    t = VarTable.build(*draw(st.permutations(decls)))
    odd_pairs = list(combinations(odds, 2))

    def passive_entry():
        out = t.zero()
        for _ in range(draw(st.integers(1, 2))):
            term = t.const(draw(st.sampled_from(_COEFFS[1:]))) * t.var("k", draw(st.integers(0, 1)))
            pair = draw(st.sampled_from([None] * len(odd_pairs) + odd_pairs))
            if pair:
                term = term * t.var(pair[0]) * t.var(pair[1])
            out = out + term
        return out

    shape = draw(st.integers(0, 1))
    entries = {}
    for a, b in combinations_with_replacement(rows, 2):
        odd_a, odd_b = t.parity(a) == ODD, t.parity(b) == ODD
        if (odd_a + odd_b) % 2 == shape and (a != b or odd_a) and draw(st.integers(0, 3)):
            entries[(a, b)] = passive_entry()
    assume(any(not v.is_zero() for v in entries.values()))

    def operand():
        out = t.zero()
        mine = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=len(rows), unique=True))
        for _ in range(draw(st.integers(1, 3))):
            term = t.const(draw(st.sampled_from(_COEFFS[1:])))
            term = term * t.var("k", draw(st.integers(0, 2)))
            passive = draw(st.sampled_from([None, None, *odds]))
            if passive:
                term = term * t.var(passive)
            size = draw(st.integers(1, 3))
            picks = draw(st.lists(st.sampled_from(mine), min_size=size, max_size=size))
            for i, name in enumerate(picks):
                if t.parity(name) == EVEN or name not in picks[:i]:
                    term = term * t.var(name)
            out = out + term
        return out

    return SuperBivector(t, entries), operand(), operand(), draw(st.integers(0, 3))


def _engine_or_none(pi, f, g, max_order):
    try:
        return as_dict(StarEngine(pi, max_order).star(f, g))
    except TruncationExceeded:
        return None


def _oracle_or_none(pi, f, g, max_order):
    try:
        return dict_oracle_star(pi, f, g, max_order)
    except ValueError:
        return None


class TestPassiveEntries:
    """The kernel against the dict oracle where entries and operands carry constants."""

    @settings(max_examples=100, deadline=None)
    @given(passive_cases())
    def test_engine_matches_oracle(self, case):
        pi, f, g, max_order = case
        got = _engine_or_none(pi, f, g, max_order)
        want = _oracle_or_none(pi, f, g, max_order)
        # row degree <= 3 on each side, so order 3 completes every series
        full = dict_oracle_star(pi, f, g, 3)
        if want is not None:
            assert got == want
        # the oracle follows each path on its own, while the engine drops a
        # merged centre that cancels; so the engine may return the complete
        # series where the oracle raises, but never raise where it returns
        if got is not None:
            assert got == full
        else:
            assert want is None

    def test_nilpotent_centre_ends_the_series_at_max_order(self):
        # every entry is a multiple of a1 a2, whose square vanishes: each
        # order-2 step is live on the operands but meets a zero centre * entry
        t = VarTable.build(
            ("x", EVEN), ("th1", ODD), ("a1", ODD), ("y", EVEN), ("a2", ODD), ("th2", ODD),
        )
        c = t.var("a1") * t.var("a2")
        pi = SuperBivector(t, {("x", "y"): c, ("th1", "th2"): c.scale(3)})
        f = t.var("x", 2) * t.var("th1") + t.var("x") * t.var("th2")
        g = t.var("y", 2) * t.var("th2") + t.var("th1") * t.var("y")
        got = StarEngine(pi, max_order=1).star(f, g)
        assert got.hbar_coefficient(2).is_zero() and not got.hbar_coefficient(1).is_zero()
        assert as_dict(got) == dict_oracle_star(pi, f, g, 1)
        assert got.hbar_coefficient(1) == poisson_bracket(pi, f, g).scale(Fraction(1, 2))


class TestStatsCountPairs:
    def test_hits_and_misses_sum_to_the_term_pairs_requested(self):
        t, pi = p34()
        eng = StarEngine(pi)
        z1, z2, xi1, xi2 = (t.var(n) for n in ("z1", "z2", "xi1", "xi2"))
        operands = [z1 + xi1 * xi2, z2**2 + z1 + t.one(), xi1 + xi2 * z2, t.zero()]
        requested = 0
        for f in operands:
            for g in operands:
                eng.star(f, g)
                requested += len(f.terms) * len(g.terms)
        stats = eng.stats
        assert requested == 49
        assert stats.cache_hits + stats.cache_misses == requested
        # six distinct monomials: z1 appears in two operands
        assert stats.cache_misses == stats.cache_size == 36


def _with_hbar(draw, p):
    """p with each term times a power of hbar of its own, from 0 to 2."""
    t = p.table
    out = t.zero()
    for m, c in p.terms.items():
        out = out + t.hbar(draw(st.integers(0, 2))) * GradedPoly(t, {m: c})
    return out


def _part(p, bit):
    """The terms of p of one parity."""
    return GradedPoly(p.table, {m: c for m, c in p.terms.items() if m.parity() == bit})


@st.composite
def central_hbar_cases(draw):
    """``central_cases`` with a power of hbar drawn for each operand term."""
    pi, f, g = draw(central_cases())
    return pi, _with_hbar(draw, f), _with_hbar(draw, g)


@st.composite
def passive_hbar_cases(draw):
    """``passive_cases`` with a power of hbar drawn for each operand term."""
    pi, f, g, max_order = draw(passive_cases())
    return pi, _with_hbar(draw, f), _with_hbar(draw, g), max_order


def _both_orders(pi, f, g, max_order):
    """star(f, g) and then star(g, f) on one engine, each as a dict or None if it raised."""
    eng = StarEngine(pi, max_order)
    out = []
    for a, b in ((f, g), (g, f)):
        try:
            out.append(as_dict(eng.star(a, b)))
        except TruncationExceeded:
            out.append(None)
    return eng, out


class TestMirroredPairs:
    """star(g, f) read off the cached pairs of star(f, g), against the oracle."""

    @settings(max_examples=100, deadline=None)
    @given(central_hbar_cases())
    def test_random_central_bivectors(self, case):
        pi, f, g = case
        _, (fg, gf) = _both_orders(pi, f, g, 8)
        assert fg == dict_oracle_star(pi, f, g, 8)
        assert gf == dict_oracle_star(pi, g, f, 8)
        assert gf == as_dict(StarEngine(pi).star(g, f))

    @settings(max_examples=100, deadline=None)
    @given(passive_hbar_cases())
    def test_passive_entries_and_truncation(self, case):
        pi, f, g, max_order = case
        _, (fg, gf) = _both_orders(pi, f, g, max_order)
        # a mirrored series has the live states of the cached one, order by order
        assert (fg is None) == (gf is None)
        assert gf == _engine_or_none(pi, g, f, max_order)
        if gf is not None:
            # row degree <= 3 on each side, so order 3 completes every series
            assert gf == dict_oracle_star(pi, g, f, 3)

    @settings(max_examples=50, deadline=None)
    @given(central_hbar_cases())
    def test_stats_count_each_requested_pair(self, case):
        pi, f, g = case
        eng, _ = _both_orders(pi, f, g, 8)
        stats = eng.stats
        assert stats.cache_hits + stats.cache_misses == 2 * len(f.terms) * len(g.terms)
        assert stats.cache_misses == stats.cache_size

    @pytest.mark.parametrize("model", [pair_odd, grass2, t1_mini])
    def test_every_sign_on_small_models(self, model):
        # odd-odd pairs need (-1)^(|f||g|), odd orders need (-1)^n; t1_mini's
        # bivector is odd
        t, pi = model()
        odd = [t.var(n) for n in t.names() if t.parity(n) == ODD]
        operands = [t.one(), t.hbar(), *(t.var(n) for n in t.names())]
        if len(odd) > 1:
            operands.append(t.hbar() * odd[0] * odd[1])
        for f in operands:
            for g in operands:
                eng = StarEngine(pi)
                eng.star(f, g)
                assert eng.star(g, f) == StarEngine(pi).star(g, f)
                assert as_dict(eng.star(g, f)) == dict_oracle_star(pi, g, f, 8)

    def test_mirror_keeps_the_peak_states(self):
        pi, f, g = t0_ladder(2)
        eng = StarEngine(pi)
        eng.star(f, g)
        eng.star(g, f)
        assert eng.stats == EngineStats(0, 2, 2, (1, 8, 26, 44, 26, 8, 1), 6)
        fresh = StarEngine(pi)
        assert fresh.star(g, f) == eng.star(g, f)
        assert fresh.stats.peak_states == eng.stats.peak_states


def _oracle_comm(pi, f, g, max_order):
    """f * g - (-1)^(|f||g|) g * f from the dict oracle, both orders computed."""
    sign = -1 if f.parity() == ODD and g.parity() == ODD else 1
    fg = dict_oracle_star(pi, f, g, max_order)
    gf = dict_oracle_star(pi, g, f, max_order)
    out = {m: fg.get(m, 0) - sign * gf.get(m, 0) for m in fg.keys() | gf.keys()}
    return {m: c for m, c in out.items() if c}


class TestOnePassCommutator:
    @settings(max_examples=100, deadline=None)
    @given(central_hbar_cases(), st.integers(0, 1))
    def test_matches_both_orders_of_the_oracle(self, case, bit):
        pi, f, g = case
        g = _part(g, bit)
        got = StarEngine(pi).supercommutator(f, g)
        assert as_dict(got) == _oracle_comm(pi, f, g, 8)

    @settings(max_examples=100, deadline=None)
    @given(passive_hbar_cases(), st.integers(0, 1), st.integers(0, 1))
    def test_truncates_where_the_product_does(self, case, bit_f, bit_g):
        pi, f, g, max_order = case
        f, g = _part(f, bit_f), _part(g, bit_g)
        try:
            StarEngine(pi, max_order).star(f, g)
        except TruncationExceeded as err:
            with pytest.raises(TruncationExceeded) as info:
                StarEngine(pi, max_order).supercommutator(f, g)
            assert str(info.value) == str(err)
            return
        got = StarEngine(pi, max_order).supercommutator(f, g)
        assert as_dict(got) == _oracle_comm(pi, f, g, 3)


_TERM_COEFFS = (1, 1, 3, -2, Fraction(1, 2), Fraction(-3, 4))


@st.composite
def single_term_cases(draw):
    """A bivector from ``central_cases`` and two single-term operands.

    Each operand is a coefficient (unit, integer or fractional) times a power
    of hbar and up to three variables, odd ones included; a repeated odd
    variable makes it zero.
    """
    pi, _, _ = draw(central_cases())
    t = pi.table
    names = list(t.names())

    def term():
        out = t.const(draw(st.sampled_from(_TERM_COEFFS))) * t.hbar(draw(st.integers(0, 2)))
        for name in draw(st.lists(st.sampled_from(names), max_size=3)):
            out = out * t.var(name)
        return out

    return pi, term(), term()


class TestReducedPairCache:
    """Products read off cached pair polynomials, against the dict oracle."""

    @settings(max_examples=100, deadline=None)
    @given(single_term_cases())
    def test_single_terms(self, case):
        # a miss, a hit, a mirror miss after that hit, and a hit on the mirror
        pi, f, g = case
        eng = StarEngine(pi)
        for a, b in ((f, g), (f, g), (g, f), (g, f)):
            assert as_dict(eng.star(a, b)) == dict_oracle_star(pi, a, b, 8)
        assert as_dict(eng.supercommutator(f, g)) == _oracle_comm(pi, f, g, 8)
        assert as_dict(eng.supercommutator(g, f)) == _oracle_comm(pi, g, f, 8)

    @settings(max_examples=100, deadline=None)
    @given(single_term_cases(), st.integers(0, 1))
    def test_unit_terms_after_hits(self, case, bit):
        # the operands with coefficient 1, so a hit returns the cached pair
        pi, f, g = case
        assume(f and g)
        f, g = (GradedPoly(p.table, dict.fromkeys(p.terms, 1)) for p in (f, g))
        eng = StarEngine(pi)
        first = eng.star(f, g)
        assert eng.star(f, g) is first
        assert as_dict(eng.star(g, f)) == dict_oracle_star(pi, g, f, 8)
        assert as_dict(first) == dict_oracle_star(pi, f, g, 8)
        h = _part(f + g, bit)
        assert as_dict(eng.supercommutator(h, g)) == _oracle_comm(pi, h, g, 8)

    def test_pairs_with_different_denominators(self):
        # the pairs of x^3, x, u and 1 with y^3, y and v reduce over 4, 2, 3
        # and 1, so no one pair's denominator is a multiple of all the others
        t = VarTable.build(("x", EVEN), ("y", EVEN), ("u", EVEN), ("v", EVEN))
        pi = SuperBivector(t, {("x", "y"): t.one(), ("u", "v"): t.const(Fraction(2, 3))})
        x, y, u, v = (t.var(n) for n in "xyuv")
        f = (x**3).scale(Fraction(2, 3)) + x.scale(-5) + u + t.one()
        g = (y**3).scale(Fraction(1, 2)) + t.hbar() * y + v.scale(7)
        eng = StarEngine(pi)
        dens = {eng.star(GradedPoly(t, {mf: 1}), GradedPoly(t, {mg: 1}))._den
                for mf in f.terms for mg in g.terms}
        assert dens == {1, 2, 3, 4}
        for a, b in ((f, g), (g, f)):
            assert as_dict(eng.star(a, b)) == dict_oracle_star(pi, a, b, 8)
            assert as_dict(eng.supercommutator(a, b)) == _oracle_comm(pi, a, b, 8)

    def test_truncation_from_a_single_pair(self):
        t, pi = p34()
        eng = StarEngine(pi, max_order=1)
        for c in (1, 3, Fraction(1, 2)):
            with pytest.raises(TruncationExceeded) as info:
                eng.star(t.var("z1", 2).scale(c), t.var("z2", 2))
            assert (info.value.max_order, info.value.sufficient_order) == (1, 2)
        assert eng.stats.cache_size == 0

    def test_a_single_pair_miss_names_the_sufficient_order(self):
        # a miss on two coefficient-1 monomials reads the pair with no sum
        m = builtin("P3|4")
        eng = StarEngine(m.bivector, 7)
        with pytest.raises(TruncationExceeded,
                           match="^series alive past hbar order 7; order 8 suffices for these operands$"):
            eng.star(m.table.var("z1", 8), m.table.var("z2", 8))
        assert eng.stats == EngineStats(0, 1, 0, (1,) * 8, 7)

    def test_returned_pair_used_as_a_value_leaves_the_cache_alone(self):
        t, pi = p34()
        eng = StarEngine(pi)
        f, g = t.var("z1", 2) * t.var("xi1"), t.var("z2") * t.var("xi1")
        got = eng.star(f, g)
        want = dict_oracle_star(pi, f, g, 8)
        assert as_dict(got) == want
        for value in (got + got, got.scale(3), got * got, -got, eng.star(got, got)):
            assert value.table == t
        assert as_dict(got) == want
        assert as_dict(eng.star(f, g)) == want
        assert as_dict(eng.star(g, f)) == dict_oracle_star(pi, g, f, 8)
        assert as_dict(eng.star(f.scale(2), g)) == {m: 2 * c for m, c in want.items()}

    def test_stats_on_a_fixed_sequence(self):
        t, pi = p34()
        eng = StarEngine(pi)
        z1, z2, xi1, xi2 = (t.var(n) for n in ("z1", "z2", "xi1", "xi2"))
        a = z1**2 * xi1
        b = (z2 + z1 * xi1 * xi2).scale(Fraction(3, 2)) + t.hbar() * z2**2
        for op, f, g in [
            (eng.star, z1, z2), (eng.star, z1, z2), (eng.star, z2, z1),
            (eng.star, a, b), (eng.star, b, a),
            (eng.supercommutator, z1, a), (eng.supercommutator, a, z1),
            (eng.star, z1.scale(2), z2), (eng.star, b, b),
        ]:
            op(f, g)
        assert eng.stats == EngineStats(2, 19, 19, (1, 2, 1), 2)


_BLOCK_MODELS = ("T0-cotangent", "L5|6", "WP[1,3]")


def _components(pi):
    """The bivector's variables grouped into connected components of its entries."""
    groups: list[set] = []
    for a, b in pi.entries:
        keys = {a, b}
        for g in [g for g in groups if g & keys]:
            groups.remove(g)
            keys |= g
        groups.append(keys)
    return groups


@st.composite
def multi_block_cases(draw):
    """A built-in model and operands each of whose term pairs has >= 2 live blocks.

    One entry (A, B) is drawn in each of two or more components of the
    bivector (odd ones included), up to every component; every term of f
    carries each A and every term of g each B, beside up to two more
    variables, a power of hbar and a coefficient.  A repeated odd factor
    may make a term vanish.
    """
    m = builtin(draw(st.sampled_from(_BLOCK_MODELS)))
    t, pi = m.table, m.bivector
    groups = _components(pi)
    picked = draw(st.lists(st.sampled_from(range(len(groups))), min_size=2, max_size=len(groups),
                          unique=True))
    steps = [draw(st.sampled_from(sorted(p for p in pi.entries if p[0] in groups[i])))
             for i in picked]
    names = sorted(set().union(*groups)) + list(m.constants[:2])

    def operand(side):
        out = t.zero()
        for _ in range(draw(st.integers(1, 2))):
            term = t.const(draw(st.sampled_from(_TERM_COEFFS))) * t.hbar(draw(st.integers(0, 2)))
            for name in [s[side] for s in steps] + draw(st.lists(st.sampled_from(names), max_size=2)):
                term = term * t.var(name)
            out = out + term
        return out

    f, g = operand(0), operand(1)
    assume(f and g)
    return pi, f, g


def _one_block_bivectors():
    """Odd bivectors (t1_mini's and one on two components) and an even one with
    an odd factor in an entry: none of them is split."""
    _, t1_pi = t1_mini()
    t = VarTable.build(("x", EVEN), ("th", ODD), ("y", EVEN), ("ph", ODD), ("w", EVEN))
    odd_pi = SuperBivector(t, {("x", "th"): t.var("w"), ("y", "ph"): t.const(2)})
    t = VarTable.build(("x", EVEN), ("y", EVEN), ("u", EVEN), ("v", EVEN), ("a1", ODD), ("a2", ODD))
    factor_pi = SuperBivector(t, {("x", "y"): t.var("a1") * t.var("a2"), ("u", "v"): t.one()})
    return t1_pi, odd_pi, factor_pi


class TestBlocks:
    """Products split over the bivector's independent blocks, against the dict oracle."""

    @settings(max_examples=60, deadline=None)
    @given(multi_block_cases())
    def test_products_agree_with_the_oracle(self, case):
        # a term carries at most 7 step factors (L5|6 has 7 blocks) and 2
        # more variables, so its row degree, which bounds the series, is <= 9
        pi, f, g = case
        eng = StarEngine(pi, 9)
        for a, b in ((f, g), (g, f)):
            assert as_dict(eng.star(a, b)) == dict_oracle_star(pi, a, b, 9)
        for bit_f, bit_g in ((0, 0), (0, 1), (1, 0), (1, 1)):
            a, b = _part(f, bit_f), _part(g, bit_g)
            assert as_dict(eng.supercommutator(a, b)) == _oracle_comm(pi, a, b, 9)

    # the built-ins with more than two blocks, and their block counts
    @pytest.mark.parametrize("name, blocks", [
        ("L5|6", 7), ("P3|4", 5), ("WP[1,3]", 3), ("WP[2,2]", 3), ("WP[4,0]", 3),
    ])
    def test_every_subset_of_blocks_agrees_with_the_oracle(self, name, blocks):
        # one step (A, B) per block, odd where the block is; f multiplies
        # the A's in block order and g the B's in the reverse order, so
        # every subset of the blocks is live in one product
        m = builtin(name)
        t, pi = m.table, m.bivector
        groups = _components(pi)
        assert len(groups) == len(StarEngine(pi)._blocks) == blocks
        steps = [min(pair for pair in pi.entries if pair[0] in g) for g in groups]
        eng = StarEngine(pi, 8)
        for k in range(1, blocks + 1):
            for subset in combinations(steps, k):
                f = g = t.one()
                for a, b in subset:
                    f, g = f * t.var(a), t.var(b) * g
                assert as_dict(eng.star(f, g)) == dict_oracle_star(pi, f, g, 8), subset

    def test_a_four_block_product_is_pinned(self):
        m = builtin("L5|6")
        f = parse_expression("xi1*xi2*xi3*ze1", m.table)
        g = parse_expression("ze1*xi3*xi2*xi1", m.table)
        got = StarEngine(m.bivector, 8).star(f, g)
        # each odd block fires once: xi1, xi2, xi3 and ze1 at hbar^4
        assert render_poly(got) == (
            "1/16*hbar^4*l1^6*m1^2 + 1/16*hbar^4*l1^6*m2^2 + 3/16*hbar^4*l1^4*l2^2*m1^2"
            " + 3/16*hbar^4*l1^4*l2^2*m2^2 + 3/16*hbar^4*l1^2*l2^4*m1^2"
            " + 3/16*hbar^4*l1^2*l2^4*m2^2 + 1/16*hbar^4*l2^6*m1^2 + 1/16*hbar^4*l2^6*m2^2"
        )
        assert as_dict(got) == dict_oracle_star(m.bivector, f, g, 8)

    @pytest.mark.parametrize("name, lhs, rhs", [
        ("L5|6", "xi1*xi2*ze1*X1", "hbar*ze1*xi2*xi1*X2 + Y1"),
        ("P3|4", "z1^2*xi1*xi3", "xi3*xi1*z2^2 - 1/3*z2"),
        ("WP[2,2]", "z1*xi1*xi2 + xi2", "2*z2^2*xi2*xi1"),
    ])
    def test_the_memoised_oracle_is_the_tuple_sum(self, name, lhs, rhs):
        m = builtin(name)
        f, g = parse_expression(lhs, m.table), parse_expression(rhs, m.table)
        for a, b in ((f, g), (g, f)):
            assert dict_oracle_star(m.bivector, a, b, 8) == dict_oracle_star(
                m.bivector, a, b, 8, plain=True)

    # (model, f, g, order at which the product completes, sufficient_order)
    @pytest.mark.parametrize("model, lhs, rhs, complete, sufficient", [
        ("T0-cotangent", "x11^2*x12*t11*t12", "x21*x22^2*t21*t22", 5, 5),
        ("L5|6", "X1^2*xi1*ze1", "Y1*X2*xi1*ze1", 4, 4),
        ("WP[1,3]", "z1^2*xi1*xi2", "z2^2*xi1", 3, 3),
        ("L5|6", "X1*Y1*xi2*ze3", "hbar*X2^2*Y2*xi2*ze3", 4, 4),
        # three live blocks, of depths 3, 1 and 1, beside a passive rest
        ("L5|6", "X1^3*Y2*xi1*ze1*l1", "hbar*X2*Y1^2*xi1*ze1", 5, 5),
    ])
    def test_truncation_matches_the_joint_series(self, model, lhs, rhs, complete, sufficient):
        m = builtin(model)
        f, g = parse_expression(lhs, m.table), parse_expression(rhs, m.table)
        for max_order in range(4):
            for a, b in ((f, g), (g, f)):
                if max_order >= complete:
                    assert as_dict(StarEngine(m.bivector, max_order).star(a, b)) == (
                        dict_oracle_star(m.bivector, a, b, max_order))
                    continue
                with pytest.raises(TruncationExceeded) as info:
                    StarEngine(m.bivector, max_order).star(a, b)
                assert (info.value.max_order, info.value.sufficient_order) == (
                    max_order, sufficient)

    def test_stats_on_a_fixed_sequence(self):
        # the joint states per order are the blocks' counts convolved, and a
        # call that raises records the joint series' peaks up to max_order
        m = builtin("L5|6")
        eng = StarEngine(m.bivector, max_order=3)
        raised = []
        for lhs, rhs in [
            ("X1^2*xi1*ze1", "Y1*X2*xi1*ze1"), ("X1*xi1", "Y2*xi1"), ("Y2*xi1", "X1*xi1"),
            ("X1^2*Y1*xi2*ze2", "X2^2*xi2*ze2"), ("X1*ze1", "X2*ze1"), ("xi3*ze3", "xi3*ze3"),
        ]:
            try:
                eng.star(parse_expression(lhs, m.table), parse_expression(rhs, m.table))
            except TruncationExceeded as err:
                raised.append((lhs, err.sufficient_order))
        assert raised == [("X1^2*xi1*ze1", 4), ("X1^2*Y1*xi2*ze2", 4)]
        assert eng.stats == EngineStats(0, 6, 4, (1, 4, 7, 6), 3)

    def test_stats_with_pairs_no_block_reaches(self):
        # l1 * X1, Y1 * Y2, xi1 * ze1 and the like have no live block: each
        # miss is one monomial product and one state at order 0
        m = builtin("L5|6")
        eng = StarEngine(m.bivector, m.max_order)
        pairs = [
            ("l1", "X1"), ("Y1", "Y2"), ("xi1", "ze1"), ("l1*m2", "hbar*l2"),
            ("X1*Y1", "X2"), ("X2", "X1*Y1"), ("xi1*l1", "xi1"), ("xi1", "xi2*m1"),
            ("X1 + l1", "Y1 + 3/2*m2"), ("Y1 + 3/2*m2", "X1 + l1"), ("Y2*xi3", "Y1*ze2"),
            ("X1^2*xi1", "X2*xi1 + ze3"), ("l1", "X1"), ("hbar*ze1*ze2", "ze1"),
        ]
        for op in (eng.star, eng.supercommutator):
            for lhs, rhs in pairs:
                op(parse_expression(lhs, m.table), parse_expression(rhs, m.table))
        assert eng.stats == EngineStats(22, 20, 20, (1, 2, 1), 2)
        eng = StarEngine(m.bivector, m.max_order)
        for lhs, rhs in [("l1", "X1"), ("Y1", "Y2"), ("xi1", "ze1"), ("X1", "l1"), ("l1", "X1")]:
            eng.star(parse_expression(lhs, m.table), parse_expression(rhs, m.table))
        assert eng.stats == EngineStats(1, 4, 4, (1,), 0)

    @pytest.mark.parametrize("pi", _one_block_bivectors())
    def test_inexact_splits_stay_one_block(self, pi):
        t = pi.table
        eng = StarEngine(pi)
        assert len(eng._blocks) == 1
        rows = [t.var(n) for n in pi.rows()]
        every_row = t.one()
        for r in rows:
            every_row = every_row * r
        operands = [t.one(), t.hbar() * rows[0], *rows, rows[0] * rows[-1], rows[1] * rows[-2],
                    every_row]
        for f in operands:
            for g in operands:
                assert as_dict(eng.star(f, g)) == dict_oracle_star(pi, f, g, 8)

    def test_interleaved_odd_blocks(self):
        # the blocks {th1, th3} and {th2, th4} interleave in the odd factor
        # order, so splitting a monomial into blocks reorders its odd factors
        t = VarTable.build(*((f"th{i}", ODD) for i in range(1, 5)), ("x", EVEN), ("y", EVEN))
        pi = SuperBivector(t, {
            ("th1", "th3"): t.one(), ("th2", "th4"): t.const(3), ("th2", "th2"): t.const(-1),
            ("x", "y"): t.const(2),
        })
        assert len(StarEngine(pi)._blocks) == 3
        th1, th2, th3, th4, x, y = (t.var(n) for n in t.names())
        operands = [th1, th2 * th3, th1 * th2 * x, th3 * th4 * y, th1 * th4 * x * y,
                    th2 * th3 * th4 + th1, t.hbar() * th1 * th2 * th3 * th4]
        eng = StarEngine(pi)
        for f in operands:
            for g in operands:
                assert as_dict(eng.star(f, g)) == dict_oracle_star(pi, f, g, 8)

    def test_blocks_are_the_components_of_the_entries(self):
        t = VarTable.build(("x", EVEN), ("y", EVEN), ("u", EVEN), ("v", EVEN))
        pi = SuperBivector(t, {("x", "y"): t.const(3), ("u", "v"): t.one()})
        assert len(StarEngine(pi)._blocks) == 2
        for model, count in [("T0-cotangent", 2), ("L5|6", 7), ("WP[1,3]", 3), ("P3|4", 5),
                             ("P3|N", 1), ("T1-cotangent", 1)]:
            assert len(StarEngine(builtin(model).bivector)._blocks) == count


L = EXPONENT_LIMIT


@st.composite
def boundary_cases(draw):
    """Operands with exponents at the edge of the packed range, and max_order.

    The rows x, y (y invertible), th1 and th2 carry small exponents, a
    negative one on y included, so a series may outlive max_order.  The
    passive p and q are invertible and in no entry, and carry exponents at
    the field boundary, p in f only and q in g only, so every exact product
    stays in range; s is left for ``test_a_product_past_the_limit_is_refused``.
    The entries are multiples of 1 and of the constant k.
    """
    decls = [("x", EVEN), ("y", EVEN, True), ("k", EVEN), ("p", EVEN, True),
             ("q", EVEN, True), ("s", EVEN, True), ("th1", ODD), ("th2", ODD)]
    t = VarTable.build(*draw(st.permutations(decls)))
    entries = {}
    for pair in (("x", "y"), ("th1", "th2"), ("th1", "th1"), ("th2", "th2")):
        if draw(st.integers(0, 2)):
            c = draw(st.sampled_from(_COEFFS[1:]))
            entries[pair] = t.var("k", draw(st.integers(0, 1))).scale(c)
    assume(entries)
    edge = st.sampled_from([L - 1, -(L - 1), -L, 0, 1])

    def operand(passive):
        out = t.zero()
        for _ in range(draw(st.integers(1, 3))):
            term = t.const(draw(st.sampled_from(_COEFFS[1:]))) * t.hbar(draw(st.integers(0, 2)))
            term = term * t.var("x", draw(st.integers(0, 2))) * t.var("y", draw(st.integers(-1, 2)))
            term = term * t.var("k", draw(st.integers(0, 1))) * t.var(passive, draw(edge))
            for name in ("th1", "th2"):
                if draw(st.booleans()):
                    term = term * t.var(name)
            out = out + term
        return out

    return SuperBivector(t, entries), operand("p"), operand("q"), draw(st.integers(1, 3))


class TestPackedBoundary:
    """The engine at the edge of the packed exponent range, against the dict oracle."""

    @settings(max_examples=100, deadline=None)
    @given(boundary_cases())
    def test_engine_matches_oracle(self, case):
        pi, f, g, max_order = case
        assert _engine_or_none(pi, f, g, max_order) == _oracle_or_none(pi, f, g, max_order)

    @settings(max_examples=100, deadline=None)
    @given(boundary_cases(), st.sampled_from([(L - 1, 1), (L - 2, 2), (-L, -1), (-(L - 1), -2)]))
    def test_a_product_past_the_limit_is_refused(self, case, powers):
        # every term of f * g carries s^(a + b), past the limit: the engine
        # raises, or returns zero where the exact series is zero, or
        # truncates where it does, and never returns a wrapped exponent
        pi, f, g, max_order = case
        t = pi.table
        f, g = f * t.var("s", powers[0]), g * t.var("s", powers[1])
        want = _oracle_or_none(pi, f, g, max_order)
        try:
            got = _engine_or_none(pi, f, g, max_order)
        except ExponentOverflow:
            return
        assert got == want and not got

    def test_the_kernel_checks_every_field_it_writes(self):
        t = VarTable.build(("x", EVEN), ("y", EVEN, True), ("k", EVEN), ("p", EVEN))
        eng = StarEngine(SuperBivector(t, {("x", "y"): t.var("k")}))
        x, y, k, p = (t.var(n) for n in t.names())
        for f, g in (
            (x * t.var("p", L - 1), y * p),  # the order-0 product
            (x * t.var("k", L - 1), y),  # the entry times the order-0 product
            (x, t.var("y", -L)),  # a derivative
        ):
            with pytest.raises(ExponentOverflow):
                eng.star(f, g)
            with pytest.raises(ExponentOverflow):
                eng.supercommutator(f, g)
        # the refused products left nothing behind: the same pairs one step
        # inside the range come out exact
        f, g = x * t.var("k", L - 2), y
        assert as_dict(eng.star(f, g)) == dict_oracle_star(eng.bivector, f, g, 8)


@st.composite
def run_reuse_cases(draw):
    """A bivector of 1-3 blocks or an odd one, operands that share block parts,
    and max_order.

    An even bivector has one entry per block, even-even or odd-odd, each a
    multiple of 1 or of the passive constant k; an odd bivector has entries
    even-odd.  The passive variables k, p (invertible) and a1, a2 (odd) are
    in no row, and the table's order interleaves them with the rows.  Each
    operand list is every product of two row parts with two passive parts,
    the passive ones carrying Laurent powers of p, a1 or a2 and hbar, so one
    engine reads each block's run for several pairs.
    """
    odd_bivector = draw(st.booleans())
    n_blocks = draw(st.integers(1, 3))
    decls, pairs = [("k", EVEN), ("p", EVEN, True), ("a1", ODD), ("a2", ODD)], []
    for b in range(n_blocks):
        kinds = [(EVEN, ODD)] if odd_bivector else [(EVEN, EVEN), (ODD, ODD)]
        pa, pb = draw(st.sampled_from(kinds))
        decls += [(f"r{b}", pa), (f"s{b}", pb)]
        pairs.append((f"r{b}", f"s{b}"))
    t = VarTable.build(*draw(st.permutations(decls)))
    entries = {pair: t.var("k", draw(st.integers(0, 1))).scale(draw(st.sampled_from(_COEFFS[1:])))
               for pair in pairs}
    rows = [name for pair in pairs for name in pair]

    def row_part():
        out = t.const(draw(st.sampled_from(_TERM_COEFFS)))
        for name in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
            out = out * t.var(name)
        return out

    def passive_part():
        out = t.hbar(draw(st.integers(0, 2))) * t.var("k", draw(st.integers(0, 1)))
        out = out * t.var("p", draw(st.integers(-2, 2)))
        for name in draw(st.lists(st.sampled_from(["a1", "a2"]), max_size=2, unique=True)):
            out = out * t.var(name)
        return out

    def operands():
        parts = [row_part() for _ in range(2)]
        return [r * q for r in parts for q in (passive_part(), passive_part())]

    return SuperBivector(t, entries), operands(), operands(), draw(st.integers(1, 4))


_MODELS = Path(__file__).resolve().parent.parent / "models"

# the pairs a contract reads, hits plus misses: one read per pair, as two
# ``star`` calls per basis triple make, whichever of them miss
_CONTRACT_READS = {
    "l5_6.model": 7018, "p3_4.model": 6980, "p3_n.model": 792, "t0_cotangent.model": 6968,
    "t1_cotangent.model": 253, "wp_1_3.model": 7900, "wp_2_2.model": 7902, "wp_4_0.model": 7906,
    "T0-cotangent": 6968, "T1-cotangent": 253, "P3|4": 6980, "WP[1,3]": 7900, "WP[2,2]": 7902,
    "WP[4,0]": 7906, "L5|6": 7018, "P3|N": 792, "P3|N=6": 782,
}


class TestRunCache:
    """Misses split into block runs and a passive rest, against the dict oracle."""

    @settings(max_examples=60, deadline=None)
    @given(run_reuse_cases())
    def test_one_engine_matches_the_oracle(self, case):
        pi, fs, gs, max_order = case
        eng = StarEngine(pi, max_order)
        for f in fs:
            for g in gs:
                for a, b in ((f, g), (g, f)):
                    try:
                        got = as_dict(eng.star(a, b))
                    except TruncationExceeded:
                        got = None
                    want = _oracle_or_none(pi, a, b, max_order)
                    # the engine drops merged centres that cancel, where the
                    # oracle follows each path: it may complete where the
                    # oracle raises, never the other way round
                    if want is not None:
                        assert got == want
                    elif got is not None:
                        # row degree <= 3 on each side, so order 3 completes the series
                        assert got == dict_oracle_star(pi, a, b, 3)

    def test_a_run_read_past_the_limit_raises_and_caches_nothing(self):
        t = VarTable.build(("x", EVEN), ("k", EVEN), ("y", EVEN))
        eng = StarEngine(SuperBivector(t, {("x", "y"): t.var("k")}))
        x, y = t.var("x"), t.var("y")
        assert as_dict(eng.star(x, y)) == dict_oracle_star(eng.bivector, x, y, 8)
        runs = dict(eng._runs)
        # the pair's run is x * y's, and its hbar * k term times k^(L-1) is past the limit
        f = x * t.var("k", L - 1)
        for op in (eng.star, eng.supercommutator, eng.star):
            with pytest.raises(ExponentOverflow):
                op(f, y)
        assert eng._runs == runs
        assert eng.stats == EngineStats(0, 4, 1, (1, 1), 1)
        f = x * t.var("k", L - 2)
        assert as_dict(eng.star(f, y)) == dict_oracle_star(eng.bivector, f, y, 8)
        assert eng._runs == runs

    @pytest.mark.parametrize("name, stats", [
        ("l5_6.model", EngineStats(6029, 989, 989, (1, 3, 1), 2)),
        ("p3_4.model", EngineStats(6036, 944, 944, (1, 2, 1), 2)),
        ("p3_n.model", EngineStats(546, 246, 246, (1, 6, 3), 2)),
        ("t0_cotangent.model", EngineStats(5994, 974, 974, (1, 6, 3), 2)),
        ("t1_cotangent.model", EngineStats(56, 197, 197, (1, 4), 1)),
        ("wp_1_3.model", EngineStats(6972, 928, 928, (1, 2, 1), 2)),
        ("wp_2_2.model", EngineStats(6972, 930, 930, (1, 2, 1), 2)),
        ("wp_4_0.model", EngineStats(6972, 934, 934, (1, 2, 1), 2)),
        ("P3|N=6", EngineStats(556, 226, 226, (1, 4, 1), 2)),
    ])
    def test_stats_after_the_contract(self, name, stats):
        m = load_model(_MODELS / name) if name.endswith(".model") else builtin(name)
        eng = StarEngine(m.bivector, m.max_order)
        check_quantization_contract(eng, associativity=m.associative)
        assert eng.stats == stats
        assert stats.cache_hits + stats.cache_misses == _CONTRACT_READS[name]

    @pytest.mark.parametrize("name, stats", [
        ("T0-cotangent", EngineStats(5994, 974, 974, (1, 6, 3), 2)),
        ("T1-cotangent", EngineStats(56, 197, 197, (1, 4), 1)),
        ("P3|4", EngineStats(6036, 944, 944, (1, 2, 1), 2)),
        ("WP[1,3]", EngineStats(6972, 928, 928, (1, 2, 1), 2)),
        ("WP[2,2]", EngineStats(6972, 930, 930, (1, 2, 1), 2)),
        ("WP[4,0]", EngineStats(6972, 934, 934, (1, 2, 1), 2)),
        ("L5|6", EngineStats(6029, 989, 989, (1, 3, 1), 2)),
        ("P3|N", EngineStats(546, 246, 246, (1, 6, 3), 2)),
        ("P3|N=6", EngineStats(556, 226, 226, (1, 4, 1), 2)),
    ])
    def test_records_and_stats_of_the_contract_on_each_built_in(self, name, stats):
        m = builtin(name)
        eng = StarEngine(m.bivector, m.max_order)
        records = check_quantization_contract(eng, associativity=m.associative)
        skip = (
            "bracket pairs even with odd coordinates; the product is order-1 consistent"
            " but associativity fails at order 2, so the sweep is not run"
        )
        assert records == (
            CheckRecord("contract bilinearity", "contract", "pass"),
            CheckRecord("contract associativity", "contract", "pass") if m.associative
            else CheckRecord("contract associativity", "contract", "skip", detail=skip),
            CheckRecord("contract order1-bracket", "contract", "pass"),
        )
        assert m.associative == (name != "T1-cotangent")
        assert eng.stats == stats
        assert stats.cache_hits + stats.cache_misses == _CONTRACT_READS[name]


def _read_split(engine, f, g, right):
    """f * g read as the basis sweep reads a product operand: through
    ``StarEngine._sum_products`` with the passive factors of g (``right``)
    or of f taken out by ``moyal._split_passive``."""
    passive = engine.bivector._passive
    terms, shifts = moyal._split_passive(g if right else f, passive, engine._unit & passive)
    split = (f._num.items(), terms, shifts) if right else (terms, g._num.items(), shifts)
    [num], scale = engine._sum_products([(1, f, g)], splits=[split])
    return GradedPoly._of_scaled(engine.table, num, scale * f._den * g._den)


def _value_or_error(run, *args):
    try:
        return run(*args)
    except (TruncationExceeded, ExponentOverflow) as err:
        return type(err), str(err)


_PASSIVE_BIVECTORS = st.one_of(
    sweep_cases().map(lambda case: case[0]),
    run_reuse_cases().map(lambda case: case[0]),  # its passive p is invertible
    st.sampled_from([builtin(n).bivector for n in [*list_builtins(), "P3|N=6"]]),
)


@st.composite
def passive_factor_cases(draw, at_limit=False):
    """A bivector, monomials m and h of rows and odd passive variables, a
    passive monomial c and max_order.

    c is a power of hbar times up to three even variables that are no row,
    each to a power in [0, 2], or [-2, 2] where the variable is invertible.
    With ``at_limit``, one of them sits at the end of the exponent range,
    L - 1 or, where invertible, -L.
    """
    pi = draw(_PASSIVE_BIVECTORS)
    t, rows = pi.table, pi.rows()
    words = list(rows) + [n for n in t.odd_names() if n not in rows]

    def monomial():
        out = t.one()
        for name in draw(st.lists(st.sampled_from(words), max_size=3)):
            out = out * t.var(name)
        return out

    passive = [n for n in t.even_names() if n not in rows]
    names = draw(st.lists(st.sampled_from(passive), max_size=3, unique=True)) if passive else []
    c = t.hbar(draw(st.integers(0, 2)))
    for i, name in enumerate(names):
        invertible = t.spec(name).invertible
        if at_limit and i == 0:
            power = draw(st.sampled_from((L - 1, -L) if invertible else (L - 1,)))
        else:
            power = draw(st.integers(-2 if invertible else 0, 2))
        c = c * t.var(name, power)
    return pi, monomial(), monomial(), c, draw(st.sampled_from((0, 1, 2, 8)))


class TestPassiveFactors:
    """exp(hbar P/2)(c m (x) h) = c exp(hbar P/2)(m (x) h) for a passive c, the
    identity the basis sweep reads its product operands by (see "Passive
    factors" in ``moyal``), on fresh engines."""

    @settings(max_examples=60, deadline=None)
    @given(passive_factor_cases())
    def test_a_passive_factor_leaves_each_side(self, case):
        pi, m, h, c, max_order = case
        for f, g, side in ((c * m, h, m), (h, c * m, m)):
            plain = (h, side) if f is h else (side, h)
            eng, ref = StarEngine(pi, max_order), StarEngine(pi, max_order)
            got = _value_or_error(eng.star, f, g)
            want = _value_or_error(lambda: c * ref.star(*plain))
            # the same live states at every order: the same truncation and stats
            assert got == want
            assert eng.stats == ref.stats

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(passive_factor_cases(), passive_factor_cases(at_limit=True)), st.booleans())
    def test_the_split_read_matches_star(self, case, right):
        # a key moved past the exponent range raises the ExponentOverflow
        # that star raises on the unmoved pair
        pi, m, h, c, max_order = case
        f, g = (h, c * m) if right else (c * m, h)
        eng, ref = StarEngine(pi, max_order), StarEngine(pi, max_order)
        got = _value_or_error(_read_split, eng, f, g, right)
        assert got == _value_or_error(ref.star, f, g)
        if not (isinstance(got, tuple) and got[0] is ExponentOverflow):
            assert eng.stats == ref.stats

    @pytest.mark.parametrize("entry, power", [("k", L - 1), ("p^-1", -L)])
    @pytest.mark.parametrize("right", [False, True])
    def test_a_moved_key_past_the_limit_raises_as_star_does(self, entry, power, right):
        t = VarTable.build(("x", EVEN), ("k", EVEN), ("p", EVEN, True), ("y", EVEN))
        pi = SuperBivector(t, {("x", "y"): parse_expression(entry, t)})
        name = entry[0]
        f, g = t.var("x"), t.var("y") * t.var(name, power) * t.hbar()
        if not right:
            f, g = t.var("x") * t.var(name, power) * t.hbar(), t.var("y")
        with pytest.raises(ExponentOverflow) as want:
            StarEngine(pi).star(f, g)
        with pytest.raises(ExponentOverflow) as got:
            _read_split(StarEngine(pi), f, g, right)
        assert str(got.value) == str(want.value)


def test_a_mutant_of_the_passive_rest_fails_the_contract(monkeypatch):
    # hbar dropped from the rest a run is multiplied by: the sweep reads its
    # product operands without hbar, and still the contract sees the fault
    times = moyal._times_monomial
    monkeypatch.setattr(moyal, "_times_monomial",
                        lambda num, sign, FG, t: times(num, sign, FG & (1 << t._hbar_shift) - 1, t))
    for name in ("WP[2,2]", "L5|6"):
        m = builtin(name)
        records = check_quantization_contract(StarEngine(m.bivector, m.max_order))
        assert (records[1].check_id, records[1].status) == ("contract associativity", "fail")


def _live_blocks(blocks: tuple, F: int, G: int) -> tuple:
    """The blocks with a step (A, B) whose A divides F and whose B divides G,
    read straight off the packed rows: the classification the engine made on
    every miss before it kept memos, kept as the oracle of ``_classify``."""
    live = []
    for block in blocks:
        for _, ma, wa, _, partners in block[0]:
            if F & ma != wa and any(G & mb != wb for _, mb, wb, _, _ in partners):
                live.append(block)
                break
    return tuple(live)


def _monomial_pool(pi, size=10):
    """Single monomials over pi's table: the unit, a power of hbar, each row
    alone, and ``size`` products of rows with passive factors, powers of hbar
    and negative exponents, drawn from a generator seeded by the table."""
    t = pi.table
    rows = list(pi.rows())
    passive = [n for n in t.names() if n not in rows]
    rng = Random(repr(t))

    def mono(names, hbar=0, laurent=None):
        even, odd = [0] * t.n_even, 0
        for n in names:
            if t.parity(n) == ODD:
                odd |= 1 << t.odd_bit(n)
            else:
                even[t.even_slot(n)] += 1
        if laurent is not None:
            even[t.even_slot(laurent)] = -rng.randint(1, 2)
        return GradedPoly(t, {Monomial(tuple(even), odd, hbar): 1})

    pool = [t.one(), t.hbar(2)] + [mono([n], hbar=i % 2) for i, n in enumerate(rows)]
    for _ in range(size):
        names = rng.sample(rows, min(len(rows), rng.randint(1, 3)))
        names += rng.sample(passive, min(len(passive), rng.randint(0, 2)))
        evens = [n for n in names if t.parity(n) == EVEN]
        laurent = rng.choice(evens) if evens and rng.random() < 0.4 else None
        pool.append(mono(names, rng.randint(0, 2), laurent))
    return pool


def _check_pool(pi, pool, max_order=8):
    """Every ordered pair of the pool on one engine: its live blocks and sign
    against ``_live_blocks`` and ``_regroup_sign``, its product against the
    dict oracle."""
    eng = StarEngine(pi, max_order)
    odd = pi.table._odd
    for f in pool:
        for g in pool:
            (mf,), (mg,) = f._num, g._num
            live = _live_blocks(eng._blocks, mf, mg)
            assert eng._classify(mf, mg) == (live, moyal._regroup_sign(mf, mg, live, odd)), (f, g)
            try:
                got = as_dict(eng.star(f, g))
            except TruncationExceeded:
                got = None
            assert got == _oracle_or_none(pi, f, g, max_order), (f, g)
    return eng


def _odd_passive_bivector():
    """Three even blocks, {th1, th2}, {th3} and {x, y} (y invertible), beside
    the passive k and the odd a1 and a2, which the table interleaves with
    the rows: pairs of one row shape differ in the sign of regrouping."""
    t = VarTable.build(("th1", ODD), ("a1", ODD), ("th2", ODD), ("x", EVEN), ("k", EVEN),
                       ("y", EVEN, True), ("a2", ODD), ("th3", ODD))
    return SuperBivector(t, {
        ("th1", "th2"): t.var("k"), ("th3", "th3"): t.const(-3), ("x", "y"): t.const(2),
    })


class TestClassification:
    """A miss's live blocks and regrouping sign, read from the engine's memos,
    against the classification of every pair from its packed rows."""

    @pytest.mark.parametrize("name", [*list_builtins(), "P3|N=6"])
    def test_every_built_in_bivector(self, name):
        pi = builtin(name).bivector
        _check_pool(pi, _monomial_pool(pi))

    @pytest.mark.parametrize("pi", [*_one_block_bivectors(), _odd_passive_bivector()],
                             ids=["t1-mini", "odd-two-components", "odd-entry-factor", "odd-passive"])
    def test_one_block_and_odd_passive_bivectors(self, pi):
        _check_pool(pi, _monomial_pool(pi, size=16))

    @settings(max_examples=40, deadline=None)
    @given(run_reuse_cases().filter(lambda case: len(case[0]._blocks) > 1))
    def test_random_central_bivectors_with_several_blocks(self, case):
        pi, fs, gs, max_order = case
        t = pi.table
        pool = [t.one()] + [GradedPoly._of_scaled(t, {m: 1}, 1) for p in fs + gs for m in p._num]
        _check_pool(pi, pool, max_order)

    def test_memos_hold_each_monomial_and_shape_once(self):
        pi = _odd_passive_bivector()
        pool = _monomial_pool(pi, size=16)
        eng = _check_pool(pi, pool)
        t = pi.table
        monomials = {m for p in pool for m in p._num}
        assert eng._row_bits.keys() == monomials
        for m, bits in eng._row_bits.items():
            # a row's bit is set exactly when the row divides m, and no other bit is
            want = sum(row[1] & (t._guard | t._odd) for row in pi._rows if m & row[1] != row[2])
            assert bits == want
        assert eng._shapes.keys() == {
            (eng._row_bits[mf], eng._row_bits[mg], mf & t._odd, mg & t._odd)
            for mf in monomials for mg in monomials
        }

    def test_a_pair_no_step_reaches_on_one_block_is_one_monomial_product(self):
        # the one block of t1_mini, whose one step pairs x with th, is live
        # only where that step fires: x w * x and th * th w are each one
        # monomial product, with one state at order 0 and no run
        t, pi = t1_mini()
        eng = StarEngine(pi)
        x, th, w = t.var("x"), t.var("th"), t.var("w")
        assert eng.star(x * w, x) == x * x * w
        assert eng.star(th, th * w).is_zero()
        assert eng._runs == {} and eng.stats == EngineStats(0, 2, 2, (1,), 0)
        assert as_dict(eng.star(x, th)) == dict_oracle_star(pi, x, th, 8)
        assert len(eng._runs) == 1 and eng.stats == EngineStats(0, 3, 3, (1, 1), 1)


def _assert_canonical(p):
    """p's int form is canonical: den > 0, no zero numerator, and no prime
    divides den and every numerator."""
    assert p._den > 0
    assert 0 not in p._num.values()
    assert gcd(p._den, *p._num.values()) == 1


class TestCanonicalForm:
    """Every product, cached pair and block run is in the ring's canonical form."""

    def test_a_product_of_runs_is_reduced_across_them(self):
        # th1 * th1 and th2 * th2 have no order-0 term: their runs are
        # 1/2 hbar and 2 hbar, so the product of the two runs is hbar^2 over
        # 2 until it is reduced
        t = VarTable.build(("th1", ODD), ("th2", ODD), ("x", EVEN), ("y", EVEN))
        pi = SuperBivector(t, {("th1", "th1"): t.one(), ("th2", "th2"): t.const(4),
                               ("x", "y"): t.const(3)})
        eng = StarEngine(pi)
        assert len(eng._blocks) == 3
        th, x, y = t.var("th1") * t.var("th2"), t.var("x"), t.var("y")
        for f, g in ((th, th), (th * x, th * y), (th * y, th * x)):
            got = eng.star(f, g)
            _assert_canonical(got)
            assert as_dict(got) == dict_oracle_star(pi, f, g, 8)
        assert eng.star(th, th) == t.hbar(2).scale(-1)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        single_term_cases().map(lambda c: (c[0], [c[1]], [c[2]], 8)),
        multi_block_cases().map(lambda c: (c[0], [c[1]], [c[2]], 8)),
        run_reuse_cases(),
    ))
    def test_products_and_caches(self, case):
        pi, fs, gs, max_order = case
        eng = StarEngine(pi, max_order)
        for f in fs:
            for g in gs:
                for a, b in ((f, g), (g, f)):
                    calls = [(eng.star, a, b)] + [
                        (eng.supercommutator, _part(a, i), _part(b, j)) for i in (0, 1) for j in (0, 1)
                    ]
                    for op, x, y in calls:
                        try:
                            _assert_canonical(op(x, y))
                        except TruncationExceeded:
                            pass
        t = pi.table
        for (mf, mg), p in eng._cache.items():
            _assert_canonical(p)
            # a shared object is each of its pairs' own product
            one = [GradedPoly._of_scaled(t, {m: 1}, 1) for m in (mf, mg)]
            assert p == StarEngine(pi, max_order).star(*one)
        for series, _, _ in eng._runs.values():
            _assert_canonical(series)


class TestSharedProducts:
    """Pair-cache entries with one product hold one object: a mirror whose
    flip changes nothing, and every pair with no live block and the same
    monomial product."""

    def _wp22(self):
        m = builtin("WP[2,2]")
        t = m.table
        return StarEngine(m.bivector, m.max_order), t, {n: t.var(n) for n in t.names()}

    def test_a_mirror_that_flips_to_itself_is_its_twin(self):
        eng, _, v = self._wp22()
        assert eng.star(v["z1"], v["l1"]) is eng.star(v["l1"], v["z1"])
        # z1 * z2 has a term of order 1, so its mirror is a new object
        zz = eng.star(v["z1"], v["z2"])
        assert eng.star(v["z2"], v["z1"]) is not zz
        assert eng.stats == EngineStats(0, 4, 4, (1, 1), 1)

    def test_pairs_with_one_monomial_product_share_it(self):
        eng, _, v = self._wp22()
        z1, l1, l2 = v["z1"], v["l1"], v["l2"]
        assert eng.star(z1 * l1, l2) is eng.star(z1, l1 * l2)
        assert eng.star(z1 * l1, l2) == z1 * l1 * l2
        assert eng.stats == EngineStats(1, 2, 2, (1,), 0)

    def test_every_vanishing_product_is_the_engine_zero(self):
        # a1 * a1 has no live block; the other two pairs have a live block
        # and a rest that repeats the odd passive a1 or a2
        pi = _odd_passive_bivector()
        t = pi.table
        eng = StarEngine(pi)
        x, y, a1, a2, th3 = (t.var(n) for n in ("x", "y", "a1", "a2", "th3"))
        zero = eng.star(a1, a1)
        assert zero.is_zero()
        assert eng.star(x * a1, y * a1) is zero and eng.star(th3 * a2, th3 * a2) is zero
        assert list(eng._monos) == [None]

    def test_a_sign_flipped_mirror_is_its_own_object(self):
        eng, _, v = self._wp22()
        xi1, xi2 = v["xi1"], v["xi2"]
        first = eng.star(xi1, xi2)
        second = eng.star(xi2, xi1)
        assert second == first.scale(-1) and second is not first

    def test_a_fixed_call_list_leaves_a_pinned_number_of_objects(self):
        eng, t, v = self._wp22()
        ops = [t.one(), *v.values(), v["z1"] * v["l1"], v["l1"] * v["l2"], v["z2"] * v["xi1"],
               v["xi1"] * v["xi2"], t.hbar() * v["z2"]]
        for f in ops:
            for g in ops:
                eng.star(f, g)
        assert eng.stats == EngineStats(0, 144, 144, (1, 2, 1), 2)
        assert len({id(p) for p in eng._cache.values()}) == 84
        for (mf, mg), p in eng._cache.items():
            one = [GradedPoly._of_scaled(t, {m: 1}, 1) for m in (mf, mg)]
            assert p == StarEngine(eng.bivector, eng.max_order).star(*one)
