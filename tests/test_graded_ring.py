from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermoyal.graded_ring import (
    EVEN,
    ODD,
    GradedPoly,
    Monomial,
    NonInvertibleSubstitution,
    ParityMismatch,
    VarTable,
    parity_of,
    substitute,
)


def table() -> VarTable:
    return VarTable.build(
        ("x", EVEN),
        ("y", EVEN),
        ("l", EVEN, True),
        ("a", EVEN),
        ("th1", ODD),
        ("th2", ODD),
        ("th3", ODD),
        ("th4", ODD),
    )


def raw(t, coeff_terms):
    """Build a poly from raw (even_exps, odd_names, hbar, coeff) rows, no mul."""
    terms = {}
    for exps, odds, h, c in coeff_terms:
        even = [0] * t.n_even
        for name, e in exps.items():
            even[t.even_slot(name)] = e
        mask = 0
        for name in odds:
            mask |= 1 << t.odd_bit(name)
        terms[Monomial(tuple(even), mask, h)] = Fraction(c)
    return GradedPoly(t, terms)


class TestConstruction:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            VarTable.build(("x", EVEN), ("x", ODD))

    def test_hbar_reserved(self):
        with pytest.raises(ValueError):
            VarTable.build(("hbar", EVEN))

    def test_invertible_odd_rejected(self):
        with pytest.raises(ValueError):
            VarTable.build(("th", ODD, True))

    def test_zero_terms_dropped(self):
        t = table()
        p = t.var("x") - t.var("x")
        assert p.is_zero()
        assert p == t.zero()

    def test_float_coefficients_rejected(self):
        t = table()
        with pytest.raises(TypeError):
            t.const(0.1)
        with pytest.raises(TypeError):
            t.var("x").scale(0.5)

    def test_hash_stable(self):
        t = table()
        p = t.var("x") * t.var("th1") + t.const(2)
        q = t.const(2) + t.var("th1") * t.var("x")
        assert p == q
        assert hash(p) == hash(q)


class TestMultiplication:
    def test_odd_square_is_zero(self):
        t = table()
        th = t.var("th1")
        assert (th * th).is_zero()

    def test_anticommute(self):
        t = table()
        th1, th2 = t.var("th1"), t.var("th2")
        assert th1 * th2 == -(th2 * th1)
        # canonical form keeps declaration order
        assert th2 * th1 == raw(t, [({}, ("th1", "th2"), 0, -1)])

    def test_three_factor_reorder(self):
        t = table()
        th1, th2, th3 = (t.var(n) for n in ("th1", "th2", "th3"))
        # th3*th1*th2 needs two transpositions: sign +1
        assert th3 * th1 * th2 == raw(t, [({}, ("th1", "th2", "th3"), 0, 1)])
        # th2*th1*th3: one transposition
        assert th2 * th1 * th3 == raw(t, [({}, ("th1", "th2", "th3"), 0, -1)])

    def test_even_times_odd_commutes(self):
        t = table()
        assert t.var("x") * t.var("th1") == t.var("th1") * t.var("x")

    def test_difference_of_squares_with_nilpotent(self):
        t = table()
        x = t.var("x")
        u = t.var("th1") * t.var("th2")
        # (x + th1 th2)(x - th1 th2) = x^2 (cross terms cancel, u^2 = 0)
        assert (x + u) * (x - u) == raw(t, [({"x": 2}, (), 0, 1)])

    def test_laurent_cancellation(self):
        t = table()
        l = t.var("l")
        linv = substitute(t.var("l"), {"l": l}, t)  # identity, sanity
        assert linv == l
        p = raw(t, [({"l": -1}, (), 0, 1)])
        assert l * p == t.one()

    def test_hbar_central_slot(self):
        t = table()
        p = t.hbar() * t.var("th1") * t.hbar()
        assert p == raw(t, [({}, ("th1",), 2, 1)])

    def test_scalar_ops(self):
        t = table()
        p = t.var("x") * Fraction(3, 2)
        assert p == raw(t, [({"x": 1}, (), 0, Fraction(3, 2))])
        assert 2 * p == raw(t, [({"x": 1}, (), 0, 3)])


class TestCoefficients:
    def test_constructors_store_ints(self):
        t = table()
        for p in (t.var("x"), t.var("th1"), t.hbar(), t.one(), t.const(Fraction(4, 2))):
            assert all(type(c) is int for c in p.terms.values())
        assert list(t.const(Fraction(4, 2)).terms.values()) == [2]
        assert list(t.const(Fraction(1, 2)).terms.values()) == [Fraction(1, 2)]

    def test_int_and_integral_fraction_agree(self):
        t = table()
        m = Monomial((1, 0, 0, 0), 0, 0)
        a = GradedPoly(t, {m: 2})
        b = GradedPoly(t, {m: Fraction(2)})
        assert a == b
        assert hash(a) == hash(b)

    def test_constant_value_is_a_fraction(self):
        t = table()
        for p, want in ((t.const(3), 3), (t.var("x"), 0), (t.const(Fraction(1, 2)), Fraction(1, 2))):
            got = p.constant_value()
            assert type(got) is Fraction and got == want

    def test_non_exact_operands_raise_type_error(self):
        t = table()
        p = t.var("x")
        for bad in (0.5, "a", None):
            with pytest.raises(TypeError):
                p * bad
            with pytest.raises(TypeError):
                bad * p


class TestParity:
    def test_even_odd_mixed(self):
        t = table()
        assert parity_of(t.var("x")) == EVEN
        assert parity_of(t.var("th1")) == ODD
        assert parity_of(t.var("th1") * t.var("th2")) == EVEN
        assert parity_of(t.var("x") + t.var("th1")) == "mixed"
        assert parity_of(t.zero()) == EVEN
        assert parity_of(t.hbar()) == EVEN


class TestSubstitute:
    def test_rename_into_other_table(self):
        t = table()
        u = VarTable.build(("z", EVEN), ("th1", ODD), ("th2", ODD))
        p = t.var("x") * t.var("th1") + t.var("th1") * t.var("th2")
        q = substitute(p, {"x": u.var("z"), "th1": u.var("th1"), "th2": u.var("th2")}, u)
        assert q == u.var("z") * u.var("th1") + u.var("th1") * u.var("th2")

    def test_parity_mismatch(self):
        t = table()
        with pytest.raises(ParityMismatch):
            substitute(t.var("x"), {"x": t.var("th1")}, t)

    def test_unmapped_missing_from_target(self):
        t = table()
        u = VarTable.build(("z", EVEN))
        with pytest.raises(KeyError):
            substitute(t.var("x") + t.var("y"), {"x": u.var("z")}, u)

    def test_inverse_monomial(self):
        # l_minus := 1/l_plus pushed through a square
        t = table()
        p = raw(t, [({"l": 2}, (), 0, 1)])
        q = substitute(p, {"l": raw(t, [({"l": -1}, (), 0, 1)])}, t)
        assert q == raw(t, [({"l": -2}, (), 0, 1)])

    def test_shift_by_nilpotent(self):
        # x -> x - a*th1*th2 applied to x^2 gives x^2 - 2*a*x*th1*th2
        t = table()
        p = raw(t, [({"x": 2}, (), 0, 1)])
        shift = t.var("x") - t.var("a") * t.var("th1") * t.var("th2")
        q = substitute(p, {"x": shift}, t)
        assert q == raw(
            t,
            [
                ({"x": 2}, (), 0, 1),
                ({"a": 1, "x": 1}, ("th1", "th2"), 0, -2),
            ],
        )

    def test_unit_with_nilpotent_tail_inverts(self):
        # (2l(1 + th1 th2))^(-1) = (1/2) l^(-1) (1 - th1 th2)
        t = table()
        linv = raw(t, [({"l": -1}, (), 0, 1)])
        repl = t.var("l") * (t.const(2) + 2 * t.var("th1") * t.var("th2"))
        q = substitute(linv, {"l": repl}, t)
        assert q == raw(
            t,
            [
                ({"l": -1}, (), 0, Fraction(1, 2)),
                ({"l": -1}, ("th1", "th2"), 0, Fraction(-1, 2)),
            ],
        )

    def test_geometric_series_higher_order(self):
        # nu with two odd blocks: (1+nu)^(-2) = 1 - 2 nu + 3 nu^2
        t = table()
        nu = t.var("th1") * t.var("th2") + t.var("th3") * t.var("th4")
        repl = t.var("l") * (t.one() + nu)
        p = raw(t, [({"l": -2}, (), 0, 1)])
        q = substitute(p, {"l": repl}, t)
        nu2 = t.var("th1") * t.var("th2") * t.var("th3") * t.var("th4")
        expected = raw(t, [({"l": -2}, (), 0, 1)]) * (t.one() - 2 * nu + 6 * nu2)
        assert q == expected

    def test_noninvertible_leading_monomial(self):
        t = table()
        p = raw(t, [({"l": -1}, (), 0, 1)])
        with pytest.raises(NonInvertibleSubstitution):
            substitute(p, {"l": t.var("x")}, t)

    def test_two_even_terms_rejected(self):
        t = table()
        p = raw(t, [({"l": -1}, (), 0, 1)])
        with pytest.raises(NonInvertibleSubstitution):
            substitute(p, {"l": t.var("l") + t.var("l") * t.var("l")}, t)

    def test_hbar_monomial_rejected(self):
        t = table()
        p = raw(t, [({"l": -1}, (), 0, 1)])
        with pytest.raises(NonInvertibleSubstitution):
            substitute(p, {"l": t.hbar() * t.var("l")}, t)

    def test_positive_powers_never_need_inverse(self):
        t = table()
        p = raw(t, [({"l": 2}, (), 0, 1)])
        q = substitute(p, {"l": t.var("x")}, t)
        assert q == raw(t, [({"x": 2}, (), 0, 1)])


def monomials(t):
    exps = st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4)
    masks = st.integers(min_value=0, max_value=15)
    return st.builds(
        lambda e, m, h: Monomial(tuple(e), m, h),
        exps,
        masks,
        st.integers(min_value=0, max_value=1),
    )


def polys(t):
    coeffs = st.integers(min_value=-3, max_value=3)
    pairs = st.lists(st.tuples(monomials(t), coeffs), min_size=0, max_size=3)
    return st.builds(
        lambda ps: GradedPoly(t, dict((m, Fraction(c)) for m, c in ps)), pairs
    )


T = table()


class TestAlgebraLaws:
    @settings(max_examples=60, deadline=None)
    @given(polys(T), polys(T), polys(T))
    def test_associativity_law(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(polys(T), polys(T), polys(T))
    def test_distributivity_law(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(monomials(T), monomials(T))
    def test_supercommutativity_law(self, m, n):
        a = GradedPoly(T, {m: Fraction(1)})
        b = GradedPoly(T, {n: Fraction(1)})
        sign = -1 if (m.parity() and n.parity()) else 1
        assert a * b == (b * a).scale(sign)

    @settings(max_examples=40, deadline=None)
    @given(polys(T))
    def test_substitution_composes(self, p):
        u = VarTable.build(
            ("x", EVEN),
            ("y", EVEN),
            ("l", EVEN, True),
            ("a", EVEN),
            ("s1", ODD),
            ("s2", ODD),
            ("s3", ODD),
            ("s4", ODD),
        )
        first = {f"th{i}": u.var(f"s{i}") for i in (1, 2, 3, 4)}
        back = {f"s{i}": T.var(f"th{i}") for i in (1, 2, 3, 4)}
        assert substitute(substitute(p, first, u), back, T) == p
