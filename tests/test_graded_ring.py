from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_oracle import as_dict, mono_d_left, poly_mul
from supermoyal.graded_calculus import d_left, d_right
from supermoyal.graded_ring import (
    EVEN,
    EXPONENT_LIMIT,
    ODD,
    ExponentOverflow,
    GradedPoly,
    Monomial,
    NonInvertibleSubstitution,
    ParityMismatch,
    SubstitutionPlan,
    VarTable,
    substitute,
)
from supermoyal.moyal import StarEngine
from supermoyal.poisson import SuperBivector


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

    def test_bad_parity_rejected(self):
        with pytest.raises(ValueError, match="^bad parity 'bosonic' for 'x'$"):
            VarTable.build(("x", "bosonic"))

    def test_operands_over_different_tables(self):
        t, other = table(), VarTable.build(("x", EVEN))
        assert (t.var("x") == other.var("x")) is False
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(ValueError, match="^polynomials over different variable tables$"):
                op(t.var("x"), other.var("x"))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="^negative powers only arise through substitution$"):
            table().var("x") ** -1

    def test_an_odd_variable_carries_power_zero_or_one(self):
        # its zero power is the unit, as every other variable's is
        t = table()
        assert t.var("th1", 0) == t.var("x", 0) == t.one()
        for power in (2, -1):
            with pytest.raises(ValueError, match="^odd variable 'th1' only carries power 1$"):
                t.var("th1", power)

    def test_zero_terms_dropped(self):
        t = table()
        p = t.var("x") - t.var("x")
        assert p.is_zero()
        assert p == t.zero()
        assert repr(p) == "GradedPoly(0)"

    def test_equality_with_a_non_polynomial_is_false(self):
        p, other = table().var("x"), object()
        assert p.__eq__(other) is NotImplemented
        assert (p == other) is False and p != other

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

    def test_public_constructor_takes_exact_coefficients_only(self):
        t = table()
        m = Monomial((1, 0, 0, 0), 0, 0)
        assert type(GradedPoly(t, {m: Fraction(4, 2)}).terms[m]) is int
        with pytest.raises(TypeError):
            GradedPoly(t, {m: 0.5})
        with pytest.raises(TypeError):
            GradedPoly(t, {m: 1, Monomial((0, 0, 0, 0), 0, 0): 2.0})

    def test_a_fraction_subclass_is_stored_as_a_plain_number(self):
        # a Rational that is not exactly a Fraction is read through Fraction,
        # so no subclass rides into a stored coefficient
        class Ratio(Fraction):
            pass

        t = table()
        m = Monomial((1, 0, 0, 0), 0, 0)
        for value, want in ((Ratio(1, 2), Fraction(1, 2)), (Ratio(4, 2), 2)):
            for p in (GradedPoly(t, {m: value}), t.const(value), t.var("x").scale(value)):
                (c,) = p.terms.values()
                assert c == want and type(c) is type(want)

    def test_sums_and_products_store_ints_where_integral(self):
        t = VarTable.build(("x", EVEN))
        half = Fraction(1, 2)
        for p in (
            t.const(half) + t.const(half),
            t.var("x").scale(half) * t.const(2),
            t.const(2) * t.var("x").scale(half),
            t.var("x").scale(half) * t.var("x").scale(Fraction(2, 3)) * t.const(3),
            t.const(Fraction(3, 2)) - t.const(half),
        ):
            assert all(type(c) is int for c in p.terms.values()), p.terms
        assert list((t.var("x").scale(half) * t.const(3)).terms.values()) == [Fraction(3, 2)]

    def test_non_exact_operands_raise_type_error(self):
        t = table()
        p = t.var("x")
        for bad in (0.5, "a", None):
            with pytest.raises(TypeError):
                p * bad
            with pytest.raises(TypeError):
                bad * p

    @pytest.mark.parametrize("call, message", [
        (lambda t, p: p + 1, "unsupported operand type(s) for +: 'GradedPoly' and 'int'"),
        (lambda t, p: p - 1, "unsupported operand type(s) for -: 'GradedPoly' and 'int'"),
        (lambda t, p: p.hbar_coefficient(1.0), "power must be an int, got float"),
        (lambda t, p: p.hbar_coefficient(True), "power must be an int, got bool"),
        (lambda t, p: p.hbar_coefficient("1"), "power must be an int, got str"),
        (lambda t, p: p.hbar_truncate(1.5), "max_power must be an int, got float"),
        (lambda t, p: t.var("x", 2.0), "power must be an int, got float"),
        (lambda t, p: t.hbar(1.0), "power must be an int, got float"),
        (lambda t, p: p ** True, "power must be an int, got bool"),
        (lambda t, p: p ** 2.0, "power must be an int, got float"),
        (lambda t, p: p ** "2", "power must be an int, got str"),
    ], ids=["add", "sub", "hbar_coefficient-float", "hbar_coefficient-bool", "hbar_coefficient-str",
            "hbar_truncate-float", "var-float", "hbar-float", "pow-bool", "pow-float", "pow-str"])
    def test_wrong_typed_arguments_raise_type_error(self, call, message):
        # refused where the value enters: no AttributeError from deep inside,
        # and no float, bool or str read as an hbar power
        t = table()
        p = t.var("x") + t.hbar() * t.var("y")
        with pytest.raises(TypeError) as info:
            call(t, p)
        assert str(info.value) == message

    def test_a_scalar_meets_a_polynomial_only_through_scale_and_multiplication(self):
        # a bool is no coefficient, as it is no int for _check_int; ==, + and -
        # take no scalar, so t.one() == 1 is False rather than a coercion
        t = table()
        x = t.var("x")
        m = Monomial((1, 0, 0, 0), 0, 0)
        for call in (lambda: t.const(True), lambda: x.scale(True), lambda: True * x,
                     lambda: x * False, lambda: GradedPoly(t, {m: True})):
            with pytest.raises(TypeError) as info:
                call()
            assert str(info.value) == "coefficient must be an int, got bool"
        assert x.scale(1) == x and 2 * x == x + x and t.const(1) == t.one()
        for scalar in (0, 1, Fraction(1, 2)):
            assert (t.const(scalar) == scalar) is False and t.const(scalar) != scalar
            assert t.const(scalar).__eq__(scalar) is NotImplemented
        for call in (lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: 1 - x,
                     lambda: x + Fraction(1, 2), lambda: x - True):
            with pytest.raises(TypeError, match="unsupported operand"):
                call()

    def test_strings_and_other_non_numbers_are_not_coefficients(self):
        t = table()
        m = Monomial((1, 0, 0, 0), 0, 0)
        for bad in ("1/2", "3", None, object()):
            with pytest.raises(TypeError):
                t.const(bad)
            with pytest.raises(TypeError):
                t.var("x").scale(bad)
            with pytest.raises(TypeError):
                GradedPoly(t, {m: bad})


def packed(t, num):
    """A term map keyed by ``Monomial``, keyed by packed ints for ``_of_scaled``."""
    return {t._pack(m): c for m, c in num.items()}


class TestIntForm:
    """The int form (numerators over one denominator) and the coefficient view."""

    M = Monomial((1, 0, 0, 0), 0, 0)
    N = Monomial((0, 2, 0, 0), 0b11, 1)

    @pytest.mark.parametrize("terms, num, den", [
        ({M: 2}, {M: 2}, 1),
        ({M: Fraction(2)}, {M: 2}, 1),
        ({M: 2}, {M: 4}, 2),
        ({M: Fraction(-1, 2), N: Fraction(3, 4)}, {M: -2, N: 3}, 4),
        ({M: Fraction(-1, 3), N: -2}, {M: -5, N: -30}, 15),
        ({}, {}, 1),
        ({}, {}, 7),
    ])
    def test_both_constructors_agree(self, terms, num, den):
        t = table()
        from_view = GradedPoly(t, terms)
        scaled = GradedPoly._of_scaled(t, packed(t, num), den)
        assert from_view == scaled and hash(from_view) == hash(scaled)
        assert scaled.terms == from_view.terms
        assert (from_view._num, from_view._den) == (scaled._num, scaled._den)
        assert {from_view: "view"}[scaled] == "view"
        assert len({from_view, scaled}) == 1
        assert scaled.is_zero() == (not terms)

    def test_int_form_is_canonical(self):
        t = table()
        p = GradedPoly._of_scaled(t, packed(t, {self.M: 4, self.N: -6}), 8)
        assert (p.terms, p._den) == ({self.M: Fraction(1, 2), self.N: Fraction(-3, 4)}, 4)
        p = GradedPoly(t, {self.M: Fraction(2, 6)})
        assert (p.terms, p._den) == ({self.M: Fraction(1, 3)}, 3)

    def test_different_values_differ(self):
        t = table()
        a = GradedPoly._of_scaled(t, packed(t, {self.M: 1}), 2)
        others = (
            GradedPoly._of_scaled(t, packed(t, {self.M: 1}), 3),
            GradedPoly(t, {self.M: -Fraction(1, 2)}),
            GradedPoly(t, {self.N: Fraction(1, 2)}),
            t.zero(),
        )
        for b in others:
            assert a != b

    def test_view_of_a_star_result_is_int_where_integral(self):
        t = VarTable.build(("x", EVEN), ("y", EVEN))
        eng = StarEngine(SuperBivector(t, {("x", "y"): t.const(Fraction(1, 2))}))
        # x^2 * y^2 = x^2 y^2 + hbar x y + hbar^2/8 with the entry 1/2
        got = eng.star(t.var("x", 2), t.var("y", 2))
        want = t.var("x", 2) * t.var("y", 2) + t.hbar() * t.var("x") * t.var("y")
        assert got == want + t.hbar(2).scale(Fraction(1, 8))
        for c in got.terms.values():
            assert type(c) is (int if c.denominator == 1 else Fraction)


class TestParity:
    def test_even_odd_mixed(self):
        t = table()
        assert t.var("x").parity() == EVEN
        assert t.var("th1").parity() == ODD
        assert (t.var("th1") * t.var("th2")).parity() == EVEN
        assert (t.var("x") + t.var("th1")).parity() == "mixed"
        assert t.zero().parity() == EVEN
        assert t.hbar().parity() == EVEN


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

    def test_replacement_that_is_not_a_polynomial(self):
        t = table()
        with pytest.raises(TypeError, match="^replacement for 'x' must be a GradedPoly, got int$"):
            substitute(t.var("x"), {"x": 2}, t)
        # the name is checked first
        with pytest.raises(KeyError, match="unknown variable 'nope'"):
            substitute(t.var("x"), {"nope": 2}, t)

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


def _kept_plan():
    """A plan from ``table()`` that keeps x, y, a, th1, th2 and th4 by name and
    maps l and th3; the target orders them differently, makes a invertible
    and x not, and has a variable m of its own."""
    src = table()
    dst = VarTable.build(
        ("a", EVEN, True), ("m", EVEN, True), ("y", EVEN), ("x", EVEN),
        ("th4", ODD), ("th2", ODD), ("th1", ODD),
    )
    m, th1, th2, th4 = (dst.var(n) for n in ("m", "th1", "th2", "th4"))
    mapping = {
        "l": m.scale(2) * (dst.one() + th1 * th2),
        "th3": m * th4 + dst.var("y") * th1 * th2 * th4,
    }
    return src, dst, mapping


def _outcome(compute):
    """A polynomial, or the message of the NonInvertibleSubstitution it raised."""
    try:
        return compute()
    except NonInvertibleSubstitution as err:
        return str(err)


@st.composite
def kept_terms(draw):
    """Terms over ``table()`` mixing kept and mapped factors, exponents -3..3."""
    t = table()
    even = tuple(draw(st.integers(-3, 3)) for _ in t.even_names())
    odd = draw(st.just(0) | st.integers(0, 15))  # a term with no odd factor is often all kept
    return Monomial(even, odd, draw(st.integers(0, 2))), draw(
        st.sampled_from((1, -2, Fraction(3, 4)))
    )


class TestKeptVariables:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(kept_terms(), min_size=1, max_size=3))
    def test_apply_is_the_product_of_var_power_images(self, terms):
        src, dst, mapping = _kept_plan()
        plan, reference = SubstitutionPlan(src, mapping, dst), SubstitutionPlan(src, mapping, dst)

        def image(m, c):
            out = dst.hbar(m.hbar).scale(c)
            for name, e in zip(src.even_names(), m.even):
                if e:
                    out = out * reference.var_power(name, e)
            for name in src.odd_names():
                if m.odd >> src.odd_bit(name) & 1:
                    out = out * reference.var_power(name, 1)
            return out

        images = [_outcome(lambda: image(m, c)) for m, c in terms]
        for (m, c), want in zip(terms, images):
            assert _outcome(lambda: plan.apply(GradedPoly(src, {m: c}))) == want
        # the terms whose images exist, summed in one call
        kept = [t for t, i in zip(terms, images) if isinstance(i, GradedPoly)]
        poly = GradedPoly(src, dict(kept))
        want = dst.zero()
        for m, c in poly.terms.items():
            want = want + image(m, c)
        assert plan.apply(poly) == want

    def test_a_kept_variable_the_target_cannot_invert(self):
        src, dst, mapping = _kept_plan()
        plan = SubstitutionPlan(src, mapping, dst)
        x_inv = raw(src, [({"x": -1, "a": -2}, ("th1",), 0, 1)])
        with pytest.raises(NonInvertibleSubstitution) as info:
            plan.apply(x_inv)
        assert str(info.value) == "'x' is not invertible in the target table"
        # a is invertible in the target, though not in the source
        got = plan.apply(raw(src, [({"a": -2, "y": 3}, ("th1",), 1, 1)]))
        assert got == dst.hbar() * dst.var("a", -2) * dst.var("y", 3) * dst.var("th1")

    def test_a_kept_term_after_a_fractional_image(self):
        # l^-1 has the image (1/2) m^-1 (1 - th1 th2), so the sum has a
        # denominator before the all-kept term y^2 joins it
        src, dst, mapping = _kept_plan()
        p = raw(src, [({"l": -1}, (), 0, 1), ({"y": 2}, (), 0, 3)])
        l_inv = substitute(raw(src, [({"l": -1}, (), 0, 1)]), mapping, dst)
        want = l_inv + dst.var("y", 2).scale(3)
        assert SubstitutionPlan(src, mapping, dst).apply(p) == want


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


# -- the int form against plain Fraction dicts --------------------------------
#
# The oracle keeps a polynomial as {Monomial: Fraction} with no zero value and
# shares no arithmetic with the package: signs, derivatives and products are
# worked out again below.


def rational_polys(t):
    exps = st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2), st.integers(0, 2)
    )  # x, y, l (invertible), a
    monos = st.builds(
        lambda e, m, h: Monomial(e, m, h), exps, st.integers(0, 15), st.integers(0, 2)
    )
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    return st.dictionaries(monos, coeffs, max_size=4).map(
        lambda d: {m: c for m, c in d.items() if c}
    )


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _oracle_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _oracle_scale(a, q):
    return {m: c * q for m, c in a.items() if c * q}


def _oracle_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma.odd & mb.odd:
                continue
            swaps = sum(1 for i in _bits(ma.odd) for j in _bits(mb.odd) if i > j)
            even = tuple(x + y for x, y in zip(ma.even, mb.even))
            m = Monomial(even, ma.odd | mb.odd, ma.hbar + mb.hbar)
            out[m] = out.get(m, 0) + (-1) ** swaps * ca * cb
    return {m: c for m, c in out.items() if c}


def _oracle_d(a, t, name, left):
    out = {}
    for m, c in a.items():
        if t.parity(name) == EVEN:
            slot = t.even_slot(name)
            e = m.even[slot]
            if e:
                even = m.even[:slot] + (e - 1,) + m.even[slot + 1 :]
                out[Monomial(even, m.odd, m.hbar)] = e * c
        else:
            bit = t.odd_bit(name)
            if m.odd >> bit & 1:
                passed = [i for i in _bits(m.odd) if (i < bit if left else i > bit)]
                out[Monomial(m.even, m.odd ^ 1 << bit, m.hbar)] = (-1) ** len(passed) * c
    return out


def assert_int_form(p, want):
    """p is canonical, its view is ``want``, and == and hash agree with the view."""
    num, den = p._num, p._den
    assert all(type(m) is int for m in num)
    assert den > 0
    assert gcd(den, *num.values()) == 1
    assert all(type(c) is int and c != 0 for c in num.values())
    assert p.terms == want
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in p.terms.values())
    rebuilt = GradedPoly(p.table, p.terms)
    assert p == rebuilt and hash(p) == hash(rebuilt)


class TestIntFormOracle:
    @settings(max_examples=80, deadline=None)
    @given(rational_polys(T), rational_polys(T), st.fractions(max_denominator=12))
    def test_ring_operations(self, a, b, q):
        pa, pb = GradedPoly(T, a), GradedPoly(T, b)
        assert_int_form(pa, a)
        assert_int_form(pa + pb, _oracle_add(a, b))
        assert_int_form(pa - pb, _oracle_add(a, _oracle_scale(b, -1)))
        assert_int_form(-pa, _oracle_scale(a, -1))
        assert_int_form(pa.scale(q), _oracle_scale(a, q))
        assert_int_form(pa * pb, _oracle_mul(a, b))
        assert_int_form(pa - pa, {})

    @settings(max_examples=60, deadline=None)
    @given(rational_polys(T), st.sampled_from(T.names()))
    def test_derivatives(self, a, name):
        p = GradedPoly(T, a)
        assert_int_form(d_left(name, p), _oracle_d(a, T, name, True))
        assert_int_form(d_right(name, p), _oracle_d(a, T, name, False))

    @settings(max_examples=60, deadline=None)
    @given(rational_polys(T), st.integers(0, 2))
    def test_hbar_parts(self, a, k):
        p = GradedPoly(T, a)
        at_k = {Monomial(m.even, m.odd, 0): c for m, c in a.items() if m.hbar == k}
        assert_int_form(p.hbar_coefficient(k), at_k)
        assert_int_form(p.hbar_truncate(k), {m: c for m, c in a.items() if m.hbar <= k})


# -- the packed form at the edge of its fields, against tests/dict_oracle.py ---

L = EXPONENT_LIMIT
TB = VarTable.build(
    ("x", EVEN), ("l", EVEN, True), ("m", EVEN, True), ("th1", ODD), ("th2", ODD)
)


def boundary_polys():
    """Term maps with exponents at the field boundary, Laurent exponents on the
    invertible l and m, odd factors and hbar."""
    exps = st.tuples(
        st.sampled_from([0, 1, 2, L - 2, L - 1]),
        st.sampled_from([-L, -(L - 1), -2, -1, 0, 1, L - 1]),
        st.sampled_from([-(L - 1), -1, 0, 2, L - 1]),
    )
    monos = st.builds(Monomial, exps, st.integers(0, 3), st.integers(0, 2))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.dictionaries(monos, coeffs, max_size=4).map(
        lambda d: {m: c for m, c in d.items() if c}
    )


def _in_range(even):
    return all(-L <= e < L for e in even)


class TestPackedBoundary:
    @settings(max_examples=80, deadline=None)
    @given(boundary_polys())
    def test_factor_bits_name_each_variable_that_divides(self, a):
        # one bit per variable, set exactly when the support test finds it,
        # at every exponent of the field and with hbar above the fields
        for m in GradedPoly(TB, a)._num:
            bits = TB._factor_bits(m)
            for name in TB.names():
                mask, unit = TB._support(name)
                bit = mask & (TB._guard | TB._odd)
                assert bit.bit_count() == 1
                assert bool(bits & bit) == (m & mask != unit), name
                bits &= ~bit
            assert bits == 0

    @settings(max_examples=80, deadline=None)
    @given(boundary_polys())
    def test_the_view_round_trips(self, a):
        p = GradedPoly(TB, a)
        assert as_dict(p) == a
        assert GradedPoly(TB, p.terms) == p

    @settings(max_examples=80, deadline=None)
    @given(boundary_polys(), boundary_polys())
    def test_sums_and_products_are_exact_or_refused(self, a, b):
        pa, pb = GradedPoly(TB, a), GradedPoly(TB, b)
        assert as_dict(pa + pb) == _oracle_add(a, b)
        # the ring forms the product of every pair without a common odd factor
        past = any(
            not _in_range([x + y for x, y in zip(ma.even, mb.even)])
            for ma in a for mb in b if not ma.odd & mb.odd
        )
        if past:
            with pytest.raises(ExponentOverflow):
                pa * pb
        else:
            assert as_dict(pa * pb) == poly_mul(as_dict(pa), as_dict(pb))

    @settings(max_examples=80, deadline=None)
    @given(boundary_polys(), st.sampled_from(TB.names()))
    def test_left_derivatives_are_exact_or_refused(self, a, name):
        p = GradedPoly(TB, a)
        if TB.parity(name) == ODD:
            key = ("odd", TB.odd_bit(name))
        else:
            key = ("even", TB.even_slot(name))
            if any(m.even[key[1]] == -L for m in a):  # -L - 1 is past the limit
                with pytest.raises(ExponentOverflow):
                    d_left(name, p)
                return
        want = {}
        for m, c in as_dict(p).items():
            got = mono_d_left(key, m)
            if got is not None:
                want[got[1]] = got[0] * c
        assert as_dict(d_left(name, p)) == want

    def test_every_field_write_checks_the_limit(self):
        t = TB
        assert t.var("x", L - 1).terms == {Monomial((L - 1, 0, 0), 0, 0): 1}
        assert t.var("l", -L).terms == {Monomial((0, -L, 0), 0, 0): 1}
        for name, e in (("x", L), ("l", -L - 1), ("x", 100_000_000_000)):
            with pytest.raises(ExponentOverflow) as info:
                t.var(name, e)
            assert f"exponent {e} of {name!r}" in str(info.value)
            assert f"-{L} <= e < {L}" in str(info.value)
        with pytest.raises(ExponentOverflow):
            GradedPoly(t, {Monomial((0, 0, L), 0, 0): 1})
        for a, b in (
            (t.var("x", L - 1), t.var("x")),
            (t.var("l", -L), t.var("l", -1)),
            (t.var("m", L - 1) * t.var("th1"), t.var("m", 1) * t.var("th2") + t.one()),
        ):
            with pytest.raises(ExponentOverflow):
                a * b
        assert t.var("l", L - 1) * t.var("l", -L) == t.var("l", -1)
        with pytest.raises(ExponentOverflow):
            d_left("l", t.var("l", -L))
        # l^-L through l -> l^-1 needs l^L; l -> l^-L needs the inverse l^L
        with pytest.raises(ExponentOverflow):
            substitute(t.var("l", -L), {"l": t.var("l", -1)}, t)
        with pytest.raises(ExponentOverflow):
            substitute(t.var("l", -1), {"l": t.var("l", -L)}, t)
        # hbar sits above every field, so its power has no limit
        big = 100_000_000_000
        assert (t.hbar(big) * t.hbar(big)).terms == {Monomial((0, 0, 0), 0, 2 * big): 1}

    def test_a_monomial_must_fit_its_table(self):
        # three even slots and two odd bits: a fourth slot or a third bit
        # would overlap the next field
        for m in (Monomial((0, 0), 0, 0), Monomial((0, 0, 0, 0), 0, 0),
                  Monomial((0, 0, 0), 0b100, 0), Monomial((0, 0, 0), -1, 0)):
            with pytest.raises(ValueError):
                GradedPoly(TB, {m: 1})

    def test_hbar_powers_are_non_negative(self):
        # as VarTable.hbar refuses them: a negative power renders as text
        # that parse_expression refuses
        t = VarTable.build(("x", EVEN))
        with pytest.raises(ValueError, match="hbar powers are non-negative"):
            t.hbar(-1)
        with pytest.raises(ValueError, match="hbar powers are non-negative"):
            GradedPoly(t, {Monomial((1,), 0, -1): 1})
        assert GradedPoly(t, {Monomial((1,), 0, 0): 1}) == t.var("x")

    def test_a_refused_product_leaves_its_neighbours_alone(self):
        # x^(L-1) * x would carry into l's field, and l^-L * l^-1 borrow from
        # x's field: neither may come back as a product of other exponents
        t = TB
        for a, b in (
            (t.var("x", L - 1) * t.var("l", 5), t.var("x") * t.var("m", -3)),
            (t.var("x", 2) * t.var("l", -L), t.var("l", -1)),
        ):
            with pytest.raises(ExponentOverflow):
                a * b
