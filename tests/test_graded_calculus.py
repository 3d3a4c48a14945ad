from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidiff_oracle import bidiff_apply

from supermoyal.graded_calculus import d_left, d_right
from supermoyal.graded_ring import EVEN, ODD, GradedPoly, Monomial, VarTable


def table():
    return VarTable.build(
        ("x", EVEN),
        ("y", EVEN),
        ("l", EVEN, True),
        ("th1", ODD),
        ("th2", ODD),
        ("th3", ODD),
    )


class TestOddDerivatives:
    def test_single_factor(self):
        t = table()
        assert d_left("th1", t.var("th1")) == t.one()
        assert d_right("th1", t.var("th1")) == t.one()

    def test_left_skips_earlier_factors(self):
        t = table()
        p = t.var("th1") * t.var("th2")
        assert d_left("th1", p) == t.var("th2")
        assert d_left("th2", p) == -t.var("th1")

    def test_right_counts_from_the_end(self):
        t = table()
        p = t.var("th1") * t.var("th2")
        assert d_right("th2", p) == t.var("th1")
        assert d_right("th1", p) == -t.var("th2")

    def test_absent_factor_kills_term(self):
        t = table()
        assert d_left("th3", t.var("th1") * t.var("th2")).is_zero()

    def test_three_factors(self):
        t = table()
        p = t.var("th1") * t.var("th2") * t.var("th3")
        assert d_left("th2", p) == -t.var("th1") * t.var("th3")
        assert d_right("th2", p) == -t.var("th1") * t.var("th3")
        assert d_left("th3", p) == t.var("th1") * t.var("th2")
        assert d_right("th1", p) == t.var("th2") * t.var("th3")

    def test_nilpotent(self):
        t = table()
        p = (t.one() + t.var("th1")) * (t.var("x") + t.var("th2") * t.var("th3"))
        assert d_left("th1", d_left("th1", p)).is_zero()

    def test_left_right_relation(self):
        # d_right(v, a) = (-1)^(|a|+1) d_left(v, a) on homogeneous a
        t = table()
        samples = [
            t.var("th1"),
            t.var("th1") * t.var("th2"),
            t.var("x") * t.var("th2"),
            t.var("th1") * t.var("th2") * t.var("th3"),
        ]
        for a in samples:
            n = 1 if a.parity() == ODD else 0
            for v in ("th1", "th2", "th3"):
                assert d_right(v, a) == d_left(v, a).scale((-1) ** (n + 1))


class TestEvenDerivatives:
    def test_power_rule(self):
        t = table()
        x = t.var("x")
        assert d_left("x", x * x) == 2 * x
        assert d_left("x", t.one()).is_zero()

    def test_laurent_rule(self):
        t = table()
        linv = GradedPoly(t, {Monomial((0, 0, -1), 0, 0): Fraction(1)})
        expect = GradedPoly(t, {Monomial((0, 0, -2), 0, 0): Fraction(-1)})
        assert d_left("l", linv) == expect
        assert d_right("l", linv) == expect

    def test_even_left_equals_right(self):
        t = table()
        p = t.var("x") * t.var("y") * t.var("th1") + t.var("x") ** 3
        assert d_left("y", p) == d_right("y", p)


class TestLeibniz:
    def test_odd_variable_graded_rule(self):
        t = table()
        cases = [
            (t.var("th1"), t.var("th2") * t.var("th3")),
            (t.var("th2") * t.var("th3"), t.var("th1")),
            (t.var("x") * t.var("th2"), t.var("th1") * t.var("th3")),
        ]
        for a, b in cases:
            n = 1 if a.parity() == ODD else 0
            for v in ("th1", "th2", "th3"):
                lhs = d_left(v, a * b)
                rhs = d_left(v, a) * b + (a * d_left(v, b)).scale((-1) ** n)
                assert lhs == rhs

    def test_even_variable_plain_rule(self):
        t = table()
        a = t.var("x") * t.var("th1")
        b = t.var("x") + t.var("y")
        assert d_left("x", a * b) == d_left("x", a) * b + a * d_left("x", b)


class TestBidiffApply:
    def test_odd_odd_diagonal(self):
        t = table()
        w = t.var("x")  # stands in for a central entry
        s1, s2, sign = bidiff_apply(w, "th1", "th2", t.var("th1"), t.var("th2"))
        assert s1 == t.one()
        assert s2 == t.one()
        assert sign == 1

    def test_even_even(self):
        t = table()
        s1, s2, sign = bidiff_apply(t.one(), "x", "y", t.var("x"), t.var("y"))
        assert s1 == t.one()
        assert s2 == t.one()
        assert sign == 1

    def test_right_slot_keeps_trailing_sign(self):
        t = table()
        f = t.var("th1") * t.var("th2")
        s1, s2, sign = bidiff_apply(t.one(), "th1", "th2", f, t.var("th2"))
        assert s1 == -t.var("th2")
        assert s2 == t.one()
        assert sign == 1

    def test_mixed_first_slot_rejected(self):
        t = table()
        with pytest.raises(ValueError):
            bidiff_apply(t.one(), "x", "y", t.var("x") + t.var("th1"), t.var("y"))


def small_polys(t):
    names = t.names()
    picks = st.lists(st.sampled_from(names), min_size=0, max_size=3)
    coeff = st.integers(min_value=-2, max_value=2).filter(lambda c: c != 0)

    def build(rows):
        out = t.zero()
        for names_row, c in rows:
            term = t.const(c)
            for n in names_row:
                term = term * t.var(n)
            out = out + term
        return out

    return st.builds(build, st.lists(st.tuples(picks, coeff), min_size=0, max_size=3))


T = table()


class TestDerivativeLaws:
    @settings(max_examples=60, deadline=None)
    @given(small_polys(T))
    def test_odd_second_derivative_vanishes(self, p):
        for v in ("th1", "th2", "th3"):
            assert d_left(v, d_left(v, p)).is_zero()
            assert d_right(v, d_right(v, p)).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(small_polys(T))
    def test_left_derivatives_anticommute(self, p):
        a = d_left("th1", d_left("th2", p))
        b = d_left("th2", d_left("th1", p))
        assert a == -b

    @settings(max_examples=60, deadline=None)
    @given(small_polys(T))
    def test_even_derivatives_commute(self, p):
        assert d_left("x", d_left("y", p)) == d_left("y", d_left("x", p))


def _word_derivative(v, p, left):
    """Derivative from the factor word: even partials, or delete one odd factor.

    Each odd monomial is read as its ordered list of odd names; the sign is
    (-1) to the number of odd factors the derivative moves past, counted
    from the left end or from the right end of the word.
    """
    t = p.table
    out = t.zero()
    for m, c in p.terms.items():
        exps, odds = t.monomial_factors(m)
        term = t.const(c) * t.hbar(m.hbar)
        if t.parity(v) == EVEN:
            if v not in exps:
                continue
            term = term.scale(exps[v])
            exps = dict(exps, **{v: exps[v] - 1})
        else:
            if v not in odds:
                continue
            k = odds.index(v)
            passed = k if left else len(odds) - 1 - k
            term = term.scale((-1) ** passed)
            odds = odds[:k] + odds[k + 1:]
        for name, e in exps.items():
            if e:
                term = term * t.var(name, e)
        for name in odds:
            term = term * t.var(name)
        out = out + term
    return out


class TestMultiTermDerivatives:
    @settings(max_examples=60, deadline=None)
    @given(small_polys(T))
    def test_match_the_factor_word(self, p):
        for v in T.names():
            assert d_left(v, p) == _word_derivative(v, p, left=True)
            assert d_right(v, p) == _word_derivative(v, p, left=False)

    def test_terms_that_meet_after_differentiation_stay_apart(self):
        # x*th1 and th1 both lose th1, but x*th1 -> x and th1 -> 1 differ;
        # x^2 and x*y under d/dx give 2x and y, again distinct monomials
        t = table()
        x, y, th1, th2 = t.var("x"), t.var("y"), t.var("th1"), t.var("th2")
        p = x * th1 + th1 - th2 * th1 + x * x + x * y + t.var("l", -1) * x
        assert d_left("th1", p) == x + t.one() + th2
        assert d_right("th1", p) == x + t.one() - th2
        assert d_left("x", p) == th1 + x.scale(2) + y + t.var("l", -1)

    def test_bidifferential_oracle_on_multi_term_slots(self):
        t = table()
        f = t.var("th1") * t.var("th2") + t.var("x") * t.var("th2") * t.var("th3")
        g = t.var("th2") * t.var("y") + t.var("th2") * t.var("th1") - t.var("th3")
        s1, s2, sign = bidiff_apply(t.one(), "th2", "th2", f, g)
        assert s1 == _word_derivative("th2", f, left=False)
        assert s2 == _word_derivative("th2", g, left=True)
        assert s1 == t.var("th1") - t.var("x") * t.var("th3")
        # th2*th1 is stored as -th1*th2, whose left derivative passes th1
        assert s2 == t.var("y") + t.var("th1")
        # (-1)^(|B|(|f|+|A|) + |A|(|f|+1)) with |f| = 0 and |A| = |B| = 1
        assert sign == 1
