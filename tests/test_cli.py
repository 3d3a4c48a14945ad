"""Expression syntax, canonical rendering, model files, and the driver."""

import dataclasses
import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermoyal.cli import (
    _COMMANDS,
    MAX_BASE_POWER,
    MAX_NESTING,
    MAX_PARSED_TERMS,
    IllegalDivision,
    ModelFormatError,
    ParseError,
    UnknownIdentifier,
    load_model,
    main,
    parse_expression,
    parse_model_text,
    render_model_text,
    render_poly,
    run,
    save_model,
)
from supermoyal.graded_ring import EVEN, EXPONENT_LIMIT, ODD, GradedPoly, Monomial, VarTable
from supermoyal.models import (
    MAX_P3N_ODD, CYWeights, ModelSpec, builtin, list_builtins, verify_model,
)
from supermoyal.moyal import MAX_ORDER, TruncationExceeded
from supermoyal.poisson import SuperBivector


_ROOT = Path(__file__).resolve().parent.parent


def _regen_script():
    spec = importlib.util.spec_from_file_location(
        "regen_models", _ROOT / "scripts" / "regen_models.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table():
    return VarTable.build(
        ("w", EVEN), ("l", EVEN, True), ("th1", ODD), ("th2", ODD)
    )


# An expression tree is drawn as (text, precedence, value): its text, the
# binding of its outermost operator (0 a sum, 1 a product, 2 an atom or a
# power) and the polynomial the tree evaluates to under the ring operations.
_SUM, _PRODUCT, _ATOM = 0, 1, 2


def _operand(node, least):
    """A node's text, parenthesised where its operator binds looser than ``least``."""
    text, prec, _ = node
    return text if prec >= least else f"({text})"


def _leaves(t):
    """Literals, hbar powers and variable powers over ``t``."""
    def var(name, power):
        text = name if power is None else f"{name}^{power}"
        return text, _ATOM, t.var(name, 1 if power is None else power)

    def power(name):
        spec = t.spec(name)
        if spec.parity == ODD:
            return st.sampled_from([None, 1])
        low = -3 if spec.invertible else 0
        return st.one_of(st.none(), st.integers(min_value=low, max_value=4))

    names = st.sampled_from(t.names())
    return st.one_of(
        st.integers(min_value=0, max_value=12).map(lambda n: (str(n), _ATOM, t.const(n))),
        st.just(("hbar", _ATOM, t.hbar())),
        st.integers(min_value=0, max_value=3).map(lambda k: (f"hbar^{k}", _ATOM, t.hbar(k))),
        names.flatmap(lambda n: power(n).map(lambda e: var(n, e))),
    )


def _divisors(t):
    """(text, inverse) of a non-zero constant, or of a constant times a power
    of an invertible variable."""
    constants = st.integers(min_value=1, max_value=9).map(
        lambda n: (str(n), t.one().scale(Fraction(1, n)))
    )
    units = [s.name for s in t.specs if s.invertible]
    if not units:
        return constants

    def unit(c, name, e):
        text = f"{name}^{e}" if c == 1 else f"({c}*{name}^{e})"
        return text, t.var(name, -e).scale(Fraction(1, c))

    return st.one_of(constants, st.builds(
        unit,
        st.integers(min_value=1, max_value=4),
        st.sampled_from(units),
        st.integers(min_value=-2, max_value=3),
    ))


def _trees(t):
    def extend(sub):
        def add(a, b, op):
            value = a[2] + b[2] if op == "+" else a[2] - b[2]
            return f"{a[0]} {op} {_operand(b, _PRODUCT)}", _SUM, value

        def mul(a, b):
            return f"{_operand(a, _PRODUCT)}*{_operand(b, _ATOM)}", _PRODUCT, a[2] * b[2]

        def neg(a):
            return f"-{_operand(a, _PRODUCT)}", _SUM, -a[2]

        def power(a, n):
            return f"({a[0]})^{n}", _ATOM, a[2] ** n

        def divide(a, d):
            return f"{_operand(a, _PRODUCT)}/{d[0]}", _PRODUCT, a[2] * d[1]

        return st.one_of(
            st.builds(add, sub, sub, st.sampled_from("+-")),
            st.builds(mul, sub, sub),
            st.builds(neg, sub),
            st.builds(power, sub, st.integers(min_value=0, max_value=3)),
            st.builds(divide, sub, _divisors(t)),
        )

    return st.recursive(_leaves(t), extend, max_leaves=8)


# one tree strategy per oracle table, built on its first draw
_TREES: dict = {}


def _oracle_table(name):
    if name == "P3|4 chart plus":  # the one with an invertible variable
        return builtin("P3|4").charts[0].table
    return builtin(name).table


class TestParse:
    @pytest.mark.parametrize("name", ["T0-cotangent", "P3|4", "L5|6", "P3|4 chart plus"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_parse_matches_the_ring_operations(self, name, data):
        t = _oracle_table(name)
        if name not in _TREES:
            _TREES[name] = _trees(t)
        text, _, value = data.draw(_TREES[name])
        assert parse_expression(text, t) == value, text

    def test_literals_and_names(self):
        t = _table()
        assert parse_expression("0", t).is_zero()
        assert parse_expression("7", t) == t.const(7)
        assert parse_expression("w", t) == t.var("w")
        assert parse_expression("hbar", t) == t.hbar()
        assert parse_expression("hbar^3", t) == t.hbar(3)

    def test_precedence_and_parentheses(self):
        t = _table()
        w, l = t.var("w"), t.var("l")
        assert parse_expression("w + 2*l^2", t) == w + (l**2).scale(2)
        assert parse_expression("(w + l)^2", t) == (w + l) ** 2
        assert parse_expression("-w*l + w*l", t).is_zero()
        assert parse_expression("- w", t) == -w
        assert parse_expression("2^3", t) == t.const(8)

    def test_whitespace_is_free(self):
        t = _table()
        assert parse_expression("  w *l^ 2+ 1 ", t) == parse_expression("w*l^2+1", t)

    def test_odd_factors_anticommute(self):
        t = _table()
        a = parse_expression("th1*th2", t)
        assert parse_expression("th2*th1", t) == -a
        assert parse_expression("th1*th1", t).is_zero()

    def test_rational_coefficients(self):
        t = _table()
        w = t.var("w")
        assert parse_expression("1/2*w", t) == w.scale(Fraction(1, 2))
        assert parse_expression("w/2", t) == w.scale(Fraction(1, 2))
        assert parse_expression("3/4", t) == t.const(Fraction(3, 4))

    def test_division_by_invertible_monomial(self):
        t = _table()
        w, l = t.var("w"), t.var("l")
        assert parse_expression("w/l", t) == w * t.var("l", -1)
        assert parse_expression("w/(2*l^2)", t) == (w * t.var("l", -2)).scale(
            Fraction(1, 2)
        )
        assert parse_expression("l^-2", t) == t.var("l", -2)
        # a negative power of a parenthesised base is one over its positive power
        for text, want in (
            ("(l)^-1", t.var("l", -1)),
            ("(2*l)^-1", t.var("l", -1).scale(Fraction(1, 2))),
            ("(l^2)^-1", t.var("l", -2)),
            ("(1/3*l)^-2", t.var("l", -2).scale(9)),
        ):
            assert parse_expression(text, t) == want, text
        for text in ("(l+1)^-1", "(w)^-1", "(hbar)^-1", "(0)^-1"):
            with pytest.raises(IllegalDivision):
                parse_expression(text, t)

    def test_unknown_name(self):
        with pytest.raises(UnknownIdentifier) as info:
            parse_expression("w + bogus", t := _table())
        assert info.value.position == 4

    def test_juxtaposition_is_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_expression("w l", _table())
        assert "operator" in info.value.msg

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_expression("(w + l", _table())

    def test_exponent_must_be_integer(self):
        with pytest.raises(ParseError):
            parse_expression("w^l", _table())

    def test_stray_character(self):
        with pytest.raises(ParseError) as info:
            parse_expression("w $ l", _table())
        assert info.value.position == 2

    def test_illegal_divisions(self):
        t = _table()
        for text in ("w/0", "w/th1", "w/(l + 1)", "w^-1", "hbar^-1", "(w+l)^-1", "2^-1"):
            with pytest.raises(IllegalDivision):
                parse_expression(text, t)

    def test_odd_powers_are_rejected(self):
        with pytest.raises(ParseError, match=r"^odd variable 'th1' only carries power 1 \(column 5\)$"):
            parse_expression("th1^2", _table())

    def test_an_odd_variable_to_the_zero_is_one(self):
        # as (th1)^0, w^0 and hbar^0 are
        t = _table()
        for text in ("th1^0", "(th1)^0", "w^0", "hbar^0"):
            assert parse_expression(text, t) == t.one()

    def test_power_of_a_non_variable_base_is_bounded(self):
        t = _table()
        want = (t.var("w") + t.one()) ** MAX_BASE_POWER
        assert parse_expression(f"(w+1)^{MAX_BASE_POWER}", t) == want
        for text in (f"(w+1)^{MAX_BASE_POWER + 1}", "2^100000000000"):
            with pytest.raises(ParseError) as info:
                parse_expression(text, t)
            assert f"limit {MAX_BASE_POWER}" in info.value.msg
        # variable and hbar powers cost one monomial, whatever the exponent
        assert parse_expression("w^100000", t) == t.var("w", 100000)
        assert parse_expression("hbar^100", t) == t.hbar(100)

    def test_term_growth_is_bounded(self):
        t = builtin("T0-cotangent").table
        six = "(x11+x12+x21+x22+l1+l2)"
        # C(13, 5) = 1287 terms, inside the limit
        assert len(parse_expression(f"{six}^8", t).terms) == 1287
        # every power step is checked before it multiplies, so ^64 fails early
        for text in (f"{six}^64", f"{six}^8 * {six}^8"):
            with pytest.raises(ParseError) as info:
                parse_expression(text, t)
            assert f"limit of {MAX_PARSED_TERMS} terms" in info.value.msg

    def test_product_bound_is_the_smaller_of_pq_and_the_exponent_box(self):
        # 193 and 65 terms, but every term is a power of z1 up to 256
        t = builtin("P3|4").table
        p = parse_expression("(z1+1)^64 * (z1+2)^64 * (z1+3)^64 * (z1+4)^64", t)
        assert len(p.terms) == 257
        assert p == parse_expression("(z1+1)^64 * (z1+2)^64", t) * parse_expression(
            "(z1+3)^64 * (z1+4)^64", t
        )
        # spread terms: C(14, 5) = 2002 terms times 6 is refused at the ninth
        # step, long before (...)^64 would reach C(69, 5) terms
        t = builtin("T0-cotangent").table
        with pytest.raises(ParseError) as info:
            parse_expression("(x11+x12+x21+x22+l1+l2)^64", t)
        assert info.value.msg.startswith("a product of 2002 and 6 terms may reach 12012 terms")

    def test_parenthesis_nesting_is_bounded(self):
        t = _table()
        deep = "(" * MAX_NESTING + "w" + ")" * MAX_NESTING
        assert parse_expression(f"{deep} + {deep}^2", t) == t.var("w") + t.var("w", 2)
        # refused at the parenthesis that opens one level too many
        with pytest.raises(ParseError) as info:
            parse_expression(f"w + ({deep})", t)
        assert info.value.msg == f"parentheses nest deeper than the limit of {MAX_NESTING}"
        assert info.value.position == 4 + MAX_NESTING

    def test_missing_value(self):
        with pytest.raises(ParseError):
            parse_expression("w + * l", _table())
        with pytest.raises(ParseError):
            parse_expression("", _table())


class TestRender:
    def test_basic_forms(self):
        t = _table()
        assert render_poly(t.zero()) == "0"
        assert render_poly(t.const(Fraction(-3, 2))) == "-3/2"
        assert render_poly(t.var("w")) == "w"
        assert render_poly((t.hbar() * t.var("l") * t.var("w")).scale(2)) == "2*hbar*w*l"
        assert render_poly(t.var("l", -2)) == "l^-2"
        assert render_poly(t.var("th1") * t.var("th2")) == "th1*th2"

    def test_int_and_fraction_coefficients_render_alike(self):
        t = _table()
        w = next(iter(t.var("w").terms))
        for value, text in ((2, "2*w"), (-1, "-w"), (Fraction(-3, 2), "-3/2*w")):
            as_int = GradedPoly(t, {w: value})
            as_fraction = GradedPoly(t, {w: Fraction(value)})
            assert render_poly(as_int) == render_poly(as_fraction) == text
            assert repr(as_int) == repr(as_fraction)

    def test_a_fraction_past_the_int_string_limit_renders_both_parts(self, default_int_limit):
        t = _table()
        w = next(iter(t.var("w").terms))
        num, den = -(10 ** 5000 + 7), 3 ** 9000  # 5,001 and 4,294 digits
        text = render_poly(GradedPoly(t, {w: Fraction(num, den)}))
        top, bottom = text[1:-2].split("/")
        assert (text[0], text[-2:]) == ("-", "*w")
        assert (top[0], set(top[1:-1]), top[-1]) == ("1", {"0"}, "7") and len(top) == 5001
        assert _read_digits(top) == -num and _read_digits(bottom) == den

    def test_sign_joins(self):
        t = _table()
        p = t.var("w") - t.var("l").scale(3) - t.const(1)
        assert render_poly(p) == "w - 3*l - 1"
        assert render_poly(-p) == "-w + 3*l + 1"

    def test_degree_major_order(self):
        t = _table()
        p = t.const(1) + t.var("w") + t.var("w") ** 2
        assert render_poly(p) == "w^2 + w + 1"

    # one case per branch of render_poly: the polynomial built from the
    # fixture's w, l (invertible), th1, th2 and hbar, and its pinned text
    @pytest.mark.parametrize("build, text", [
        # zero and bare constants
        (lambda t, w, l, a, b, h: t.zero(), "0"),
        (lambda t, w, l, a, b, h: t.const(7), "7"),
        (lambda t, w, l, a, b, h: t.const(Fraction(-3, 2)), "-3/2"),
        # a negative leading term
        (lambda t, w, l, a, b, h: l - w.scale(2), "-2*w + l"),
        (lambda t, w, l, a, b, h: t.one() - w * l, "-w*l + 1"),
        # hbar and hbar^k
        (lambda t, w, l, a, b, h: h, "hbar"),
        (lambda t, w, l, a, b, h: h * w, "hbar*w"),
        (lambda t, w, l, a, b, h: t.hbar(3).scale(-2), "-2*hbar^3"),
        (lambda t, w, l, a, b, h: t.hbar(2) * a * b, "hbar^2*th1*th2"),
        # Laurent exponents, ordered by the degree they give
        (lambda t, w, l, a, b, h: t.var("l", -2) * w, "w*l^-2"),
        (lambda t, w, l, a, b, h: t.var("l", -1) - t.var("l", -3).scale(Fraction(1, 2)),
         "l^-1 - 1/2*l^-3"),
        (lambda t, w, l, a, b, h: w * w * t.var("l", -5) + w, "w + w^2*l^-5"),
        # each coefficient reduced on its own over the common denominator
        (lambda t, w, l, a, b, h: w.scale(Fraction(1, 2)) + l.scale(Fraction(1, 3)),
         "1/2*w + 1/3*l"),
        (lambda t, w, l, a, b, h: w.scale(Fraction(2, 6)) - t.const(Fraction(4, 6)),
         "1/3*w - 2/3"),
        (lambda t, w, l, a, b, h: w.scale(Fraction(5, 4)) * a, "5/4*w*th1"),
        # odd-only terms
        (lambda t, w, l, a, b, h: a, "th1"),
        (lambda t, w, l, a, b, h: b * a, "-th1*th2"),
        (lambda t, w, l, a, b, h: b - a.scale(3), "-3*th1 + th2"),
        (lambda t, w, l, a, b, h: a * b * h, "hbar*th1*th2"),
        # equal degree and even exponents: the odd mask, then the hbar power
        (lambda t, w, l, a, b, h: w * b + w * a + w * a * b, "w*th1*th2 + w*th1 + w*th2"),
        (lambda t, w, l, a, b, h: a * b + w * a, "w*th1 + th1*th2"),
        (lambda t, w, l, a, b, h: t.hbar(2) * w + h * w + w, "w + hbar*w + hbar^2*w"),
        (lambda t, w, l, a, b, h: h * a + t.hbar(2) * a + a, "th1 + hbar*th1 + hbar^2*th1"),
        (lambda t, w, l, a, b, h: t.hbar(2) * w * a + h * w * b - w * a * b,
         "-w*th1*th2 + hbar^2*w*th1 + hbar*w*th2"),
    ])
    def test_golden_text(self, build, text):
        t = _table()
        p = build(t, t.var("w"), t.var("l"), t.var("th1"), t.var("th2"), t.hbar())
        assert render_poly(p) == text
        assert parse_expression(text, t) == p

    def test_round_trip_samples(self):
        t = _table()
        samples = [
            t.zero(),
            t.const(Fraction(5, 3)),
            t.hbar(2).scale(-7),
            t.var("w") ** 3 - (t.var("l", -2) * t.var("th1")).scale(Fraction(1, 2)),
            (t.var("th1") * t.var("th2") + t.var("w") * t.var("l")).scale(-3),
        ]
        for p in samples:
            assert parse_expression(render_poly(p), t) == p

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=-1, max_value=2),
                st.builds(
                    Fraction,
                    st.integers(min_value=-9, max_value=9).filter(bool),
                    st.integers(min_value=1, max_value=4),
                ),
            ),
            max_size=5,
        )
    )
    def test_round_trip_law(self, raw):
        t = _table()
        terms = {}
        for we, le, odd, hb, coeff in raw:
            mono = Monomial((we, le), odd, hb)
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        terms = {m: c for m, c in terms.items() if c}
        if any(m.hbar < 0 for m in terms):
            # no expression denotes a negative hbar power, so none is built
            with pytest.raises(ValueError, match="hbar powers are non-negative"):
                GradedPoly(t, terms)
            return
        p = GradedPoly(t, terms)
        text = render_poly(p)
        assert repr(p) == f"GradedPoly({text})"
        assert parse_expression(text, t) == p


class TestModelFiles:
    @pytest.mark.parametrize("name", list_builtins())
    def test_round_trip_is_byte_identical(self, name):
        text = render_model_text(builtin(name))
        assert render_model_text(parse_model_text(text, source=name)) == text

    def test_reloaded_model_still_verifies(self):
        text = render_model_text(builtin("P3|4"))
        report = verify_model(parse_model_text(text))
        assert report.ok, report.failures()

    def test_empty_chart_and_transition_sections(self):
        text = (
            "[options]\nname = m\n\n[variables]\nx even\n\n[bivector]\n\n"
            "[charts]\n\n[transitions]\n"
        )
        model = parse_model_text(text)
        assert model.charts == () and model.transitions == ()

    def test_comments_and_blanks_are_ignored(self):
        original = render_model_text(builtin("T0-cotangent"))
        noisy = "# header comment\n\n" + original.replace(
            "[bivector]", "[bivector]  # entries\n"
        )
        assert render_model_text(parse_model_text(noisy)) == original

    def test_fibration_over_model(self):
        m = builtin("T0-cotangent")
        text = render_model_text(m)
        assert "over model" in text
        m2 = parse_model_text(text)
        assert m2.fibration.base_table == m2.table
        assert m2.fibration.rules.keys() == m.fibration.rules.keys()

    def test_missing_relations_section_disables_the_sweep(self):
        text = (
            "[options]\nname = tiny\n\n"
            "[variables]\nx even\ny even\n\n"
            "[bivector]\nx y := 1\n"
        )
        assert parse_model_text(text).expected_relations is None
        with_empty = text + "\n[relations]\n"
        assert parse_model_text(with_empty).expected_relations.entries == {}

    def test_weighted_system_without_odd_weights_round_trips(self):
        # its [cy] line ends at the ";", so a hand-written file reads back byte for byte
        m = dataclasses.replace(builtin("WP[4,0]"), cy=CYWeights.weighted((1, 1, 1, 1), ()))
        text = render_model_text(m)
        assert text.endswith("\n[cy]\nweighted 1 1 1 1 ;\n")
        assert render_model_text(parse_model_text(text)) == text

    def test_file_round_trip_on_disk(self, tmp_path):
        m = builtin("WP[1,3]")
        path = tmp_path / "wp13.model"
        save_model(m, path)
        again = load_model(path)
        assert render_model_text(again) == path.read_text()
        assert again.name == "WP[1,3]"

    @pytest.mark.parametrize("name, change, message", [
        ("T1-cotangent", {"name": "T1 # copy"},
         "line 2 'name = T1 # copy' reads back as 'name = T1'"),
        ("T1-cotangent", {"name": " padded "},
         "line 2 'name =  padded ' reads back as 'name = padded'"),
    ])
    def test_a_model_that_does_not_read_back_is_not_saved(self, tmp_path, name, change, message):
        model = dataclasses.replace(builtin(name), **change)
        path = tmp_path / "m.model"
        with pytest.raises(ValueError, match=f"^model {re.escape(repr(model.name))} does not "
                                             f"read back: {re.escape(message)}$"):
            save_model(model, path)
        assert not path.exists()

    def test_a_constant_that_is_a_row_is_refused_at_the_bivector(self):
        # the relations phase skips a constant, so a row declared as one would pass vacuously
        text = (_ROOT / "models" / "t0_cotangent.model").read_text()
        text = text.replace("x11 even\n", "").replace("[constants]\n", "[constants]\nx11\n")
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(text, source="t0.model")
        assert str(info.value) == "t0.model:35: constant 'x11' is a row of the bivector"

    def test_a_relation_on_a_constant_is_refused_at_its_line(self):
        # the relations phase compares no constant, so this false relation would pass
        text = (_ROOT / "models" / "t0_cotangent.model").read_text()
        text = text.replace("[relations]\n", "[relations]\ncomm x11 D11_12 = 7*hbar*D11_21\n")
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(text, source="t0.model")
        assert str(info.value) == "t0.model:53: a relation cannot name the constant 'D11_12'"

    def test_a_variable_name_the_reader_cannot_split_is_not_saved(self, tmp_path):
        t = VarTable.build(("a b", EVEN), ("y", EVEN))
        model = ModelSpec("m", (), SuperBivector(t, {("a b", "y"): t.one()}), None)
        path = tmp_path / "m.model"
        with pytest.raises(ValueError, match="^model 'm' does not read back: " + re.escape(
                "<model>:6: expected: name even|odd [invertible] [weight K]")):
            save_model(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("decls", [
        (("x", EVEN), ("y", EVEN), ("c", EVEN, False, 2)),
        (("x", EVEN), ("y", EVEN), ("c", EVEN, True)),
        (("x", EVEN), ("y", EVEN), ("c", ODD)),
        (("c", EVEN), ("x", EVEN), ("y", EVEN)),
    ])
    def test_a_constant_the_text_cannot_declare_is_not_saved(self, tmp_path, decls):
        # its text renders alike once loaded, but the table reads back otherwise
        t = VarTable.build(*decls)
        model = ModelSpec("m", ("c",), SuperBivector(t, {("x", "y"): t.one()}), None)
        path = tmp_path / "m.model"
        with pytest.raises(ValueError, match=r"^model 'm' does not read back: VarSpec\(name='c', "):
            save_model(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("name", list_builtins())
    def test_shipped_file_matches_the_builtin(self, name):
        path = _ROOT / "models" / f"{_regen_script().slug(name)}.model"
        assert path.read_text() == render_model_text(builtin(name))

    def test_regen_script_writes_the_shipped_files(self, tmp_path):
        shipped = {p.name: p.read_bytes() for p in (_ROOT / "models").glob("*.model")}
        for seed in ("0", "1"):
            # a copy of the script writes next to itself, into <seed>/models
            (tmp_path / seed / "scripts").mkdir(parents=True)
            script = tmp_path / seed / "scripts" / "regen_models.py"
            script.write_bytes((_ROOT / "scripts" / "regen_models.py").read_bytes())
            proc = subprocess.run(
                [sys.executable, str(script)], capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(_ROOT / "src"), PYTHONHASHSEED=seed,
                         PYTHONDONTWRITEBYTECODE="1"),
            )
            assert (proc.returncode, proc.stderr) == (0, "")
            written = {p.name: p.read_bytes() for p in (tmp_path / seed / "models").iterdir()}
            assert written == shipped

    def test_duplicate_chart_variable_names_its_line(self, cli, tmp_path):
        text = (_ROOT / "models" / "wp_2_2.model").read_text()
        declared = "chart plus\nvar w1 even weight 1\n"
        assert declared in text
        path = tmp_path / "dup.model"
        path.write_text(text.replace(declared, declared + "var w1 even weight 1\n"))
        rc, out, err = cli("verify", str(path))
        assert rc == 2
        # the chart's header line
        assert f"{path}:44: duplicate variable 'w1'" in err

    def test_empty_variables_section_names_a_line(self, cli, tmp_path):
        text = "[options]\nname = m\n\n[variables]\n\n[constants]\nc\nc\n\n[bivector]\n"
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(text, source="dup.model")
        assert str(info.value) == "dup.model:7: duplicate variable 'c'"
        path = tmp_path / "dup.model"
        path.write_text(text)
        rc, out, err = cli("verify", str(path))
        assert (rc, out) == (2, "")
        assert f"{path}:7: duplicate variable 'c'" in err
        path.write_text("[options]\nname = m\n\n[variables]\n\n[bivector]\n")
        rc, out, err = cli("verify", str(path))
        assert (rc, out) == (2, "")
        assert err == f"error: {path}: the model declares no variables\n"

    def test_power_limit_in_model_file(self, cli, tmp_path):
        text = (
            "[options]\nname = big\n\n[variables]\nx even\ny even\n\n"
            "[bivector]\nx y := (1+1)^65\n"
        )
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(text, source="big.model")
        assert info.value.line_no == 9
        assert f"limit {MAX_BASE_POWER}" in info.value.msg
        path = tmp_path / "big.model"
        path.write_text(text)
        rc, out, err = cli("verify", str(path))
        assert rc == 2
        assert f"limit {MAX_BASE_POWER}" in err

    def test_nesting_limit_in_model_file(self, cli, tmp_path):
        head = "[options]\nname = deep\n\n[variables]\nx even\ny even\n\n[bivector]\nx y := "
        nested = lambda n: head + "(" * n + "1" + ")" * n + "\n"
        m = parse_model_text(nested(MAX_NESTING))
        assert m.bivector.entry("x", "y") == m.table.one()
        path = tmp_path / "deep.model"
        path.write_text(nested(MAX_NESTING + 1))
        rc, out, err = cli("verify", str(path))
        assert (rc, out) == (2, "")
        assert err == (f"error: {path}:9: parentheses nest deeper than the limit of {MAX_NESTING}"
                       f" (column {MAX_NESTING + 1} of the expression)\n")

    def test_term_limit_in_model_file(self, cli, tmp_path):
        text = (
            "[options]\nname = big\n\n[variables]\nx even\ny even\n\n"
            "[constants]\nC\nD\nE\n\n[bivector]\nx y := (C+D+E+1)^64\n"
        )
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(text, source="big.model")
        assert info.value.line_no == 14
        assert f"limit of {MAX_PARSED_TERMS} terms" in info.value.msg
        path = tmp_path / "big.model"
        path.write_text(text)
        rc, out, err = cli("verify", str(path))
        assert rc == 2
        assert f"limit of {MAX_PARSED_TERMS} terms" in err

    # each case: text after _HEAD, line of the error, message after "file:line: "
    _HEAD = "[options]\nname = m\n\n[variables]\nx even\nth odd\n\n"
    _CHARTS = (
        "[bivector]\n\n[charts]\nchart A\nvar x even\nvar th odd\ntable th th = 1\n"
        "chart B\nvar x even\n\n[transitions]\n"
    )

    @pytest.mark.parametrize("tail, line_no, message", [
        ("[constants]\nc d\n\n[bivector]\n", 9, "expected one constant name per line"),
        ("[bivector]\n\n[relations]\ncomm x = hbar\n", 11,
         "expected: comm|anti A B = expression"),
        ("[bivector]\n\n[relations]\ncomm x q = hbar\n", 11, "unknown variable 'q'"),
        # a relations table that is no bracket table is named at its first line
        ("[bivector]\n\n[relations]\ncomm x x = hbar\n", 11,
         "even diagonal entry (x, x) must vanish"),
        ("[bivector]\n\n[relations]\nanti th th = hbar\ncomm x th = hbar\n", 11,
         "entries do not share a single bivector parity"),
        ("[bivector]\n\n[fibration]\nbase y even\nover model\n", 12,
         "base lines conflict with over model"),
        ("[bivector]\n\n[fibration]\nover model\nbase y even\n", 12,
         "base lines conflict with over model"),
        ("[bivector]\n\n[fibration]\nbase y even\nrule z -> y\nbase w even\n", 13,
         "base lines must come before rules"),
        ("[bivector]\n\n[fibration]\nrule z -> x\n", 11, "fibration rules need a base"),
        ("[bivector]\n\n[fibration]\nover model\nrule z x\n", 12,
         "expected: rule NAME -> expression"),
        ("[bivector]\n\n[fibration]\nover model\nfiber z\n", 12,
         "expected over model, base, or rule"),
        ("[bivector]\n\n[fibration]\nover model\n", 11, "a fibration needs rule lines"),
        ("[bivector]\n\n[fibration]\n", 10, "a fibration needs rule lines"),
        ("[bivector]\n\n[charts]\nchart A\nvar x even\ntable x th = 0\nvar th odd\n", 14,
         "var lines must come before table lines"),
        ("[bivector]\n\n[charts]\nchart A\nvar x even\ntable x = 1\n", 13,
         "expected: table A B = expression"),
        ("[bivector]\n\n[charts]\nchart A\nvar x even\nfield x\n", 13,
         "expected chart, var, or table"),
        # a second chart or map of one name is refused at its header line
        ("[bivector]\n\n[charts]\nchart A\nvar x even\nchart A\n", 13, "duplicate chart 'A'"),
        (_CHARTS + "map A B\nth -> 0\nmap A B\nth -> 0\n", 21, "duplicate map A B"),
        # so is every other repeated key, at its second line
        ("[bivector]\nth th := 1\nth th := 2\n", 10, "duplicate entry (th, th)"),
        ("[bivector]\n\n[relations]\nanti th th = hbar\nanti th th = hbar\n", 12,
         "duplicate relation (th, th)"),
        ("[bivector]\n\n[fibration]\nover model\nrule z -> x\nrule z -> x\n", 13,
         "duplicate rule 'z'"),
        ("[bivector]\n\n[charts]\nchart A\nvar th odd\ntable th th = 1\ntable th th = 2\n", 14,
         "duplicate table entry (th, th)"),
        (_CHARTS + "map A B\nth -> 0\nth -> 1\n", 21, "duplicate rule 'th'"),
        (_CHARTS + "map A B\nth -> 0\n\n[weights]\nlaw A B x x : 1\nlaw A B x x : 1\n", 24,
         "duplicate law A B x x"),
        (_CHARTS + "map A C\n", 19, "unknown chart 'C'"),
        (_CHARTS + "map A B\nx = x\n", 20, "expected: NAME -> expression"),
        ("[bivector]\n\n[weights]\nlaw A B x : 1\n", 11,
         "expected: law SRC DST A B : expression"),
        # chart B lacks th, so the map needs a rule for it
        (_CHARTS + "map A B\n", 19, "variable 'th' has no rule and chart B lacks it"),
        (_CHARTS + "map A B\nth -> 0\n\n[weights]\nlaw A B th th : 1\n", 23,
         "pair (th, th) is not resolvable in chart B"),
        (_CHARTS + "map A B\nth -> 0\n\n[weights]\nlaw B A x x : 1\n", 23,
         "no transition from B to A"),
        ("[bivector]\n\n[cy]\nprojective 3 4\nprojective 3 4\n", 11,
         "the [cy] section takes one line"),
        ("[bivector]\n\n[cy]\n", 10, "the [cy] section takes one line"),
        ("[bivector]\n\n[cy]\nprojective x 4\n", 11,
         "bad weight system line 'projective x 4': weight 'x' is not an integer"),
        ("[bivector]\n\n[cy]\nweighted 1 ; y\n", 11,
         "bad weight system line 'weighted 1 ; y': weight 'y' is not an integer"),
        ("[bivector]\n\n[cy]\nprojective -1 4\n", 11,
         "bad weight system line 'projective -1 4': the dimension must be at least 0, got -1"),
        ("[bivector]\n\n[cy]\nweighted ; 1\n", 11,
         "bad weight system line 'weighted ; 1': a weighted system needs at least one even weight"),
        ("[bivector]\n\n[cy]\nambitwistor -2\n", 11,
         "bad weight system line 'ambitwistor -2': the odd count must be at least 0, got -2"),
        ("[bivector]\n\n[cy]\nweighted 1 2\n", 11, "expected projective, weighted, or ambitwistor"),
    ])
    def test_line_errors_keep_their_text(self, tail, line_no, message):
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(self._HEAD + tail, source="bad.model")
        assert str(info.value) == f"bad.model:{line_no}: {message}"

    _REST = "\n[variables]\nx even\n\n[bivector]\n"

    @pytest.mark.parametrize("text, line_no, message", [
        ("[options]\nname = m\n\n[variables]\nx even weight w\n\n[bivector]\n", 5,
         "bad weight 'w'"),
        ("[options]\nname = m\n\n[variables]\nx even heavy\n\n[bivector]\n", 5,
         "unexpected token 'heavy'"),
        ("[options]\nname = m\nverbose\n" + _REST, 3, "expected: key = value"),
        ("[options]\nname = m\nmax_order = x\n" + _REST, 3, "bad max_order 'x'"),
        ("[options]\nname = m\nassociative = maybe\n" + _REST, 3, "associative must be true or false"),
        ("[options]\nname = m\ncolour = red\n" + _REST, 3, "unknown option 'colour'"),
        ("[options]\nname = m\nmax_order = 3\nmax_order = 9\n" + _REST, 4,
         "duplicate option 'max_order'"),
        ("[options]\nname = m\nname = n\n" + _REST, 3, "duplicate option 'name'"),
    ])
    def test_declaration_and_option_errors_keep_their_text(self, text, line_no, message):
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(text, source="bad.model")
        assert str(info.value) == f"bad.model:{line_no}: {message}"

    def _bad(self, text, fragment, line_no=None):
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(text, source="bad.model")
        assert fragment in info.value.msg
        assert str(info.value).startswith("bad.model:")
        if line_no is not None:
            assert info.value.line_no == line_no

    def test_error_diagnostics(self):
        head = "[options]\nname = m\n\n[variables]\nx even\nth odd\n\n"
        self._bad("[nonsense]\n", "unknown section", line_no=1)
        self._bad("x even\n", "before any section", line_no=1)
        self._bad(head + "[variables]\nx even\n", "duplicate section")
        self._bad("[options]\nname = m\n", "missing section [variables]")
        self._bad(head + "[bivector]\nx q := 1\n", "unknown variable 'q'", line_no=9)
        self._bad(head + "[bivector]\nx x := 1\n", "even diagonal")
        self._bad(head + "[bivector]\nx th := 1\nth th := 1\n", "single bivector parity")
        self._bad(head + "[bivector]\nth th := 1 + th\n", "parity-homogeneous")
        self._bad(head + "[bivector]\nx := 1\n", "expected: A B :=")
        self._bad(head + "[bivector]\nth th := hbar\n", "cannot contain hbar")
        self._bad(
            head + "[bivector]\nth th := x^&\n", "column 3 of the expression", line_no=9
        )
        self._bad(
            head + "[bivector]\n\n[relations]\ncomm th th = hbar\n", "anti is for odd"
        )
        self._bad(
            head + "[bivector]\n\n[relations]\nanti th th = x\n", "linear in hbar"
        )
        self._bad("[options]\nmax_order = 4\n\n[variables]\nx even\n\n[bivector]\n",
                  "must set a name")
        self._bad(
            head.replace("x even", "x sideways") + "[bivector]\n", "even|odd"
        )
        self._bad(head + "[bivector]\n\n[cy]\nspectral 3\n", "expected projective")
        self._bad(head + "[bivector]\n\n[cy]\nprojective -1 4\n",
                  "bad weight system line 'projective -1 4': "
                  "the dimension must be at least 0, got -1", line_no=11)
        self._bad(head + "[bivector]\n\n[weights]\nlaw A B x x : 1\n", "unknown chart")
        self._bad(head + "[bivector]\n\n[transitions]\nx -> x\n", "map line first")
        self._bad(
            head + "[bivector]\n\n[charts]\nvar a even\n", "chart line first", line_no=11
        )
        charts = "[charts]\nchart A\nvar x even\nvar th odd\ntable th th = 1\nchart B\nvar x even\n"
        self._bad(
            head + "[bivector]\n\n" + charts + "\n[transitions]\nmap A\n",
            "expected: map SRC DST", line_no=19,
        )
        # a chart or map is built when its block ends: at the next header, or
        # at the section's last line
        self._bad(
            head + "[bivector]\n\n[charts]\nchart A\nvar x even\ntable x x = 1\n"
            "chart B\nvar x even\n",
            "even diagonal", line_no=14,
        )
        self._bad(
            head + "[bivector]\n\n[charts]\nchart A\nvar x even\nvar th odd\n"
            "table x x = 1\ntable th th = 1\n# comment\n\n",
            "even diagonal", line_no=15,
        )
        self._bad(
            head + "[bivector]\n\n" + charts + "\n[transitions]\nmap A B\nq -> x\n"
            "map B A\nx -> x\n",
            "'q'", line_no=21,
        )
        self._bad(
            head + "[bivector]\n\n" + charts + "\n[transitions]\nmap A B\nq -> x\nx -> x\n\n",
            "'q'", line_no=21,
        )


_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_ODD_DECL_RE = re.compile(r"^(\w+) odd\b", re.M)
_RHS_RE = re.compile(r"^(\w+ \w+ :=|(?:comm|anti) \w+ \w+ =) ")


def _model_mutants(count, seed):
    """``count`` single-edit mutants of the shipped model files, as (file name, text).

    Each deletes, duplicates or swaps a line, replaces a token with another
    token of the same file, changes a digit, or replaces a bivector entry's or
    a relation's right-hand side with a term holding an odd variable.
    """
    rng = Random(seed)
    files = []
    for path in sorted((_ROOT / "models").glob("*.model")):
        text = path.read_text()
        files.append((path.name, text, sorted(set(_TOKEN_RE.findall(text))), _ODD_DECL_RE.findall(text)))
    out = []
    while len(out) < count:
        name, text, tokens, odds = rng.choice(files)
        lines = text.split("\n")
        full = [i for i, line in enumerate(lines) if line.strip()]
        i = rng.choice(full)
        kind = rng.choice(("delete", "duplicate", "swap", "token", "digit", "odd"))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = rng.choice(full)
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            a, b = rng.choice([m.span() for m in _TOKEN_RE.finditer(lines[i])])
            lines[i] = lines[i][:a] + rng.choice(tokens) + lines[i][b:]
        elif kind == "digit":
            k = rng.choice([k for k, ch in enumerate(text) if ch.isdigit()])
            digit = rng.choice([d for d in "0123456789" if d != text[k]])
            lines = (text[:k] + digit + text[k + 1:]).split("\n")
        else:
            rhs = [j for j in full if _RHS_RE.match(lines[j])]
            if not odds or not rhs:
                continue
            j = rng.choice(rhs)
            head = _RHS_RE.match(lines[j]).group(1)
            lines[j] = f"{head} {'hbar*' if head.endswith(' =') else ''}{rng.choice(odds)}"
        out.append((name, "\n".join(lines)))
    return out


class TestModelFileFuzz:
    def test_single_edit_mutants_load_or_fail_at_a_line(self):
        # every mutant gives a spec or a ModelFormatError, and every spec a
        # report or TruncationExceeded; a spec that renders as a shipped model
        # (verified by the built-in model tests) or an earlier mutant is not
        # verified again
        verified = {render_model_text(load_model(p)) for p in (_ROOT / "models").glob("*.model")}
        errors = reports = 0
        for name, text in _model_mutants(200, seed=18):
            try:
                spec = parse_model_text(text, source=name)
            except ModelFormatError as err:
                # an error names no line, or a line that holds more than a comment
                if err.line_no is not None:
                    assert text.splitlines()[err.line_no - 1].split("#", 1)[0].strip(), str(err)
                errors += 1
                continue
            rendered = render_model_text(spec)
            if rendered in verified:
                continue
            verified.add(rendered)
            try:
                verify_model(spec)
                reports += 1
            except TruncationExceeded:
                pass
        assert errors > 100 and reports > 20


# `verify --json` on each target named on the command line, with its exit code
_VERIFY_EACH = """
import sys
from supermoyal.cli import run
for target in sys.argv[1:]:
    print(f"{target}: exit {run(['verify', target, '--json'])}")
"""


class _Runner:
    def __init__(self, capsys):
        self.capsys = capsys

    def __call__(self, *argv):
        rc = run(list(argv))
        captured = self.capsys.readouterr()
        return rc, captured.out, captured.err


@pytest.fixture
def cli(capsys):
    return _Runner(capsys)


@pytest.fixture
def default_int_limit():
    """CPython's default limit on int strings, 4,300 digits, for the test, where
    this Python has one; an environment may change it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    yield 4300 if limit is not None else None
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def _read_digits(text):
    """The int of a run of decimal digits of any length, read 1,000 at a time."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class TestVerifyCommand:
    def test_pass_lines_and_summary(self, cli):
        rc, out, err = cli("verify", "P3|4")
        assert rc == 0
        lines = out.splitlines()
        assert "comm z1 z2 = 2*hbar*l1*l2 : pass" in lines
        assert "poisson [pi,pi]=0 : pass" in lines
        assert lines[-1] == "P3|4: 48 passed, 0 failed, 0 skipped"

    @pytest.mark.parametrize("target, rc, summary", [
        ("WP[2,2]", 0, "WP[2,2]: 29 passed, 0 failed, 0 skipped"),
        # P3|N=N is Calabi-Yau at N=4 only, so its one failure is the cy index
        ("P3|N=12", 1, "P3|N: 618 passed, 1 failed, 0 skipped"),
        ("P3|N=16", 1, "P3|N: 1040 passed, 1 failed, 0 skipped"),
    ], ids=["WP[2,2]", "P3|N=12", "P3|N=16"])
    def test_quiet_keeps_only_the_summary(self, cli, target, rc, summary):
        assert cli("verify", target, "--quiet") == (rc, f"{summary}\n", "")

    def test_skip_line_shows_detail(self, cli):
        rc, out, err = cli("verify", "T1-cotangent")
        assert rc == 0
        line = next(l for l in out.splitlines() if l.startswith("contract associativity"))
        assert ": skip (" in line

    def test_json_records(self, cli):
        import json as jsonlib

        rc, out, err = cli("verify", "T0-cotangent", "--json")
        assert rc == 0
        records = [jsonlib.loads(line) for line in out.splitlines()]
        assert all(
            set(r) == {"check_id", "status", "lhs", "rhs", "detail"} for r in records
        )
        by_id = {r["check_id"]: r for r in records}
        assert by_id["comm x11 x12"]["lhs"] == "hbar*D11_12"
        assert by_id["comm x11 x12"]["status"] == "pass"

    def test_a_model_file_builds_each_bracket_table_once(self, cli, monkeypatch):
        models = [builtin(name) for name in list_builtins()]
        builds = []
        init = SuperBivector.__init__
        monkeypatch.setattr(SuperBivector, "__init__",
                            lambda self, *args: builds.append(args) or init(self, *args))
        rc, out, err = cli("verify", str(_ROOT / "models" / "t0_cotangent.model"), "--quiet")
        assert rc == 0
        assert len(builds) == 2  # its [bivector] and its [relations]
        builds.clear()
        for model in models:
            render_model_text(model)
        assert builds == []

    def test_verify_model_file(self, cli, tmp_path):
        path = tmp_path / "wp.model"
        save_model(builtin("WP[1,3]"), path)
        rc, out, err = cli("verify", str(path), "--quiet")
        assert rc == 0

    def test_tampered_file_fails(self, cli, tmp_path):
        text = render_model_text(builtin("P3|4")).replace(
            "comm z1 z2 = 2*hbar*l1*l2", "comm z1 z2 = 4*hbar*l1*l2"
        )
        path = tmp_path / "bad.model"
        path.write_text(text)
        rc, out, err = cli("verify", str(path))
        assert rc == 1
        assert "comm z1 z2 = 2*hbar*l1*l2 : fail (expected 4*hbar*l1*l2)" in out

    def test_negative_max_order_in_file_is_an_error(self, cli, tmp_path):
        text = render_model_text(builtin("WP[1,3]"))
        path = tmp_path / "negative.model"
        path.write_text(text.replace("max_order = 8", "max_order = -1"))
        rc, out, err = cli("verify", str(path))
        assert rc == 2
        assert "max_order must be non-negative" in err

    @pytest.mark.parametrize("value, message", [
        (-1, "max_order must be non-negative"),
        (100_000, f"max_order must be at most {MAX_ORDER}"),
    ])
    def test_max_order_out_of_range_names_its_line(self, cli, tmp_path, value, message):
        text = render_model_text(builtin("WP[1,3]"))
        assert text.splitlines()[2] == "max_order = 8"
        path = tmp_path / "order.model"
        path.write_text(text.replace("max_order = 8", f"max_order = {value}"))
        rc, out, err = cli("verify", str(path))
        assert (rc, out) == (2, "")
        assert f"{path}:3: {message}, got {value}" in err

    @pytest.mark.parametrize("text, message", [
        ("[options]\nname = m\n\n[variables]\nx even\n", "missing section [bivector]"),
        ("[options]\nmax_order = 4\n\n[variables]\nx even\n\n[bivector]\n",
         "the [options] section must set a name"),
        ("[options]\nname = m\n\n[variables]\n\n[bivector]\n",
         "the model declares no variables"),
    ])
    def test_whole_file_errors_name_no_line(self, text, message):
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(text, source="bad.model")
        assert str(info.value) == f"bad.model: {message}"
        assert info.value.line_no is None

    def test_model_file_error_prints_one_line(self, cli, tmp_path):
        path = tmp_path / "broken.model"
        path.write_text("[options]\nname = broken\n\n[variables]\nx even\ny\n\n[bivector]\n")
        assert cli("verify", str(path)) == (2, "", f"error: {path}:6: expected: name even|odd"
                                            " [invertible] [weight K]\n")

    # P3|4 with one law on a pair its charts lack, and without the map
    # minus -> plus that its minus -> plus laws need (with and without the
    # blank line that closes the map's block)
    _MINUS_PLUS = (
        "map minus plus\nw1 -> w1*l^-1\nw2 -> w2*l^-1\nl -> l^-1\nxi1 -> l^-1*xi1\n"
        "xi2 -> l^-1*xi2\nxi3 -> l^-1*xi3\nxi4 -> l^-1*xi4\n"
    )
    _BAD_LAWS = [
        (("law plus minus w1 w2 : l^-2", "law plus minus w1 x : l^-2"), 100,
         "pair (w1, x) is not resolvable in chart plus"),
        ((_MINUS_PLUS, ""), 97, "no transition from minus to plus"),
        ((_MINUS_PLUS + "\n", ""), 96, "no transition from minus to plus"),
    ]

    @pytest.mark.parametrize("edit, line_no, message", _BAD_LAWS)
    def test_bad_weight_law_is_named_at_its_line(self, cli, tmp_path, edit, line_no, message):
        text = (_ROOT / "models" / "p3_4.model").read_text()
        assert edit[0] in text
        path = tmp_path / "p3_4.model"
        path.write_text(text.replace(*edit))
        with pytest.raises(ModelFormatError) as info:
            parse_model_text(path.read_text(), source=str(path))
        assert (info.value.line_no, info.value.msg) == (line_no, message)
        assert cli("verify", str(path)) == (2, "", f"error: {path}:{line_no}: {message}\n")

    # P3|N=4's map U1 -> U2, lines 312-319 of p3_n.model
    _U1_U2 = (
        "map U1 U2\nz2 -> z1^-1\nz3 -> z1^-1*z3\nz4 -> z1^-1*z4\nxi1 -> z1^-1*xi1\n"
        "xi2 -> z1^-1*xi2\nxi3 -> z1^-1*xi3\nxi4 -> z1^-1*xi4"
    )
    _LAW = "law plus minus w1 w2 : l^-2"  # line 100 of p3_4.model
    _DEEP = "(" * (MAX_NESTING + 1) + "D11_12" + ")" * (MAX_NESTING + 1)

    @pytest.mark.parametrize("model, old, new, error", [
        # T0-cotangent's [bivector] section starts at line 35 and ends at line 40:
        # an entry the engine refuses is named at its first line, a bad
        # expression at the entry's own line
        ("t0_cotangent", "x21 x22 := D21_22", "x21 x22 := x11",
         "35: bivector entries depend on contracted variables"),
        ("t0_cotangent", "x11 x12 := D11_12", "x11 x12 := x21",
         "35: bivector entries depend on contracted variables"),
        ("t0_cotangent", "x21 x22 := D21_22", "x21 x22 := ²*D21_22",
         "40: unexpected character '²' (column 1 of the expression)"),
        ("t0_cotangent", "x11 x12 := D11_12", "x11 x12 := ²*D11_12",
         "35: unexpected character '²' (column 1 of the expression)"),
        ("t0_cotangent", "x21 x22 := D21_22", "x21 x22 := D21_22^٣",
         "40: unexpected character '٣' (column 8 of the expression)"),
        ("t0_cotangent", "x11 x12 := D11_12", f"x11 x12 := {_DEEP}",
         f"35: parentheses nest deeper than the limit of {MAX_NESTING}"
         f" (column {MAX_NESTING + 1} of the expression)"),
        # L5|6's [relations] starts at line 35; line 36 gets the other parity
        ("l5_6", "comm X1 Y1 = hbar*l2*m2", "comm X1 Y1 = hbar*l2*xi1",
         "35: entries do not share a single bivector parity"),
        # a map is built when its block ends, so a missing rule is named at
        # the next map's header; a repeated chart or map at its second header
        ("p3_n", _U1_U2, _U1_U2.replace("z2 -> z1^-1\n", ""),
         "319: variable 'z2' has no rule and chart U2 lacks it"),
        ("p3_n", "chart U1", "chart U1\nchart U1", "119: duplicate chart 'U1'"),
        ("p3_n", _U1_U2, f"{_U1_U2}\n{_U1_U2}", "320: duplicate map U1 U2"),
        # a second law line once added a second glue record to the report
        ("p3_4", _LAW, f"{_LAW}\n{_LAW}", "101: duplicate law plus minus w1 w2"),
        # P3|4's [cy] line
        ("p3_4", "projective 3 4", "projective -1 4",
         "112: bad weight system line 'projective -1 4': the dimension must be at least 0, got -1"),
    ], ids=["noncentral-40", "noncentral-35", "superscript-40", "superscript-35", "digit",
            "nesting", "relation-parity", "dropped-rule", "duplicate-chart", "duplicate-map",
            "duplicate-law", "negative-cy"])
    def test_edited_shipped_file_is_named_at_its_line(self, cli, tmp_path, model, old, new, error):
        text = (_ROOT / "models" / f"{model}.model").read_text()
        assert text.count(f"\n{old}\n") == 1
        path = tmp_path / f"{model}.model"
        path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
        assert cli("verify", str(path)) == (2, "", f"error: {path}:{error}\n")

    def test_t1_cotangent_fails_the_associativity_sweep(self, cli, tmp_path):
        text = (_ROOT / "models" / "t1_cotangent.model").read_text()
        assert "associative = false\n" in text
        path = tmp_path / "t1.model"
        path.write_text(text.replace("associative = false\n", ""))
        rc, out, err = cli("verify", str(path))
        assert (rc, err) == (1, "")
        # the triple is written in the syntax star reads
        detail = "first failure on basis triple (x12, x11, t11*t12)"
        (line,) = [line for line in out.splitlines() if line.startswith("contract associativity")]
        assert line == f"contract associativity : fail ({detail})"
        rc, out, err = cli("verify", str(path), "--json")
        assert (rc, err) == (1, "")
        records = [json.loads(line) for line in out.splitlines()]
        assert [r for r in records if r["check_id"] == "contract associativity"] == [{
            "check_id": "contract associativity", "status": "fail", "lhs": None, "rhs": None,
            "detail": detail,
        }]

    def test_t0_cotangent_with_an_entry_over_3_passes_the_sweep(self, cli, tmp_path):
        # every shipped bivector has denominator 1; pairs over 3 make the
        # sweep's shared denominator grow inside a row
        lines = (_ROOT / "models" / "t0_cotangent.model").read_text().splitlines(keepends=True)
        assert (lines[34], lines[52]) == ("x11 x12 := D11_12\n", "comm x11 x12 = hbar*D11_12\n")
        lines[34], lines[52] = "x11 x12 := D11_12/3\n", "comm x11 x12 = hbar*D11_12/3\n"
        path = tmp_path / "t0_third.model"
        path.write_text("".join(lines))
        assert cli("verify", str(path), "--quiet") == (
            0, "T0-cotangent: 53 passed, 0 failed, 0 skipped\n", "")

    def test_output_does_not_depend_on_the_hash_seed(self, capsys, monkeypatch):
        targets = [*sorted(str(p) for p in (_ROOT / "models").glob("*.model")), "P3|N=6"]
        # the loop in this process, under its own hash seed, and under seeds 0 and 1
        monkeypatch.setattr(sys, "argv", ["-c", *targets])
        exec(_VERIFY_EACH, {})
        out = capsys.readouterr().out
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", _VERIFY_EACH, *targets], capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(_ROOT / "src"), PYTHONHASHSEED=seed,
                         PYTHONDONTWRITEBYTECODE="1"),
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
        codes = re.findall(r"^.*: exit (\d+)$", out, re.M)
        assert len(codes) == len(targets) and max(map(int, codes)) <= 1

    def test_directory_is_an_error_not_a_traceback(self, cli, tmp_path):
        rc, out, err = cli("verify", str(tmp_path))
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: cannot read {tmp_path}: ")
        assert err.count("\n") == 1

    def test_corrupt_file_is_a_usage_error(self, cli, tmp_path):
        path = tmp_path / "broken.model"
        path.write_text("[options]\nname = broken\n")
        rc, out, err = cli("verify", str(path))
        assert rc == 2
        assert err == f"error: {path}: missing section [variables]\n"


class TestProductCommands:
    def test_comm(self, cli):
        rc, out, err = cli("comm", "P3|4", "--a", "z1", "--b", "z2")
        assert (rc, out) == (0, "2*hbar*l1*l2\n")

    def test_star(self, cli):
        rc, out, err = cli("star", "P3|4", "--lhs", "xi1*xi2", "--rhs", "xi2")
        assert (rc, out) == (0, "1/2*hbar*l1^2*xi1 + 1/2*hbar*l2^2*xi1\n")

    def test_json_result(self, cli):
        rc, out, err = cli("comm", "P3|4", "--a", "z1", "--b", "z2", "--json")
        assert out == '{"result": "2*hbar*l1*l2"}\n'

    def test_truncation_is_a_failure(self, cli):
        rc, out, err = cli(
            "star", "P3|4", "--lhs", "z1^2", "--rhs", "z2^2", "--order", "1"
        )
        assert rc == 1
        assert "error:" in err

    def test_truncation_names_a_sufficient_order(self, cli):
        rc, out, err = cli("star", "P3|4", "--lhs", "z1^9", "--rhs", "z2^9")
        assert (rc, out) == (1, "")
        assert "--order 9" in err
        rc, out, err = cli(
            "star", "P3|4", "--lhs", "z1^9", "--rhs", "z2^9", "--order", "9"
        )
        assert rc == 0
        assert out.startswith("z1^9*z2^9 + ")

    def test_truncation_hint_needs_an_operand_that_runs_out(self, cli, tmp_path):
        # x^-1 never runs out of x; y^9 runs out after 9 steps
        path = tmp_path / "inverse.model"
        path.write_text(
            "[options]\nname = inverse\n\n[variables]\nx even invertible\n"
            "y even invertible\n\n[bivector]\nx y := 1\n"
        )
        assert cli("star", str(path), "--lhs", "x^-1", "--rhs", "y^-1", "--order", "4") == (
            1, "", "error: series alive past hbar order 4\n"
        )
        assert cli("star", str(path), "--lhs", "x^-1", "--rhs", "y^9", "--order", "4") == (
            1, "", "error: series alive past hbar order 4; order 9 suffices for these operands"
            " (use --order 9)\n"
        )

    @pytest.mark.parametrize("lhs, column", [("x11^²", 5), ("٣*x11", 1), ("x11 + 1٣", 8)])
    def test_an_integer_is_ascii_digits(self, cli, lhs, column):
        assert cli("star", "T0-cotangent", "--lhs", lhs, "--rhs", "x12") == (
            2, "", f"error: unexpected character {lhs[column - 1]!r} (column {column})\n"
        )

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python converts an integer string of any length")
    def test_a_literal_int_refuses_is_one_error_line(self, cli):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default; an environment may change it
        try:
            got = cli("star", "T0-cotangent", "--lhs", "x11*" + "7" * 5000, "--rhs", "x12")
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == (2, "", "error: integer literal of 5000 digits is too long (column 5)\n")

    @pytest.mark.parametrize("digits", [4299, 4300, 4301, 8000])
    def test_a_result_past_the_int_string_limit_prints(self, cli, default_int_limit, digits):
        # (10^a - 1)(10^b - 1) has a + b digits; x11 * x12 adds half of it times hbar D11_12
        a = digits // 2
        n = (10 ** a - 1) * (10 ** (digits - a) - 1)
        argv = ["star", "T0-cotangent", "--lhs", "9" * a + "*x11", "--rhs", "9" * (digits - a) + "*x12"]
        rc, out, err = cli(*argv)
        assert (rc, err) == (0, "")
        c = out.split("*")[0]
        assert len(c) == digits and _read_digits(c) == n
        assert out == f"{c}*x11*x12 + {c}/2*hbar*D11_12\n"
        assert cli(*argv, "--json") == (0, json.dumps({"result": out[:-1]}) + "\n", "")
        # the parser reads the text back only where each integer is within the limit
        table = builtin("T0-cotangent").table
        if default_int_limit and digits > default_int_limit:
            with pytest.raises(ParseError, match=f"^integer literal of {digits} digits is too long"):
                parse_expression(out, table)
        else:
            want = parse_expression("9" * a + "*x11", table) * parse_expression("9" * (digits - a) + "*x12", table)
            assert parse_expression(out, table).hbar_coefficient(0) == want

    def test_power_limit_is_a_usage_error(self, cli):
        rc, out, err = cli("star", "P3|4", "--lhs", "(z1+1)^65", "--rhs", "z2")
        assert (rc, out) == (2, "")
        assert f"limit {MAX_BASE_POWER}" in err

    def test_nesting_limit_is_a_usage_error(self, cli):
        for n in (MAX_NESTING + 1, 250):
            lhs = "(" * n + "x11" + ")" * n
            got = cli("star", "T0-cotangent", "--lhs", lhs, "--rhs", "x12")
            assert got == (2, "", f"error: parentheses nest deeper than the limit of {MAX_NESTING}"
                                  f" (column {MAX_NESTING + 1})\n")
        deep = "(" * MAX_NESTING + "x11" + ")" * MAX_NESTING
        assert cli("star", "T0-cotangent", "--lhs", deep, "--rhs", "x12")[0] == 0

    def test_term_limit_is_a_usage_error(self, cli):
        lhs = "(x11+x12+x21+x22+l1+l2)^64"
        rc, out, err = cli("star", "T0-cotangent", "--lhs", lhs, "--rhs", "x21")
        assert (rc, out) == (2, "")
        assert f"limit of {MAX_PARSED_TERMS} terms" in err

    def test_order_above_the_limit_is_an_error(self, cli):
        rc, out, err = cli(
            "star", "T0-cotangent", "--lhs", "x11", "--rhs", "x12", "--order", "100000"
        )
        assert (rc, out, err) == (2, "", f"error: max_order must be at most {MAX_ORDER}, got 100000\n")

    def test_product_at_the_order_limit(self, cli):
        lhs, rhs = f"z1^{MAX_ORDER}", f"z2^{MAX_ORDER}"
        rc, out, err = cli("star", "P3|4", "--lhs", lhs, "--rhs", rhs, "--order", str(MAX_ORDER))
        assert rc == 0
        assert out.startswith(f"z1^{MAX_ORDER}*z2^{MAX_ORDER} + ")
        assert f"hbar^{MAX_ORDER}*l1^{MAX_ORDER}*l2^{MAX_ORDER}" in out
        rc, out, err = cli("star", "P3|4", "--lhs", "z1^300", "--rhs", "z2^300")
        assert (rc, out) == (1, "")
        assert "--order" not in err

    def test_negative_order_is_an_error(self, cli):
        rc, out, err = cli("star", "P3|4", "--lhs", "z1", "--rhs", "z2", "--order", "-1")
        assert rc == 2
        assert "max_order must be non-negative" in err

    def test_expression_errors(self, cli):
        rc, out, err = cli("star", "P3|4", "--lhs", "z1+", "--rhs", "z2")
        assert rc == 2
        assert "error:" in err
        rc, out, err = cli("comm", "P3|4", "--a", "z1/xi1", "--b", "z2")
        assert rc == 2

    def test_missing_operand(self, cli):
        rc, out, err = cli("comm", "P3|4", "--a", "z1")
        assert rc == 2
        assert "missing --b" in err
        rc, out, err = cli("star", "P3|4", "--lhs")
        assert rc == 2
        assert "--lhs needs a value" in err


class TestCyCommand:
    def test_projective(self, cli):
        assert cli("cy", "--projective", "3", "4") == (0, "0\n", "")
        rc, out, err = cli("cy", "--projective", "3", "5")
        assert (rc, out) == (1, "-1\n")

    def test_weighted(self, cli):
        rc, out, err = cli("cy", "--weighted", "1", "1", "1", "1", "--", "1", "3")
        assert (rc, out) == (0, "0\n")
        rc, out, err = cli("cy", "--weighted", "2", "2", "--", "1")
        assert (rc, out) == (1, "3\n")

    def test_ambitwistor(self, cli):
        assert cli("cy", "--ambitwistor", "3") == (0, "0 0\n", "")
        rc, out, err = cli("cy", "--ambitwistor", "1")
        assert (rc, out) == (1, "2 2\n")

    def test_json(self, cli):
        rc, out, err = cli("cy", "--ambitwistor", "1", "--json")
        assert out == '{"index": [2, 2]}\n'

    def test_usage_errors(self, cli):
        assert cli("cy")[0] == 2
        assert cli("cy", "--projective", "3")[0] == 2
        assert cli("cy", "--weighted", "1", "1")[0] == 2
        assert cli("cy", "--projective", "x", "4")[0] == 2


class TestAsciiIntegers:
    """Every integer the command line and model files read is ASCII digits;
    int() alone also reads other scripts' digits, "_" separators and spaces."""

    @pytest.mark.parametrize("value", ["\u0663", "0_1", " 3", "+3", "-"])
    def test_order(self, cli, value):
        rc, out, err = cli("star", "P3|4", "--lhs", "z1", "--rhs", "z2", "--order", value)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: --order needs an integer, got {value!r}\nusage:")
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: --order needs an integer, got {value!r}"
        ]

    @pytest.mark.parametrize("argv, bad", [
        (("--projective", "\u0663", "\u0664"), "\u0663"),
        (("--weighted", "1", "1", "--", "1_0"), "1_0"),
        (("--ambitwistor", "\u0663"), "\u0663"),
    ])
    def test_cy_weights(self, cli, argv, bad):
        assert cli("cy", *argv) == (
            2, "", f"error: cy {argv[0]}: weight {bad!r} is not an integer\n"
        )

    @pytest.mark.parametrize("old, new, line_no, message", [
        ("max_order = 8", "max_order = \u0668", 3, "bad max_order '\u0668'"),
        ("max_order = 8", "max_order = 0_8", 3, "bad max_order '0_8'"),
        ("z1 even weight 1", "z1 even weight \u0661", 6, "bad weight '\u0661'"),
    ])
    def test_model_file(self, cli, tmp_path, old, new, line_no, message):
        text = (_ROOT / "models" / "p3_4.model").read_text()
        assert text.splitlines()[line_no - 1] == old
        path = tmp_path / "digits.model"
        path.write_text(text.replace(old, new, 1))
        assert cli("verify", str(path)) == (2, "", f"error: {path}:{line_no}: {message}\n")


class TestExponentLimit:
    """An exponent past the packed limit is one error line, never a wrap."""

    L = EXPONENT_LIMIT
    RANGE = f"every exponent e has -{L} <= e < {L}"

    def test_parser_names_the_column(self):
        t, L = _table(), self.L
        assert parse_expression(f"w^{L - 1}", t) == t.var("w", L - 1)
        assert parse_expression(f"l^-{L}", t) == t.var("l", -L)
        assert parse_expression(f"w^{L - 1}*l^-{L}/l^-1", t) == t.var("w", L - 1) * t.var("l", 1 - L)
        for text, at in (
            (f"w^{L}", f"{L}"),
            (f"l^-{L + 1}", f"{L + 1}"),
            (f"w^{L - 1}*w", "*"),
            (f"1/l^-{L}", "/"),
            (f"(w^{L - 1} + 1)^2", "2"),
        ):
            with pytest.raises(ParseError) as info:
                parse_expression(text, t)
            assert self.RANGE in info.value.msg
            assert info.value.position == text.rindex(at)

    @pytest.mark.parametrize("lhs, exponent", [
        (f"x11^{EXPONENT_LIMIT + 1}", EXPONENT_LIMIT + 1),
        ("x11^100000000000", 100000000000),
        (f"x11^{EXPONENT_LIMIT - 1}*x11", EXPONENT_LIMIT),
    ])
    def test_operands(self, cli, lhs, exponent):
        rc, out, err = cli("star", "T0-cotangent", "--lhs", lhs, "--rhs", "x12^3")
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: exponent {exponent} of 'x11' is past the exponent limit")
        assert self.RANGE in err and err.count("\n") == 1

    def test_product(self, cli):
        # both operands are in range; their product is not
        rc, out, err = cli("comm", "T0-cotangent", "--a", f"x11^{self.L - 1}", "--b", "x11*x12")
        assert (rc, out) == (2, "")
        assert err == f"error: exponent {self.L} of 'x11' is past the exponent limit: {self.RANGE}\n"

    @pytest.mark.parametrize("entry", [f"D11_12^{EXPONENT_LIMIT}", f"D11_12^{EXPONENT_LIMIT - 1}*D11_12"])
    def test_model_file_names_the_line(self, cli, tmp_path, entry):
        text = (_ROOT / "models" / "t0_cotangent.model").read_text()
        path = tmp_path / "exponent.model"
        path.write_text(text.replace("x11 x12 := D11_12\n", f"x11 x12 := {entry}\n", 1))
        rc, out, err = cli("verify", str(path))
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {path}:35: exponent {self.L} of 'D11_12'")
        assert self.RANGE in err and err.count("\n") == 1


class TestDriver:
    def test_no_arguments_prints_usage(self, cli):
        rc, out, err = cli()
        assert rc == 2
        assert "usage:" in err

    @pytest.mark.parametrize("argv", [
        ("--help",), ("-h",), ("star", "--help"), ("verify", "P3|4", "--help"),
        ("comm", "P3|4", "--a", "z1", "--help"), ("cy", "--help"), ("list-builtins", "--help"),
    ])
    def test_help_prints_the_usage_to_stdout(self, cli, argv):
        rc, out, err = cli(*argv)
        assert (rc, err) == (0, "")
        assert out.startswith("usage: supermoyal <command> [options]\n")
        assert "  -h, --help   print this usage" in out

    def test_unknown_command_and_flag(self, cli):
        assert cli("frobnicate")[0] == 2
        assert cli("verify", "P3|4", "--frob")[0] == 2

    def test_unknown_model(self, cli):
        rc, out, err = cli("verify", "nope")
        assert rc == 2
        assert "no such file or built-in model" in err

    @pytest.mark.parametrize("count", [" 6", "0_6", "\u0666", "+2"])
    def test_odd_dimension_is_ascii_digits(self, cli, count):
        # int() reads each of these as a count
        assert cli("verify", f"P3|N={count}") == (
            2, "", f"error: P3|N=N takes N in the digits 0-9, got {count!r}\n"
        )

    def test_odd_dimension_above_the_bound(self, cli):
        rc, out, err = cli("verify", f"P3|N={MAX_P3N_ODD + 1}")
        assert rc == 2
        assert f"at most N={MAX_P3N_ODD} odd dimensions" in err
        assert out == ""

    @pytest.mark.parametrize("argv, message", [
        (("frobnicate",), "unknown command 'frobnicate'"),
        (("verify", "P3|4", "--frob"), "unknown option --frob"),
        (("verify", "nope"), "no such file or built-in model: nope"),
        (("verify",), "verify takes one model"),
        (("verify", "P3|4", "WP[2,2]"), "verify takes one model"),
        (("star", "--lhs", "z1", "--rhs", "z2"), "expected one model"),
        (("comm", "P3|4", "--a", "z1"), "missing --b"),
        (("star", "P3|4", "--lhs", "z1", "--rhs", "z2", "--order"), "--order needs a value"),
        (("star", "P3|4", "--lhs", "z1", "--rhs", "z2", "--order", "two"),
         "--order needs an integer, got 'two'"),
        (("cy",), "cy needs --projective, --weighted, or --ambitwistor"),
        (("cy", "--projective", "3"), "cy --projective takes DIM and ODD"),
        (("cy", "--weighted", "1", "1"), "cy --weighted separates even and odd weights with --"),
        (("cy", "--ambitwistor"), "cy --ambitwistor takes ODD"),
        (("cy", "--ambitwistor", "1", "2"), "cy --ambitwistor takes ODD"),
        (("list-builtins", "extra"), "list-builtins takes no arguments"),
        (("list-builtins", "--order", "3"), "list-builtins takes no arguments"),
        (("list-builtins", "--json"), "list-builtins takes no arguments"),
        # an option the command does not read is refused, not ignored
        (("verify", "WP[2,2]", "--quiet", "--rhs", "q"), "verify does not take --rhs"),
        (("star", "P3|4", "--lhs", "z1", "--rhs", "z2", "--quiet"), "star does not take --quiet"),
        (("comm", "P3|4", "--a", "z1", "--b", "z2", "--lhs", "nonsense"),
         "comm does not take --lhs"),
        (("cy", "--projective", "3", "4", "--order", "2"), "cy does not take --order"),
        (("cy", "--projective", "3", "4", "--lhs", "x"), "cy does not take --lhs"),
        # an option given twice is refused, not overwritten by the last value
        (("star", "P3|4", "--lhs", "z1", "--lhs", "z2", "--rhs", "z1"), "--lhs is given twice"),
        (("star", "P3|4", "--lhs", "z1", "--rhs", "z2", "--order", "3", "--order", "9"),
         "--order is given twice"),
        (("verify", "P3|4", "--json", "--json"), "--json is given twice"),
        (("comm", "P3|4", "--a", "z1", "--b", "z2", "--b", "z1"), "--b is given twice"),
        (("cy", "--projective", "--ambitwistor", "3"),
         "cy takes one of --projective, --weighted, or --ambitwistor"),
        (("cy", "--projective", "--projective", "3", "4"),
         "cy takes one of --projective, --weighted, or --ambitwistor"),
        # an option the command does not read is named before a repeat
        (("cy", "--projective", "3", "4", "--order", "2", "--order", "3"),
         "cy does not take --order"),
    ])
    def test_argument_errors_print_the_usage(self, cli, argv, message):
        rc, out, err = cli(*argv)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {message}\nusage: supermoyal <command>")
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {message}"]

    @pytest.mark.parametrize("argv, message", [
        (("star", "P3|4", "--lhs", "z1/z2", "--rhs", "z2"),
         "divisor must be a constant or an invertible monomial (column 3)"),
        (("star", "P3|4", "--lhs", "z1/0", "--rhs", "z2"), "division by zero (column 3)"),
        (("comm", "P3|4", "--a", "z1+", "--b", "z2"), "expected a value (column 4)"),
        (("cy", "--projective", "x", "4"), "cy --projective: weight 'x' is not an integer"),
        (("cy", "--weighted", "1", "--", "y"), "cy --weighted: weight 'y' is not an integer"),
        (("cy", "--projective", "-1", "-5"),
         "cy --projective: the dimension must be at least 0, got -1"),
        (("cy", "--projective", "3", "-5"),
         "cy --projective: the odd count must be at least 0, got -5"),
        (("cy", "--ambitwistor", "-2"),
         "cy --ambitwistor: the odd count must be at least 0, got -2"),
        (("cy", "--weighted", "--", "1"),
         "cy --weighted: a weighted system needs at least one even weight"),
        (("cy", "--weighted", "1", "-1", "--"),
         "cy --weighted: an even weight must be at least 1, got -1"),
        (("cy", "--weighted", "1", "--", "-1"),
         "cy --weighted: an odd weight must be at least 0, got -1"),
    ])
    def test_input_errors_print_one_line(self, cli, argv, message):
        assert cli(*argv) == (2, "", f"error: {message}\n")

    def test_list_builtins(self, cli):
        rc, out, err = cli("list-builtins")
        assert rc == 0
        assert tuple(out.split()) == list_builtins()

    @pytest.mark.parametrize("argv, out", [
        (("list-builtins",), "".join(f"{name}\n" for name in list_builtins())),
        (("verify", "models/p3_4.model", "--quiet"), "P3|4: 48 passed, 0 failed, 0 skipped\n"),
    ], ids=["list-builtins", "verify"])
    def test_module_entry_point(self, tmp_path, argv, out):
        # compiled afresh into an empty cache, so that -W error sees every
        # warning a compile raises, such as an invalid escape in a string
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-X", f"pycache_prefix={tmp_path}",
             "-m", "supermoyal", *argv],
            capture_output=True, text=True, cwd=_ROOT,
            env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")

    @pytest.mark.parametrize("argv", [
        ("verify", "P3|N=6"),
        ("star", "P3|4", "--lhs", "z1", "--rhs", "z2"),
    ])
    def test_closed_pipe_ends_quietly(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "supermoyal", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")),
        )
        # with the only read end closed, the first write meets a closed pipe
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        # 128 + SIGPIPE, the status a shell reports for a tool the pipe ended
        assert (proc.wait(timeout=60), err) == (141, "")

    _COMMAND_WORDS = ("verify", "star", "comm", "cy", "list-builtins", "bogus")
    _ARGV_WORDS = _COMMAND_WORDS + (
        "P3|4", "T1-cotangent", "P3|N=1",
        "--order", "--json", "--quiet", "--lhs", "--rhs", "--a", "--b",
        "--projective", "--weighted", "--ambitwistor", "--", "--bogus",
        "0", "1", "3", "-1", "two", "z1", "xi1", "z1*z2", "x11", "1/2", "(z1",
    )

    def test_any_argv_exits_0_1_or_2_and_an_exit_2_names_one_error(self, capsys):
        words = st.sampled_from(self._ARGV_WORDS)
        argvs = st.one_of(
            st.lists(words, max_size=7),
            st.builds(lambda c, rest: [c, *rest], st.sampled_from(self._COMMAND_WORDS),
                      st.lists(words, max_size=6)),
        )

        @settings(max_examples=150, deadline=None)
        @given(argvs)
        def check(argv):
            rc = run(argv)
            err = capsys.readouterr().err
            assert rc in (0, 1, 2)
            if rc == 0:
                assert err == ""
            if rc == 2 and argv:
                assert sum(line.startswith("error:") for line in err.splitlines()) == 1, err

        check()

    def test_main_exits_with_run_code(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["supermoyal", "list-builtins"])
        with pytest.raises(SystemExit) as info:
            main()
        assert info.value.code == 0
        capsys.readouterr()


# every model file and built-in, and P3|N at four odd dimensions
_TARGETS = [
    *(p.name for p in sorted((_ROOT / "models").glob("*.model"))),
    *list_builtins(),
    *(f"P3|N={n}" for n in (1, 6, 12, 16)),
]
# star and comm with left operands of row-degree 0 to 6 on the ladder models,
# and the truncation boundary of P3|4
_PRODUCTS = [
    ("star", "T0-cotangent", "--lhs", "2", "--rhs", "x11*x12*x21*t11"),
    ("comm", "T0-cotangent", "--a", "x12*t21", "--b", "-x11*x12*x21*t11"),
    ("star", "T0-cotangent", "--lhs", "3*x11*x12*x21*x22*t11*t12", "--rhs", "x11*x12*x21*t11"),
    ("comm", "L5|6", "--a", "X1*xi1", "--b", "Y1*Y2*X2*ze1"),
    ("star", "L5|6", "--lhs", "-X1*X2*Y1*xi1*xi2*ze3", "--rhs", "Y1*Y2*X2*ze1"),
    ("star", "P3|4", "--lhs", "z1^7", "--rhs", "z2^7"),
]


class TestCollectorPause:
    """``run`` pauses the cyclic collector for one command: nothing a command
    builds may hold a reference cycle, and the collector's state is restored."""

    @pytest.fixture
    def paused(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @pytest.mark.parametrize("target", _TARGETS)
    def test_verify_leaves_no_cycle(self, cli, paused, target):
        if target.endswith(".model"):
            target = str(_ROOT / "models" / target)
        for order in ((), ("--order", "0"), ("--order", "2")):
            for json_flag in ((), ("--json",)):
                assert cli("verify", target, *order, *json_flag)[0] in (0, 1)
        assert gc.collect() == 0

    def test_star_and_comm_leave_no_cycle(self, cli, paused):
        for argv in _PRODUCTS:
            for json_flag in ((), ("--json",)):
                assert cli(*argv, *json_flag)[0] == 0
        assert gc.collect() == 0

    @pytest.mark.parametrize("argv, rc", [
        (("star", "P3|4", "--lhs", "z1+", "--rhs", "z2"), 2),
        (("verify", "nope"), 2),
        (("star", "P3|4", "--lhs", "z1", "--rhs", "z2", "--order", "0"), 1),
    ], ids=["parse-error", "unknown-model", "truncation"])
    def test_an_error_exit_leaves_no_cycle(self, cli, paused, argv, rc):
        assert cli(*argv)[0] == rc
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_run_restores_the_state_it_found(self, cli, monkeypatch, enabled):
        seen = []

        def handler(opts, positional):
            seen.append(gc.isenabled())
            return 0

        def failing(opts, positional):
            raise RuntimeError("handler failed")

        (gc.enable if enabled else gc.disable)()
        try:
            monkeypatch.setitem(_COMMANDS, "list-builtins", (handler, None))
            assert cli("list-builtins") == (0, "", "")
            assert gc.isenabled() is enabled
            # an exception run does not catch leaves the state as found too
            monkeypatch.setitem(_COMMANDS, "list-builtins", (failing, None))
            with pytest.raises(RuntimeError, match="^handler failed$"):
                run(["list-builtins"])
            assert gc.isenabled() is enabled
            assert cli("verify", "nope")[0] == 2
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen == [False]

    def test_unequal_sides_render_both_texts(self, cli, tmp_path):
        # a failing relation and a failing weight law; equal sides share a text
        text = (_ROOT / "models" / "p3_4.model").read_text()
        edits = (("comm z1 z2 = 2*hbar*l1*l2", "comm z1 z2 = 3*hbar*l1*l2"),
                 ("law plus minus w1 w2 : l^-2", "law plus minus w1 w2 : l^-3"))
        for old, new in edits:
            assert text.count(f"\n{old}\n") == 1
            text = text.replace(f"\n{old}\n", f"\n{new}\n")
        path = tmp_path / "p3_4.model"
        path.write_text(text)
        rc, out, err = cli("verify", str(path), "--json")
        assert (rc, err) == (1, "")
        records = [json.loads(line) for line in out.splitlines()]
        assert [r for r in records if r["status"] == "fail"] == [
            {"check_id": "comm z1 z2", "status": "fail", "lhs": "2*hbar*l1*l2",
             "rhs": "3*hbar*l1*l2", "detail": ""},
            {"check_id": "glue plus minus w1 w2", "status": "fail", "lhs": "2*l^2",
             "rhs": "2*l", "detail": ""},
        ]
        assert all(r["lhs"] == r["rhs"] for r in records if r["status"] == "pass")
