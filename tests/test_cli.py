"""Expression syntax, canonical rendering, model files, and the driver."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermoyal.cli import (
    MAX_BASE_POWER,
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
from supermoyal.graded_ring import EVEN, ODD, GradedPoly, Monomial, VarTable
from supermoyal.models import builtin, list_builtins, verify_model


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


class TestParse:
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
        with pytest.raises(ParseError):
            parse_expression("th1^2", _table())

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

    def test_sign_joins(self):
        t = _table()
        p = t.var("w") - t.var("l").scale(3) - t.const(1)
        assert render_poly(p) == "w - 3*l - 1"
        assert render_poly(-p) == "-w + 3*l + 1"

    def test_degree_major_order(self):
        t = _table()
        p = t.const(1) + t.var("w") + t.var("w") ** 2
        assert render_poly(p) == "w^2 + w + 1"

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
                st.integers(min_value=0, max_value=2),
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
        p = GradedPoly(t, {m: c for m, c in terms.items() if c})
        assert parse_expression(render_poly(p), t) == p


class TestModelFiles:
    @pytest.mark.parametrize("name", list_builtins())
    def test_round_trip_is_byte_identical(self, name):
        text = render_model_text(builtin(name))
        assert render_model_text(parse_model_text(text, source=name)) == text

    def test_reloaded_model_still_verifies(self):
        text = render_model_text(builtin("P3|4"))
        report = verify_model(parse_model_text(text))
        assert report.ok, report.failures()

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
        assert parse_model_text(with_empty).expected_relations == {}

    def test_file_round_trip_on_disk(self, tmp_path):
        m = builtin("WP[1,3]")
        path = tmp_path / "wp13.model"
        save_model(m, path)
        again = load_model(path)
        assert render_model_text(again) == path.read_text()
        assert again.name == "WP[1,3]"

    @pytest.mark.parametrize("name", list_builtins())
    def test_shipped_file_matches_the_builtin(self, name):
        path = _ROOT / "models" / f"{_regen_script().slug(name)}.model"
        assert path.read_text() == render_model_text(builtin(name))

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
        self._bad(head + "[bivector]\n\n[weights]\nlaw A B x x : 1\n", "unknown chart")
        self._bad(head + "[bivector]\n\n[transitions]\nx -> x\n", "map line first")


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


class TestVerifyCommand:
    def test_pass_lines_and_summary(self, cli):
        rc, out, err = cli("verify", "P3|4")
        assert rc == 0
        lines = out.splitlines()
        assert "comm z1 z2 = 2*hbar*l1*l2 : pass" in lines
        assert "poisson [pi,pi]=0 : pass" in lines
        assert lines[-1] == "P3|4: 48 passed, 0 failed, 0 skipped"

    def test_quiet_keeps_only_the_summary(self, cli):
        rc, out, err = cli("verify", "WP[2,2]", "--quiet")
        assert rc == 0
        assert out == "WP[2,2]: 29 passed, 0 failed, 0 skipped\n"

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

    def test_corrupt_file_is_a_usage_error(self, cli, tmp_path):
        path = tmp_path / "broken.model"
        path.write_text("[options]\nname = broken\n")
        rc, out, err = cli("verify", str(path))
        assert rc == 2
        assert "missing section" in err


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

    def test_power_limit_is_a_usage_error(self, cli):
        rc, out, err = cli("star", "P3|4", "--lhs", "(z1+1)^65", "--rhs", "z2")
        assert (rc, out) == (2, "")
        assert f"limit {MAX_BASE_POWER}" in err

    def test_term_limit_is_a_usage_error(self, cli):
        lhs = "(x11+x12+x21+x22+l1+l2)^64"
        rc, out, err = cli("star", "T0-cotangent", "--lhs", lhs, "--rhs", "x21")
        assert (rc, out) == (2, "")
        assert f"limit of {MAX_PARSED_TERMS} terms" in err

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


class TestDriver:
    def test_no_arguments_prints_usage(self, cli):
        rc, out, err = cli()
        assert rc == 2
        assert "usage:" in err

    def test_unknown_command_and_flag(self, cli):
        assert cli("frobnicate")[0] == 2
        assert cli("verify", "P3|4", "--frob")[0] == 2

    def test_unknown_model(self, cli):
        rc, out, err = cli("verify", "nope")
        assert rc == 2
        assert "no such file or built-in model" in err

    def test_list_builtins(self, cli):
        rc, out, err = cli("list-builtins")
        assert rc == 0
        assert tuple(out.split()) == list_builtins()

    def test_main_exits_with_run_code(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["supermoyal", "list-builtins"])
        with pytest.raises(SystemExit) as info:
            main()
        assert info.value.code == 0
        capsys.readouterr()
