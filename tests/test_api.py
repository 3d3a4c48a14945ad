"""The package's public names: all of them resolve, retired ones stay gone, and
a wrong-typed argument is refused where it enters."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supermoyal
from supermoyal import atlas, cli, graded_calculus, graded_ring, models, moyal, poisson
from supermoyal.graded_ring import EVEN, VarTable
from supermoyal.models import builtin, calabi_yau_index, verify_model


def test_every_public_name_resolves():
    for name in supermoyal.__all__:
        assert hasattr(supermoyal, name), name


def test_retired_helpers_are_gone():
    for name in (
        "mul", "star", "supercommutator", "bidiff_apply",
        "ContractEntry", "ContractReport", "transport_table", "constant_value", "parity_of",
        "SuperTrivector",
    ):
        assert name not in supermoyal.__all__
        assert not hasattr(supermoyal, name), name
    assert not hasattr(graded_ring, "mul")
    assert not hasattr(moyal, "star")
    assert not hasattr(moyal, "supercommutator")
    assert not hasattr(graded_calculus, "bidiff_apply")
    assert not hasattr(moyal, "ContractEntry")
    assert not hasattr(moyal, "ContractReport")
    assert not hasattr(atlas, "transport_table")
    assert not hasattr(graded_ring.GradedPoly, "constant_value")
    assert not hasattr(graded_ring, "parity_of")
    assert not hasattr(poisson, "SuperTrivector")
    assert not hasattr(graded_ring.VarTable, "monomial_factors")


def test_second_copies_are_gone():
    # the by-name copy of the packed rows, and the cached terms view
    assert not hasattr(poisson.SuperBivector, "steps")
    assert not hasattr(graded_ring.GradedPoly, "_terms")


def test_render_poly_is_one_function():
    # the ring owns the renderer; cli and the package re-export that object
    assert supermoyal.render_poly is cli.render_poly is graded_ring.render_poly


_T0 = builtin("T0-cotangent")
_X = _T0.table.var("x11")
_P34 = builtin("P3|4")
_EVEN0 = (0,) * _P34.table.n_even
# term keys of the right shape whose fields are of the wrong type
_BAD_KEYS = {
    "odd": {(_EVEN0, "x", 0): 1},
    "exponent": {((0.5, *_EVEN0[1:]), 0, 0): 1},
    "hbar": {(_EVEN0, 0, 0.5): 1},
    "even": {(3, 0, 0): 1},
}
# a key whose even part has the wrong length names the table instead
_SHORT_KEY = {(_EVEN0[1:], 0, 0): 1}


@pytest.mark.parametrize("call, message", [
    (lambda: poisson.poisson_bracket(_T0.bivector, _X, 1), "bracket operand must be a GradedPoly, got int"),
    (lambda: poisson.poisson_bracket(_T0.bivector, _X, None),
     "bracket operand must be a GradedPoly, got NoneType"),
    (lambda: poisson.poisson_bracket({}, _X, _X), "bivector must be a SuperBivector, got dict"),
    (lambda: poisson.is_poisson({}), "bivector must be a SuperBivector, got dict"),
    (lambda: poisson.schouten_bracket(_T0.bivector, None),
     "bivector must be a SuperBivector, got NoneType"),
    (lambda: verify_model("T0-cotangent"), "model must be a ModelSpec, got str"),
    (lambda: moyal.check_quantization_contract(_T0), "engine must be a StarEngine, got ModelSpec"),
    (lambda: builtin(3), "name must be a str, got int"),
    (lambda: calabi_yau_index(None), "cy must be a CYWeights, got NoneType"),
    (lambda: graded_ring.render_poly(3), "polynomial must be a GradedPoly, got int"),
    (lambda: cli.parse_expression(3, _T0.table), "text must be a str, got int"),
    (lambda: cli.parse_expression("x11", None), "table must be a VarTable, got NoneType"),
    (lambda: atlas.Chart("A", _T0.table, None), "brackets must be a Mapping, got NoneType"),
    (lambda: graded_ring.GradedPoly(None, {}), "table must be a VarTable, got NoneType"),
    (lambda: graded_ring.GradedPoly(_T0.table, None), "terms must be a Mapping, got NoneType"),
    (lambda: poisson.SuperBivector(None, {}), "table must be a VarTable, got NoneType"),
    (lambda: poisson.SuperBivector(_T0.table, None), "entries must be a Mapping, got NoneType"),
    (lambda: atlas.TransitionMap(None, _P34.charts[0], {}), "src must be a Chart, got NoneType"),
    (lambda: VarTable("x"), "spec must be a VarSpec, got str"),
    (lambda: VarTable.build(("x", EVEN, "yes")), "invertible must be a bool, got str"),
    (lambda: VarTable.build(("x", EVEN, False, 1.5)), "weight must be an int, got float"),
    (lambda: VarTable.build(("x", EVEN, False, True)), "weight must be an int, got bool"),
    (lambda: VarTable.build((3, EVEN)), "name must be a str, got int"),
    (lambda: models.anti_chiral_substitution(None, _X), "shifts must be a Mapping, got NoneType"),
    (lambda: models.anti_chiral_substitution({}, None), "polynomial must be a GradedPoly, got NoneType"),
    (lambda: atlas.check_cocycle("x"), "map must be a TransitionMap, got str"),
    (lambda: atlas.check_weight_law(_P34.transitions[0], None), "law must be a WeightLaw, got NoneType"),
    (lambda: atlas.check_weight_law(None, _P34.weight_laws[0][2]),
     "tmap must be a TransitionMap, got NoneType"),
    (lambda: graded_calculus.d_left("x11", None), "polynomial must be a GradedPoly, got NoneType"),
    (lambda: graded_calculus.d_right("x11", None), "polynomial must be a GradedPoly, got NoneType"),
    (lambda: graded_calculus.d_left(None, _X), "variable must be a str, got NoneType"),
    (lambda: models.fibration_pullback(None), "model must be a ModelSpec, got NoneType"),
    (lambda: models.quadric_generator(None), "model must be a ModelSpec, got NoneType"),
    (lambda: cli.parse_model_text(None), "text must be a str, got NoneType"),
    (lambda: cli.render_model_text(None), "model must be a ModelSpec, got NoneType"),
    (lambda: cli.save_model(None, "unused.model"), "model must be a ModelSpec, got NoneType"),
    (lambda: graded_ring.substitute(None, {}, _T0.table), "polynomial must be a GradedPoly, got NoneType"),
    (lambda: graded_ring.substitute(_X, None, _T0.table), "mapping must be a Mapping, got NoneType"),
    (lambda: graded_ring.substitute(_X, {}, None), "target must be a VarTable, got NoneType"),
    (lambda: _T0.table.var(3), "name must be a str, got int"),
    (lambda: graded_ring.GradedPoly(_T0.table, {"x": 1}), "term key 'x' must be a Monomial"),
    (lambda: poisson.SuperBivector(_P34.table, {("z1",): _P34.table.var("z1")}),
     "entry key ('z1',) must be a pair of variable names"),
    (lambda: atlas.Chart("A", _T0.table, {1: 2}), "entry key 1 must be a pair of variable names"),
    (lambda: models.anti_chiral_substitution({"x11": 1}, _X),
     "shift of 'x11' must be a GradedPoly, got int"),
    (lambda: models.generic_chart_pair({}), "n must be an int, got dict"),
    (lambda: _P34.table.spec(3), "name must be a str, got int"),
    (lambda: _P34.table.parity(3), "name must be a str, got int"),
    (lambda: _P34.table.index(3), "name must be a str, got int"),
    (lambda: graded_ring.GradedPoly(_P34.table, _BAD_KEYS["odd"]), "odd mask must be an int, got str"),
    (lambda: graded_ring.GradedPoly(_P34.table, _BAD_KEYS["exponent"]),
     "even exponent must be an int, got float"),
    (lambda: graded_ring.GradedPoly(_P34.table, _BAD_KEYS["hbar"]), "hbar power must be an int, got float"),
    (lambda: graded_ring.GradedPoly(_P34.table, _BAD_KEYS["even"]),
     "term key (3, 0, 0): even exponents must be a tuple, got int"),
    (lambda: _P34.table.even_slot(3), "name must be a str, got int"),
    (lambda: _P34.table.odd_bit(3), "name must be a str, got int"),
    (lambda: _P34.table.even_slot(["z1"]), "name must be a str, got list"),
    (lambda: dataclasses.replace(_P34, charts=("x",), transitions=(), weight_laws=()),
     "charts[0] must be a Chart, got str"),
    (lambda: dataclasses.replace(_P34, charts=None), "charts must be a Sequence, got NoneType"),
    (lambda: dataclasses.replace(_P34, transitions=(None,)),
     "transitions[0] must be a TransitionMap, got NoneType"),
    (lambda: dataclasses.replace(_P34, weight_laws=("x",)),
     "weight_laws[0] must be a (str, str, WeightLaw), got str"),
    (lambda: dataclasses.replace(_P34, weight_laws=(("plus", "minus", 1),)),
     "weight_laws[0] must be a (str, str, WeightLaw), got (str, str, int)"),
    (lambda: dataclasses.replace(_P34, associative="no"), "associative must be a bool, got str"),
    (lambda: models.Fibration(_P34.fibration.base_table, None), "rules must be a Mapping, got NoneType"),
    (lambda: moyal.check_quantization_contract(moyal.StarEngine(_T0.bivector), "no"),
     "associativity must be a bool, got str"),
    (lambda: dataclasses.replace(_P34, constants=None), "constants must be a Sequence, got NoneType"),
    (lambda: dataclasses.replace(_P34, constants=(["l1"],)), "constants[0] must be a str, got list"),
    (lambda: dataclasses.replace(_P34, constants="l1"),
     "constants must be a Sequence other than str, got str"),
    (lambda: dataclasses.replace(_P34, constants=""), "constants must be a Sequence other than str, got str"),
    (lambda: atlas.WeightLaw(None, 3.5), "pair must be a (str, str), got NoneType"),
    (lambda: atlas.WeightLaw("w1", _X), "pair must be a (str, str), got str"),
    (lambda: atlas.WeightLaw(("w1",), _X), "pair must be a (str, str), got (str)"),
    (lambda: atlas.WeightLaw(("w1", 2), _X), "pair must be a (str, str), got (str, int)"),
    (lambda: atlas.WeightLaw(("w1", "w2"), 3.5), "factor must be a GradedPoly, got float"),
    (lambda: moyal.CheckRecord(1, 2, 3, 4, 5), "check_id must be a str, got int"),
    (lambda: moyal.CheckRecord("id", None, "pass"), "category must be a str, got NoneType"),
    (lambda: moyal.CheckRecord("id", "contract", 3), "status must be a str, got int"),
    (lambda: moyal.CheckRecord("id", "contract", "pass", detail=5), "detail must be a str, got int"),
    (lambda: moyal.CheckRecord("id", "contract", "pass", lhs=4), "lhs must be a GradedPoly or None, got int"),
    (lambda: moyal.CheckRecord("id", "contract", "pass", _X, "x"),
     "rhs must be a GradedPoly or None, got str"),
], ids=["bracket-int", "bracket-None", "bracket-bivector", "is_poisson", "schouten",
        "verify_model", "contract", "builtin", "calabi_yau_index", "render_poly",
        "parse-text", "parse-table", "chart-brackets", "poly-table", "poly-terms",
        "bivector-table", "bivector-entries", "map-src", "table-specs", "spec-invertible",
        "spec-weight-float", "spec-weight-bool", "spec-name", "shift-shifts", "shift-poly",
        "cocycle", "weight-law-law", "weight-law-map", "d_left-poly", "d_right-poly",
        "d_left-variable", "pullback", "quadric", "parse-model", "render-model", "save-model",
        "substitute-poly", "substitute-mapping", "substitute-target", "var-name", "poly-term-key",
        "bivector-entry-key", "chart-entry-key", "shift-value", "chart-pair-n", "table-spec",
        "table-parity", "table-index", "term-key-odd", "term-key-exponent", "term-key-hbar",
        "term-key-even", "table-even-slot", "table-odd-bit",
        "table-even-slot-list", "model-chart", "model-charts", "model-transition",
        "model-weight-law", "model-weight-law-entry", "model-associative", "fibration-rules",
        "contract-associativity", "model-constants", "model-constant", "model-constants-str",
        "model-constants-empty-str", "law-pair-None", "law-pair-str", "law-pair-short",
        "law-pair-entry", "law-factor", "record-check-id",
        "record-category", "record-status", "record-detail", "record-lhs", "record-rhs"])
def test_a_wrong_typed_argument_is_named_where_it_enters(call, message):
    # no AttributeError or unrelated TypeError from deep inside
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


def test_a_key_of_the_wrong_length_names_the_key_and_the_table():
    with pytest.raises(ValueError) as info:
        graded_ring.GradedPoly(_P34.table, _SHORT_KEY)
    assert str(info.value) == f"((0, 0, 0), 0, 0) is not a monomial over {_P34.table!r}"


def test_a_record_status_is_pass_fail_or_skip():
    with pytest.raises(ValueError) as info:
        moyal.CheckRecord("id", "contract", "passed")
    assert str(info.value) == "status must be pass, fail or skip, got 'passed'"
    for status in ("pass", "fail", "skip"):
        assert moyal.CheckRecord("id", "contract", status, _X, None, "detail").status == status


def test_model_constants_are_kept_as_a_tuple():
    # a caller's list is copied, not kept by reference
    names = list(_P34.constants)
    model = dataclasses.replace(_P34, constants=names)
    names.append("z1")
    assert model.constants == _P34.constants and type(model.constants) is tuple


def test_a_weight_law_pair_is_kept_as_a_tuple():
    law = _P34.weight_laws[0][2]
    pair = list(law.pair)
    copy = atlas.WeightLaw(pair, law.factor)
    pair.append("z1")
    assert copy == law and type(copy.pair) is tuple


@pytest.mark.parametrize("call, message", [
    (lambda: _P34.table.even_slot("xi1"), "'xi1' is an odd variable, not an even one"),
    (lambda: _P34.table.odd_bit("z1"), "'z1' is an even variable, not an odd one"),
    (lambda: _P34.table.even_slot("q"), "q"),
    (lambda: _P34.table.odd_bit("q"), "q"),
    (lambda: _P34.table.index("q"), "q"),
    (lambda: _P34.bivector.entry("nope", "z1"), "nope"),
    (lambda: _P34.bivector.entry("z1", "nope"), "nope"),
    (lambda: _P34.charts[0].entry("w1", "q"), "q"),
], ids=["even-slot-of-odd", "odd-bit-of-even", "even-slot-unknown", "odd-bit-unknown",
        "index-unknown", "entry-unknown-row", "entry-unknown-partner", "chart-entry-unknown"])
def test_a_slot_lookup_names_the_variable_and_its_parity(call, message):
    # as spec does: an unknown name is the KeyError of the name itself
    with pytest.raises(KeyError) as info:
        call()
    assert info.value.args == (message,)


@pytest.mark.parametrize("a, b", [(1, "z1"), ("z1", None), (["z1"], "z1")])
def test_an_entry_by_a_name_that_is_not_a_str_is_refused(a, b):
    with pytest.raises(TypeError, match="^name must be a str, got "):
        _P34.bivector.entry(a, b)


def test_an_unset_entry_between_declared_names_is_zero():
    assert _P34.bivector.entry("z1", "xi1") == _P34.table.zero()


_PUBLIC_CALLABLES = [
    obj for obj in (getattr(supermoyal, name) for name in supermoyal.__all__)
    if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException))
]


def test_no_public_callable_ends_in_an_attribute_error(tmp_path, monkeypatch):
    # save_model(model, "x") writes to a relative path: keep it out of the checkout
    monkeypatch.chdir(tmp_path)
    # the mappings are non-empty and wrong: keys that are no monomial, pair or
    # name, monomial keys with a field of the wrong type, and values that are
    # no polynomial; a table lets a constructor reach its keys
    values = st.sampled_from([None, 1, 1.0, True, "x", {}, _P34, _P34.table, {"x": 1}, {1: 2},
                              {("z1",): _X}, {("x11", "x12"): 1}, {"x11": 1},
                              *_BAD_KEYS.values()])

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(_PUBLIC_CALLABLES), st.lists(values, max_size=4))
    def call(fn, args):
        try:
            fn(*args)
        except AttributeError as err:
            raise AssertionError(f"{fn.__name__}{tuple(args)!r}: {err!r}") from err
        except (TypeError, ValueError) as err:
            # a failed unpacking or an operator refused deep inside names
            # neither the key nor the value
            if any(s in str(err) for s in ("unpack", "not supported between", "unsupported operand")):
                raise AssertionError(f"{fn.__name__}{tuple(args)!r}: {err!r}") from err
        except Exception:
            pass  # any other error names what is wrong

    call()
