"""The package's public names: all of them resolve, retired ones stay gone, and
a wrong-typed argument is refused where it enters."""

import pytest

import supermoyal
from supermoyal import atlas, cli, graded_calculus, graded_ring, moyal, poisson
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


def test_render_poly_is_one_function():
    # the ring owns the renderer; cli and the package re-export that object
    assert supermoyal.render_poly is cli.render_poly is graded_ring.render_poly


_T0 = builtin("T0-cotangent")
_X = _T0.table.var("x11")


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
], ids=["bracket-int", "bracket-None", "bracket-bivector", "is_poisson", "schouten",
        "verify_model", "contract", "builtin", "calabi_yau_index", "render_poly",
        "parse-text", "parse-table"])
def test_a_wrong_typed_argument_is_named_where_it_enters(call, message):
    # no AttributeError or unrelated TypeError from deep inside
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message
