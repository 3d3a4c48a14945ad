"""The package's public names: all of them resolve, and retired ones stay gone."""

import supermoyal
from supermoyal import atlas, cli, graded_calculus, graded_ring, moyal, poisson


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
