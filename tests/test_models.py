"""Built-in models: frozen tables, fibrations, atlases, and verification."""

import dataclasses
import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from supermoyal import models
from supermoyal.atlas import (
    Chart, TransitionMap, UnresolvedPair, WeightLaw, check_cocycle, check_weight_law,
)
from supermoyal.cli import load_model, render_model_text, render_poly, run
from supermoyal.graded_ring import EVEN, ODD, GradedPoly, VarTable
from supermoyal.models import (
    CYWeights,
    MAX_P3N_ODD,
    Fibration,
    MissingFibration,
    ModelSpec,
    UnknownModel,
    VerificationReport,
    anti_chiral_substitution,
    builtin,
    calabi_yau_index,
    fibration_pullback,
    generic_chart_pair,
    list_builtins,
    quadric_generator,
    verify_model,
)
from supermoyal.moyal import MAX_ORDER, CheckRecord, NonCentralBivector, StarEngine
from supermoyal.poisson import SuperBivector, VariableMismatch, poisson_bracket


def _orbit_name(i, a, j, b):
    rep = min((i, a, j, b), (j, b, i, a), (i, b, j, a), (j, a, i, b))
    return "C{}{}_{}{}".format(*rep)


class TestRegistry:
    def test_builtin_names(self):
        assert list_builtins() == (
            "T0-cotangent", "T1-cotangent", "P3|4",
            "WP[1,3]", "WP[2,2]", "WP[4,0]", "L5|6", "P3|N",
        )

    def test_unknown_model(self):
        # int() reads " 6", "0_6", Arabic-Indic six and "+2" as counts
        for name in ("nope", "P3|N=x", "P3|N= 6", "P3|N=0_6", "P3|N=\u0666", "P3|N=+2", "P3|N="):
            with pytest.raises(UnknownModel):
                builtin(name)

    def test_odd_dimension_argument(self):
        assert builtin("P3|N=2").cy == CYWeights.projective(3, 2)
        assert builtin("P3|N=3").cy == CYWeights.projective(3, 3)

    def test_nonpositive_odd_dimension_rejected(self):
        for name in ("P3|N=0", "P3|N=-2"):
            with pytest.raises(ValueError):
                builtin(name)

    def test_odd_dimension_is_bounded(self):
        assert builtin(f"P3|N={MAX_P3N_ODD}").cy == CYWeights.projective(3, MAX_P3N_ODD)
        with pytest.raises(ValueError, match=f"at most N={MAX_P3N_ODD}"):
            builtin(f"P3|N={MAX_P3N_ODD + 1}")


class TestSharedModels:
    @pytest.mark.parametrize("name", list_builtins())
    def test_each_model_is_built_once(self, name):
        assert builtin(name) is builtin(name)

    def test_p3n_spellings_share_one_model(self):
        assert builtin("P3|N") is builtin("P3|N=4")
        keys = set(models._BUILT)
        assert builtin("P3|N=04") is builtin("P3|N=4")
        assert set(models._BUILT) == keys

    def test_a_rejected_name_is_not_cached(self):
        builtin("P3|N=4")
        built = dict(models._BUILT)
        for name in ("nope", "P3|N=x", "P3|N=0", "P3|N=-2", f"P3|N={MAX_P3N_ODD + 1}",
                     "P3|N= 6", "P3|N=+2"):
            with pytest.raises((UnknownModel, ValueError)):
                builtin(name)
        assert models._BUILT == built

    def test_verification_leaves_the_shared_models_as_they_were(self):
        names = list_builtins()
        first = [verify_model(builtin(n)).records for n in names]
        assert [verify_model(builtin(n)).records for n in names] == first
        shipped = Path(__file__).resolve().parent.parent / "models"
        texts = sorted(p.read_text() for p in shipped.glob("*.model"))
        assert sorted(render_model_text(builtin(n)) for n in names) == texts

    def test_relations_are_the_model_bivector(self):
        for name in list_builtins():
            m = builtin(name)
            assert m.expected_relations is m.bivector, name

    def test_the_table_is_the_bivector_table(self):
        # a model has one table, its bivector's, so no other can be given
        shipped = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.model"))
        for m in [*map(builtin, list_builtins()), *map(load_model, shipped)]:
            assert m.table is m.bivector.table, m.name
        with pytest.raises(TypeError, match="table"):
            dataclasses.replace(builtin("T1-cotangent"), table=builtin("T0-cotangent").table,
                                expected_relations=None)
        with pytest.raises(TypeError, match="^bivector must be a SuperBivector, got dict$"):
            dataclasses.replace(builtin("T0-cotangent"), bivector={})

    def test_mappings_are_read_only(self):
        m, p34 = builtin("T0-cotangent"), builtin("P3|4")
        x = m.table.var("x11")
        for mapping, key in ((m.bivector.entries, ("x11", "x12")),
                             (m.expected_relations.entries, ("x11", "x12")),
                             (m.fibration.rules, "z1"),
                             (p34.transitions[0].rules, "xi1")):
            with pytest.raises(TypeError):
                mapping[key] = x
            with pytest.raises(TypeError):
                del mapping[key]

    def test_attributes_are_read_only(self):
        m = builtin("P3|4")
        t, tmap = m.table, m.transitions[0]
        z1, z2, w1 = t.var("z1"), t.var("z2"), tmap.src.table.var("w1")
        before = StarEngine(m.bivector).star(z1, z2), poisson_bracket(m.bivector, z1, z2)
        moved = tmap.apply(w1)
        objects = [(m.bivector, ("table", "entries", "parity", "is_central", "_d_e",
                                  "_row_names", "_rows", "_blocks", "_refusal")),
                   (t, ("specs", "n_even", "_index")),
                   (m.charts[0], ("name", "table", "bivector")),
                   (tmap, ("src", "dst", "plan", "rules")),
                   (tmap.plan, ("src", "target", "mapping", "_powers"))]
        for obj, attrs in objects:
            for attr in attrs:
                value = getattr(obj, attr)
                with pytest.raises(AttributeError, match="is read-only"):
                    setattr(obj, attr, ())
                with pytest.raises(AttributeError, match="is read-only"):
                    delattr(obj, attr)
                assert getattr(obj, attr) is value
        m = builtin("P3|4")
        assert (StarEngine(m.bivector).star(z1, z2), poisson_bracket(m.bivector, z1, z2)) == before
        assert StarEngine(SuperBivector(t, m.bivector.entries)).star(z1, z2) == before[0]
        assert m.transitions[0].apply(w1) == moved

    def test_a_terms_view_leaves_the_shared_polynomial(self):
        p = builtin("P3|4").bivector.entry("z1", "z2")
        p.terms.clear()
        assert p.terms is not p.terms
        assert render_poly(GradedPoly(p.table, p.terms)) == render_poly(p) == "2*l1*l2"

    def test_replace_derives_a_model_and_leaves_the_shared_one(self):
        m = builtin("T0-cotangent")
        relations = dict(m.expected_relations.entries)
        del relations["x11", "x12"], relations["x12", "x11"]
        derived = dataclasses.replace(m, expected_relations=SuperBivector(m.table, relations))
        assert derived is not m and builtin("T0-cotangent") is m
        assert m.expected_relations.entry("x11", "x12") == m.table.var("D11_12")
        assert not verify_model(derived).ok
        with pytest.raises(TypeError):
            derived.expected_relations.entries[("x11", "x12")] = m.table.one()


@pytest.mark.parametrize("name", list_builtins())
def test_builtin_verifies_clean(name):
    report = verify_model(builtin(name))
    assert report.ok, report.failures()


class TestVerifyPhases:
    PHASES = ("poisson", "relations", "contract", "glue", "cocycle", "cy")

    def test_phase_names_in_record_order(self):
        assert tuple(name for name, _ in models._PHASES) == self.PHASES

    def test_failures_are_the_failing_records_in_order(self):
        records = tuple(CheckRecord(f"check {s}", "poisson", s) for s in
                        ("pass", "fail", "skip", "fail"))
        report = VerificationReport("m", records)
        assert report.failures() == (records[1], records[3])
        assert not report.ok
        assert VerificationReport("m", records[::2]).failures() == ()

    @pytest.mark.parametrize("name", [*list_builtins(), "P3|N=2"])
    def test_categories_follow_the_phases(self, name):
        # a record's category is its phase, and no phase comes back after a later one
        categories = [r.category for r in verify_model(builtin(name))]
        assert set(categories) <= set(self.PHASES)
        order = [self.PHASES.index(c) for c in categories]
        assert order == sorted(order)


_ROOT = Path(__file__).resolve().parent.parent

# exit code and sha256 of the standard output of `verify NAME` and of
# `verify NAME --json`, run in process
_VERIFY_DIGESTS = {
    "T0-cotangent": (
        0,
        "38c98d816c7eb7a0c079732407e12baca68e23ef9892e6362757fbb052b2e776",
        "477c0f153b8e4fcce485bf3d6c49470a80834a3ed729b9dc1f4575678e7ad903",
    ),
    "T1-cotangent": (
        0,
        "5cc8b8167e5c003c19c5486a6d9b317ab10f3ed79b360588394a0eb82ba2b978",
        "66f0f9bbce2215704e1d4ecc369fa21595075feb059c2c62fe910ecc42f731ed",
    ),
    "P3|4": (
        0,
        "796744ceb62106c0acae788690b7038c6b897673a2048b433257c6f9f8e6b7f0",
        "bb03ea0d534bf74a649aa6c2fc3a733fa9f7eedf967e93c30495f4286621bbb9",
    ),
    "WP[1,3]": (
        0,
        "6d7e5aada90e9db1c49ca1f42641db57b636f042ffada85dc5338e054eb452d1",
        "d8fb311ab9b75b6d4ac8b5519637419000d846adaf3a7c0c320615f4541e1235",
    ),
    "WP[2,2]": (
        0,
        "3885b4c38455739063de6bac88deb22ef830c2c75a2aa53878c8900b6150f83b",
        "a2a3c575a6d9fc7adc4150df0a15ac916e138dd647676879c7197442cb0eb1fd",
    ),
    "WP[4,0]": (
        0,
        "979381c29eae1cb5d05dbeefe0bee136159daf4ee79bcd4c36da8b2ee0da1624",
        "429b5f258086ee209754bad6009c3f6ee39efa9bdffd841d0a9866c16d8382a6",
    ),
    "L5|6": (
        0,
        "fe49f2ff7f6fa6552f9fc0055a8795bc5ea03ddad81035bb9351ce336a0503be",
        "5cebff46f80fd534e7dd25b0a8c58418f941da0a2a2fc4f3487bd6be277fa1b0",
    ),
    "P3|N=1": (
        1,
        "c3d23678b4f75ca52a32805833c7da90706268005e027be8f153326b2dbf3768",
        "198f312655ae4215fc39a7994b33e26421332705a43c865f08ce4636d4ec0417",
    ),
    # the atlas path: transition maps, weight laws and cocycle chains
    "models/p3_n.model": (
        0,
        "3ba880fe67aa3ba95cb7823877b9a98c0ae670cf3948ef266e8c1a84db22982b",
        "c041f946715f49abafd2cebad76cacb3f88267fc2ea44e3d502cb7706f5f6779",
    ),
    "P3|N=6": (
        1,
        "7098320a28a5e8133f27616a40b2e3d470354525ddc7b45040223d9580f41182",
        "f5cdaa10d9296bb66a7dccc3aa86f649d09a12daa644962cb13fceba484d24b4",
    ),
    # the largest atlases: 14 cocycle chains over 250 and 428 variables
    "P3|N=12": (
        1,
        "be852637acde64892fdf81eb241aff75248597e37532ff54ea645f8325be6faf",
        "3bea95444fef0e79e6aa5908d50d586c5c5227e99bacb03b9597b244e733bec7",
    ),
    "P3|N=16": (
        1,
        "5fcb920466e9dd273f7d43082e5a985195aa9d851ce643d1cf2ae97fdc48eb1e",
        "a75851577ed1153824be53545f84e812cc38d8e527b4e92f14139f6733a52cb2",
    ),
}


# each model file prints what its built-in prints, at --order 2 and 16 as at
# its own max_order
_MODEL_FILE_DIGESTS = {
    "models/l5_6.model": "L5|6",
    "models/p3_4.model": "P3|4",
    "models/p3_n.model": "models/p3_n.model",
    "models/t0_cotangent.model": "T0-cotangent",
    "models/t1_cotangent.model": "T1-cotangent",
    "models/wp_1_3.model": "WP[1,3]",
    "models/wp_2_2.model": "WP[2,2]",
    "models/wp_4_0.model": "WP[4,0]",
}


@pytest.mark.parametrize("name, options", [
    *(pytest.param(name, [], id=name) for name in _VERIFY_DIGESTS),
    *(pytest.param(path, ["--order", order], id=f"{path} --order {order}")
      for path in _MODEL_FILE_DIGESTS for order in ("2", "16")),
])
def test_verify_output_is_pinned(capsys, name, options):
    code, text, as_json = _VERIFY_DIGESTS[_MODEL_FILE_DIGESTS.get(name, name)]
    if name.endswith(".model"):
        name = str(_ROOT / name)
    for argv, digest in ((["verify", name, *options], text),
                         (["verify", name, *options, "--json"], as_json)):
        assert run(argv) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_below_the_order_a_product_needs_is_one_error_line(capsys):
    assert run(["verify", str(_ROOT / "models/wp_2_2.model"), "--order", "1"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: series alive past hbar order 1; order 2 suffices for these"
        " operands (use --order 2)\n",
    )


class TestConstantNaming:
    def test_t0_constant_families(self):
        m = builtin("T0-cotangent")
        assert m.constants == (
            "D11_12", "D11_21", "D11_22", "D12_21", "D12_22", "D21_22",
            "C11_11", "C11_12", "C11_21", "C11_22",
            "C12_12", "C12_22", "C21_21", "C21_22", "C22_22",
        )

    def test_p3n_constant_count(self):
        assert len(builtin("P3|N").constants) == 30

    def test_t1_constant_count(self):
        m = builtin("T1-cotangent")
        assert len(m.constants) == 16
        assert m.constants[0] == "B11_11"


class TestT0:
    def test_generator_commutators(self):
        m = builtin("T0-cotangent")
        t = m.table
        eng = StarEngine(m.bivector)
        assert eng.supercommutator(t.var("x11"), t.var("x12")) == t.hbar() * t.var("D11_12")
        assert eng.supercommutator(t.var("t11"), t.var("t11")) == t.hbar() * t.var("C11_11")

    def test_shared_canonical_constant(self):
        m = builtin("T0-cotangent")
        t = m.table
        eng = StarEngine(m.bivector)
        c = t.hbar() * t.var("C11_22")
        assert eng.supercommutator(t.var("t11"), t.var("t22")) == c
        assert eng.supercommutator(t.var("t12"), t.var("t21")) == c

    def test_zero_families(self):
        m = builtin("T0-cotangent")
        t = m.table
        eng = StarEngine(m.bivector)
        for a, b in [("x11", "l1"), ("l1", "l2"), ("x11", "t11"), ("l1", "t22")]:
            assert eng.supercommutator(t.var(a), t.var(b)).is_zero()

    def test_record_ids(self):
        report = verify_model(builtin("T0-cotangent"))
        ids = {r.check_id: r.status for r in report}
        assert ids["comm x11 x12"] == "pass"
        assert ids["anti t11 t11"] == "pass"
        assert ids["comm l1 l2"] == "pass"
        assert ids["poisson [pi,pi]=0"] == "pass"

    def test_symbolic_pullback(self):
        m = builtin("T0-cotangent")
        t = m.table
        got = fibration_pullback(m)
        l1, l2 = t.var("l1"), t.var("l2")
        expect_z = (
            t.var("D11_21") * l1**2
            + (t.var("D11_22") + t.var("D12_21")) * l1 * l2
            + t.var("D12_22") * l2**2
        )
        assert got[("z1", "z2")] == expect_z
        for (i, j), key in [((1, 1), ("xi1", "xi1")), ((1, 2), ("xi1", "xi2")),
                            ((2, 2), ("xi2", "xi2"))]:
            expect_xi = (
                t.var(_orbit_name(i, 1, j, 1)) * l1**2
                + (t.var(_orbit_name(i, 1, j, 2)) * l1 * l2).scale(2)
                + t.var(_orbit_name(i, 2, j, 2)) * l2**2
            )
            assert got[key] == expect_xi
        assert got[("z1", "xi1")].is_zero()
        assert got[("z2", "xi2")].is_zero()


class TestT1:
    def test_mixed_block_relations(self):
        m = builtin("T1-cotangent")
        t = m.table
        eng = StarEngine(m.bivector)
        assert eng.supercommutator(t.var("x11"), t.var("t11")) == t.hbar() * t.var("B11_11")
        assert eng.supercommutator(t.var("x21"), t.var("t12")) == t.hbar() * t.var("B21_12")
        assert eng.supercommutator(t.var("x11"), t.var("x12")).is_zero()
        assert eng.supercommutator(t.var("t11"), t.var("t22")).is_zero()

    def test_associativity_is_skipped_with_detail(self):
        report = verify_model(builtin("T1-cotangent"))
        rec = next(r for r in report if r.check_id == "contract associativity")
        assert rec.status == "skip"
        assert "order 2" in rec.detail

    def test_no_fibration(self):
        with pytest.raises(MissingFibration):
            fibration_pullback(builtin("T1-cotangent"))
        with pytest.raises(MissingFibration, match="^model T1-cotangent declares no fibration$"):
            quadric_generator(builtin("T1-cotangent"))


class TestPullback:
    def test_a_bracket_beyond_hbar_is_refused(self):
        # the star commutator of x^3 and y^3 under {x, y} = 1 has an hbar^3 term
        t = VarTable.build(("x", EVEN), ("y", EVEN))
        pi = SuperBivector(t, {("x", "y"): t.one()})
        fib = Fibration(t, {"u": t.var("x", 3), "v": t.var("y", 3)})
        m = ModelSpec("cubes", (), pi, None, fibration=fib)
        with pytest.raises(ValueError, match=r"^pullback bracket of \(u, v\) is not hbar-linear$"):
            fibration_pullback(m)


class TestP34:
    def test_a_separate_base_needs_its_bracket(self):
        with pytest.raises(ValueError, match="^a base bracket is required for a separate base table$"):
            fibration_pullback(builtin("P3|4"))

    def test_a_fibration_is_whole_when_built(self):
        # each part of a fibration is refused when built, naming the field or the rule
        m = builtin("P3|4")
        bt = m.fibration.base_table
        with pytest.raises(TypeError, match="^fibration must be a Fibration or None, got dict$"):
            dataclasses.replace(m, fibration={})
        with pytest.raises(TypeError, match="^base_table must be a VarTable, got tuple$"):
            Fibration(bt.specs, m.fibration.rules)
        with pytest.raises(TypeError, match="^rule 'z1' must be a GradedPoly, got int$"):
            Fibration(bt, {"z1": 3})
        t0 = builtin("T0-cotangent").table
        with pytest.raises(
            VariableMismatch, match="^rule 'z1' built over a different table than base_table$"
        ):
            Fibration(bt, {"z1": t0.var("x11")})
        assert dataclasses.replace(m, fibration=Fibration(bt, m.fibration.rules)).fibration == m.fibration

    def test_numeric_base_reproduces_the_model(self):
        m = builtin("P3|4")
        bt = m.fibration.base_table
        base = {("x11", "x22"): bt.one(), ("x12", "x21"): bt.one()}
        for i in range(1, 5):
            for a in (1, 2):
                base[(f"t{i}{a}", f"t{i}{a}")] = bt.one()
        got = fibration_pullback(m, base)
        l1, l2 = bt.var("l1"), bt.var("l2")
        assert got[("z1", "z2")] == (l1 * l2).scale(2)
        for i in range(1, 5):
            assert got[(f"xi{i}", f"xi{i}")] == l1**2 + l2**2
        assert got[("z1", "xi1")].is_zero()
        assert got[("xi1", "xi2")].is_zero()
        assert got[("z1", "l1")].is_zero()

    def test_atlas_shape(self):
        m = builtin("P3|4")
        assert tuple(c.name for c in m.charts) == ("plus", "minus")
        assert len(m.transitions) == 2
        assert len(m.weight_laws) == 10

    def test_weight_laws_are_checked_when_the_model_is_built(self):
        # a bad law fails when the spec is built, before verify_model runs a check
        m = builtin("P3|4")
        with pytest.raises(ValueError, match="^no transition from minus to plus$"):
            dataclasses.replace(m, transitions=m.transitions[:1])
        src, dst, law = m.weight_laws[0]
        bad = (src, dst, WeightLaw(("w1", "x"), law.factor))
        with pytest.raises(UnresolvedPair, match="pair \\(w1, x\\) is not resolvable in chart plus"):
            dataclasses.replace(m, weight_laws=m.weight_laws + (bad,))
        assert verify_model(dataclasses.replace(m)).ok

    def test_the_engine_checks_run_when_the_model_is_built(self):
        # a bivector the engine refuses fails when the spec is built, before
        # verify_model runs is_poisson or any other check
        m = builtin("P3|4")
        t = m.table
        for entry, message in ((t.var("z1"), "bivector entries depend on contracted variables"),
                               (t.var("xi1"), r"entry \(z1, z2\) is not even")):
            with pytest.raises(NonCentralBivector, match=f"^{message}$"):
                dataclasses.replace(m, bivector=SuperBivector(t, {("z1", "z2"): entry}))
        with pytest.raises(ValueError, match=f"max_order must be at most {MAX_ORDER}"):
            dataclasses.replace(m, max_order=MAX_ORDER + 1)
        with pytest.raises(ValueError, match="max_order must be non-negative"):
            dataclasses.replace(m, max_order=-1)

    def test_the_other_fields_are_checked_when_the_model_is_built(self):
        # each would otherwise pass verify_model vacuously or fail inside it
        m = builtin("P3|4")
        with pytest.raises(ValueError, match="^constants must name variables of the table, "
                                             "got 'nope'$"):
            dataclasses.replace(m, constants=("nope",))
        with pytest.raises(ValueError, match=r"^transitions must join charts of charts, "
                                             r"got TransitionMap\('plus' -> 'minus'\)$"):
            dataclasses.replace(m, charts=())
        with pytest.raises(ValueError, match="^transitions must join charts of charts"):
            dataclasses.replace(m, charts=m.charts[:1])
        with pytest.raises(TypeError, match="^cy must be a CYWeights or None, got dict$"):
            dataclasses.replace(m, cy={"kind": "projective", "data": (3, 4)})
        with pytest.raises(TypeError, match="^associative must be a bool, got str$"):
            dataclasses.replace(m, associative="no")
        # a model without an atlas, or without a weight system, still builds
        assert verify_model(dataclasses.replace(m, charts=(), transitions=(), weight_laws=())).ok
        assert dataclasses.replace(m, cy=None).cy is None

    def test_a_model_keeps_its_own_tuple_of_each_atlas_sequence(self):
        # a caller's list cannot change under the checked model or its map index
        m = builtin("P3|4")
        given = {"charts": list(m.charts), "transitions": list(m.transitions),
                 "weight_laws": list(m.weight_laws)}
        copy = dataclasses.replace(m, **given)
        for name, items in given.items():
            assert type(getattr(copy, name)) is tuple
            items.clear()
            assert getattr(copy, name) == getattr(m, name)
        assert verify_model(copy).ok

    @pytest.mark.parametrize("charts, transitions", [
        ((0, 1, 2), (0, 1, 2)),  # the index would keep the last plus -> minus map
        ((0, 1, 2), (2, 1, 0)),
        ((0, 1), (0, 0, 1)),     # a file the reader refuses at its second map
        ((0, 1), (0, 1, 3)),
    ])
    def test_charts_and_maps_found_by_name_are_each_named_once(self, charts, transitions):
        m = builtin("P3|4")
        plus, minus = m.charts
        fwd, back = m.transitions
        other = Chart("plus", plus.table, {("w1", "w2"): plus.table.one()})
        bad = TransitionMap(other, minus, fwd.rules)
        chart_of = (plus, minus, other)
        map_of = (fwd, back, bad, TransitionMap(plus, minus, fwd.rules))
        message = "^duplicate chart 'plus'$" if len(charts) == 3 else "^duplicate map plus minus$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(m, charts=tuple(chart_of[i] for i in charts),
                                transitions=tuple(map_of[i] for i in transitions))

    @pytest.mark.parametrize("name", [3, None, ("P3|4",)])
    def test_a_name_that_is_not_a_str_is_refused(self, name):
        with pytest.raises(TypeError, match="^name must be a str, got "):
            dataclasses.replace(builtin("P3|4"), name=name)

    def test_the_phases_read_the_index_the_model_built(self):
        m = builtin("P3|N=6")
        assert dict(m._maps) == {(t.src.name, t.dst.name): t for t in m.transitions}
        with pytest.raises(TypeError):
            m._maps["U1", "U2"] = m.transitions[0]
        derived = dataclasses.replace(m, transitions=m.transitions[:-1], weight_laws=())
        assert len(derived._maps) == len(m.transitions) - 1 and len(m._maps) == 12

    def test_chart_tables(self):
        m = builtin("P3|4")
        plus = m.charts[0]
        ct = plus.table
        assert plus.entry("w1", "w2") == ct.var("l").scale(2)
        assert plus.entry("xi1", "xi1") == ct.one() + ct.var("l") ** 2


class TestWP:
    @pytest.mark.parametrize("name,p,q", [("WP[1,3]", 1, 3), ("WP[2,2]", 2, 2),
                                          ("WP[4,0]", 4, 0)])
    def test_bracket_powers(self, name, p, q):
        m = builtin(name)
        t = m.table
        sq = t.var("l1") ** 2 + t.var("l2") ** 2
        assert m.bivector.entry("xi1", "xi1") == sq**p
        assert m.bivector.entry("xi2", "xi2") == sq**q

    def test_weight_zero_entry_is_constant(self):
        m = builtin("WP[4,0]")
        assert m.bivector.entry("xi2", "xi2") == m.table.one()

    def test_fiber_rules_are_weight_homogeneous(self):
        for name in ("WP[1,3]", "WP[2,2]", "WP[4,0]"):
            m = builtin(name)
            bt = m.fibration.base_table
            slots = [bt.even_slot("l1"), bt.even_slot("l2")]
            for var in ("xi1", "xi2"):
                w = m.table.spec(var).weight
                rule = m.fibration.rules[var]
                for mono in rule.terms:
                    assert sum(mono.even[s] for s in slots) == w

    def test_binomial_base_recovers_the_power(self):
        m = builtin("WP[1,3]")
        bt = m.fibration.base_table
        base = {}
        for idx, w in (("1", 1), ("2", 3)):
            for k, letter in enumerate("abcde"[: w + 1]):
                from math import comb
                base[(f"t{idx}{letter}", f"t{idx}{letter}")] = bt.const(comb(w, k))
        got = fibration_pullback(m, base)
        sq = bt.var("l1") ** 2 + bt.var("l2") ** 2
        assert got[("xi1", "xi1")] == sq
        assert got[("xi2", "xi2")] == sq**3
        assert got[("xi1", "xi2")].is_zero()

    def test_identity_transition_for_weight_zero(self):
        m = builtin("WP[4,0]")
        t_pm = m.transitions[0]
        ct = t_pm.dst.table
        assert t_pm.rules["xi2"] == ct.var("xi2")
        assert t_pm.rules["xi1"] == ct.var("xi1") * ct.var("l", -4)


class TestL56:
    def test_relation_table(self):
        m = builtin("L5|6")
        t = m.table
        eng = StarEngine(m.bivector)
        h = t.hbar()
        l1, l2, m1, m2 = t.var("l1"), t.var("l2"), t.var("m1"), t.var("m2")
        assert eng.supercommutator(t.var("X1"), t.var("X2")) == h * (l1 * l2).scale(2)
        assert eng.supercommutator(t.var("X1"), t.var("Y1")) == h * l2 * m2
        assert eng.supercommutator(t.var("X1"), t.var("Y2")) == h * l1 * m2
        assert eng.supercommutator(t.var("X2"), t.var("Y1")) == -(h * l2 * m1)
        assert eng.supercommutator(t.var("X2"), t.var("Y2")) == -(h * l1 * m1)
        assert eng.supercommutator(t.var("Y1"), t.var("Y2")).is_zero()
        assert eng.supercommutator(t.var("xi1"), t.var("xi1")) == h * (l1**2 + l2**2)
        assert eng.supercommutator(t.var("ze2"), t.var("ze2")) == h * (m1**2 + m2**2)
        assert eng.supercommutator(t.var("xi1"), t.var("ze1")).is_zero()

    def test_quadric_vanishes_identically(self):
        assert quadric_generator(builtin("L5|6")).is_zero()

    def test_chiral_shift_round_trip(self):
        m = builtin("L5|6")
        bt = m.fibration.base_table

        def shift(alpha, adot):
            out = bt.zero()
            for i in (1, 2, 3):
                out = out + bt.var(f"t{i}{adot}") * bt.var(f"e{i}{alpha}")
            return out

        fwd = {f"x{al}{ad}": -shift(al, ad) for al in (1, 2) for ad in (1, 2)}
        back = {name: -s for name, s in fwd.items()}
        basis = [bt.one()] + [bt.var(n) for n in bt.names()]
        names = bt.names()
        for i, a in enumerate(names):
            for b in names[i:]:
                pa, pb = bt.parity(a), bt.parity(b)
                if a == b and pa == ODD:
                    continue
                basis.append(bt.var(a) * bt.var(b))
        for f in basis:
            assert anti_chiral_substitution(back, anti_chiral_substitution(fwd, f)) == f

    def test_relations_are_checked_when_the_model_is_built(self):
        # a relations table that is no bracket table fails when its bivector
        # is built, and the spec takes only a bivector over its own table, so
        # nothing fails partway through verify_model
        m = builtin("L5|6")
        t, pi = m.table, m.expected_relations
        given = {pair: pi.entry(*pair) for pair in pi.canonical_pairs()}
        for key, value, message in (
            (("X1", "Y1"), t.var("l2") * t.var("xi1"), "entries do not share a single bivector parity"),
            (("X1", "X1"), t.one(), r"even diagonal entry \(X1, X1\) must vanish"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                SuperBivector(t, {**given, key: value})
        with pytest.raises(TypeError, match="^expected_relations must be a SuperBivector, got dict$"):
            dataclasses.replace(m, expected_relations=dict(m.expected_relations.entries))
        other = VarTable.build(("X1", EVEN), ("X2", EVEN))
        with pytest.raises(VariableMismatch, match="^expected relations built over a different table$"):
            dataclasses.replace(m, expected_relations=SuperBivector(other, {("X1", "X2"): other.one()}))


class TestP3N:
    def test_atlas_shape(self):
        m = builtin("P3|N")
        assert tuple(c.name for c in m.charts) == ("U1", "U2", "U3", "U4")
        assert len(m.transitions) == 12
        assert len(m.weight_laws) == 60

    def test_declared_law_direction(self):
        m = builtin("P3|N")
        tmap = next(
            t for t in m.transitions if t.src.name == "U4" and t.dst.name == "U3"
        )
        laws = [
            law for s, d, law in m.weight_laws if (s, d) == ("U4", "U3")
        ]
        assert len(laws) == 10
        factor = tmap.src.table.var("z3", -2)
        for law in laws:
            assert law.factor == factor
            ok, want, got = check_weight_law(tmap, law)
            assert ok, (law.pair, want, got)

    def test_all_oriented_three_cycles(self):
        m = builtin("P3|N")
        by = {(t.src.name, t.dst.name): t for t in m.transitions}
        names = [c.name for c in m.charts]
        count = 0
        from itertools import permutations
        for a, b, c in permutations(names, 3):
            if a != min(a, b, c):
                continue
            ok, bad = check_cocycle([by[(a, b)], by[(b, c)], by[(c, a)]])
            assert ok, (a, b, c, bad)
            count += 1
        assert count == 8

    def test_homogeneous_pullback(self):
        m = builtin("P3|N")
        bt = m.fibration.base_table
        base = {}
        for i in range(1, 5):
            for j in range(i, 5):
                for a in (1, 2):
                    for b in (1, 2):
                        if (i, a) <= (j, b):
                            base[(f"t{i}{a}", f"t{j}{b}")] = bt.var(_orbit_name(i, a, j, b))
        got = fibration_pullback(m, base)
        z3, z4 = bt.var("z3"), bt.var("z4")
        for i in range(1, 5):
            for j in range(i, 5):
                expect = (
                    bt.var(_orbit_name(i, 1, j, 1)) * z3**2
                    + (bt.var(_orbit_name(i, 1, j, 2)) * z3 * z4).scale(2)
                    + bt.var(_orbit_name(i, 2, j, 2)) * z4**2
                )
                assert got[(f"xi{i}", f"xi{j}")] == expect

    def test_non_calabi_yau_size_fails_the_index_check(self):
        report = verify_model(builtin("P3|N=2"))
        rec = next(r for r in report if r.check_id == "cy index")
        assert rec.status == "fail"
        assert rec.detail == "2"

    @pytest.mark.parametrize("n, digest", [
        (1, "becb925e936547ae212a54c803974c90bdb5e8e4aac8f79868ebc93cc998215e"),
        (2, "83467b199b292c54ba5ac6601d4c68f8d817c4d2f35f342fb21bead290557a3d"),
        (3, "e74ffd4c304b2b732cf34f8a469bf3b5f7e9aa7be6005571015cbcfe47974009"),
        (4, "e601c9efa32311a86205258c528415eb15e27d3ae760460ceef959c0fb191851"),
        (5, "4a78bc5b8973cc444f7419fa930f11aa38488a16e06ecdf8d9e8e0a39e4608f1"),
        (6, "b781a16cd272a282a87caa61b48491f41d8323b5ae2ba5c40fbf62cf211980f4"),
        (16, "6005fc9bd89994da1a618c74e1ba7c7619981324a62ffd56a0dce2d5a64c15fa"),
    ])
    def test_serialization_is_pinned_beyond_the_shipped_n(self, n, digest):
        # only P3|N=4 is shipped as a file; these pin other sizes byte for byte
        text = render_model_text(builtin(f"P3|N={n}"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _atlas_text(charts, maps, laws) -> str:
    """Every chart, transition rule and weight law of an atlas, one per line."""
    lines = []
    for c in charts:
        lines.append(f"chart {c.name}")
        for name in c.table.names():
            s = c.table.spec(name)
            lines.append(f"var {name} {s.parity} {s.invertible} {s.weight}")
        for a, b in c.bivector.canonical_pairs():
            lines.append(f"table {a} {b} = {render_poly(c.entry(a, b))}")
    for m in maps:
        lines.append(f"map {m.src.name} {m.dst.name}")
        for name, rule in m.rules.items():
            lines.append(f"{name} -> {render_poly(rule)}")
    for src, dst, law in laws:
        lines.append(f"law {src} {dst} {law.pair[0]} {law.pair[1]} : {render_poly(law.factor)}")
    return "\n".join(lines) + "\n"


class TestGenericGluing:
    @pytest.mark.parametrize("n, digest", [
        (1, "d149b93914ae0303aad25f0e1f288ab651ec2b8e4881758711f268a410fc1e00"),
        (2, "6b84c5f4d4d0e9ea39bc0690f15221d56471279118a81da00a6dfb4139ea20f3"),
        (3, "866fcddcd9afb50d4b6811ded69b3113e39617135ca2855c0f69514a00bc5ebc"),
        (4, "2332c626da32f9340bac7972fdc0a7544d34ba34be58e3fcbb76d49a99de7270"),
    ])
    def test_atlas_is_pinned(self, n, digest):
        text = _atlas_text(*generic_chart_pair(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_all_pairs_glue(self):
        (plus, minus), (t_pm, t_mp), laws = generic_chart_pair(2)
        for sname, dname, law in laws:
            tmap = t_pm if sname == "plus" else t_mp
            ok, want, got = check_weight_law(tmap, law)
            assert ok, (sname, law.pair, want, got)

    def test_cross_pair_transport_value(self):
        (plus, minus), (t_pm, _), _ = generic_chart_pair(2)
        ct = minus.table
        factor = plus.table.var("l", -2)
        got = t_pm.apply(factor * plus.entry("xi1", "xi2"))
        expect = (
            ct.var("C11_21") * ct.var("l") ** 2
            + (ct.var("C11_22") * ct.var("l")).scale(2)
            + ct.var("C12_22")
        )
        assert got == expect
        assert got == minus.entry("xi1", "xi2")

    def test_round_trip_cocycle(self):
        _, (t_pm, t_mp), _ = generic_chart_pair(3)
        ok, bad = check_cocycle([t_pm, t_mp])
        assert ok, bad


class TestCYArithmetic:
    def test_projective(self):
        assert calabi_yau_index(CYWeights.projective(3, 4)) == 0
        assert calabi_yau_index(CYWeights.projective(3, 0)) == 4
        assert calabi_yau_index(CYWeights.projective(3, 5)) == -1
        assert calabi_yau_index(CYWeights.projective(2, 4)) == -1
        assert calabi_yau_index(CYWeights.projective(0, 0)) == 1

    def test_weighted(self):
        assert calabi_yau_index(CYWeights.weighted((1, 1, 1, 1), (1, 3))) == 0
        assert calabi_yau_index(CYWeights.weighted((1, 1, 1, 1), (4, 0))) == 0
        assert calabi_yau_index(CYWeights.weighted((2, 2), (1,))) == 3
        assert calabi_yau_index(CYWeights.weighted((1, 1), (3,))) == -1

    def test_ambitwistor(self):
        assert calabi_yau_index(CYWeights.ambitwistor(3)) == (0, 0)
        assert calabi_yau_index(CYWeights.ambitwistor(1)) == (2, 2)
        assert calabi_yau_index(CYWeights.ambitwistor(0)) == (3, 3)

    @pytest.mark.parametrize("make, message", [
        (lambda: CYWeights.projective(-1, 4), "the dimension must be at least 0, got -1"),
        (lambda: CYWeights.projective(3, -5), "the odd count must be at least 0, got -5"),
        (lambda: CYWeights.ambitwistor(-2), "the odd count must be at least 0, got -2"),
        (lambda: CYWeights.weighted((), (1,)), "a weighted system needs at least one even weight"),
        (lambda: CYWeights.weighted((1, 0), (1,)), "an even weight must be at least 1, got 0"),
        (lambda: CYWeights.weighted((1, -1), ()), "an even weight must be at least 1, got -1"),
        (lambda: CYWeights.weighted((1,), (0, -1)), "an odd weight must be at least 0, got -1"),
        (lambda: CYWeights.projective(3.5, 4), "a weight must be an int, got 3.5"),
        (lambda: CYWeights.projective(3, True), "a weight must be an int, got True"),
        (lambda: CYWeights.ambitwistor(Fraction(3)), "a weight must be an int, got Fraction(3, 1)"),
        (lambda: CYWeights.weighted((1.5, 1), (1,)), "a weight must be an int, got 1.5"),
        (lambda: CYWeights.weighted((1, 1), (False,)), "a weight must be an int, got False"),
        (lambda: CYWeights("projective", (3,)),
         "projective data must be (dimension, odd count), got (3,)"),
        (lambda: CYWeights("ambitwistor", 3), "ambitwistor data must be (odd count,), got 3"),
        (lambda: CYWeights("weighted", ((1,),)),
         "weighted data must be (even weights, odd weights), each a tuple, got ((1,),)"),
        (lambda: CYWeights("weighted", ([1], [])),
         "weighted data must be (even weights, odd weights), each a tuple, got ([1], [])"),
    ])
    def test_nonsense_weight_systems_are_refused(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown weight system kind 'spectral'"):
            CYWeights("spectral", ())
        with pytest.raises(ValueError, match=r"unknown weight system kind \['projective'\]"):
            CYWeights(["projective"], (3, 4))


class TestShippedFiles:
    def _dir(self):
        from pathlib import Path

        return Path(__file__).resolve().parent.parent / "models"

    def test_every_builtin_is_shipped(self):
        from supermoyal.cli import parse_model_text

        names = set()
        for path in self._dir().glob("*.model"):
            names.add(parse_model_text(path.read_text(), source=str(path)).name)
        assert names == set(list_builtins())

    def test_files_are_canonical_serializations(self):
        from supermoyal.cli import parse_model_text, render_model_text

        for path in self._dir().glob("*.model"):
            text = path.read_text()
            name = parse_model_text(text, source=str(path)).name
            assert text == render_model_text(builtin(name)), path.name


class TestAntiChiralSubstitution:
    def test_round_trip_is_exact(self):
        t = VarTable.build(("x", EVEN), ("y", EVEN), ("th1", ODD), ("th2", ODD))
        s = t.var("th1") * t.var("th2")
        fwd = {"x": s.scale(3), "y": -s}
        back = {"x": s.scale(-3), "y": s}
        samples = [
            t.var("x") ** 2 * t.var("y"),
            t.var("x") * t.var("th1"),
            (t.var("x") + t.var("y")) ** 3 + t.var("th1") * t.var("th2"),
        ]
        for f in samples:
            assert anti_chiral_substitution(back, anti_chiral_substitution(fwd, f)) == f

    def test_shift_acts(self):
        t = VarTable.build(("x", EVEN), ("th1", ODD), ("th2", ODD))
        s = t.var("th1") * t.var("th2")
        got = anti_chiral_substitution({"x": s}, t.var("x") ** 2)
        assert got == t.var("x") ** 2 + (t.var("x") * s).scale(2)
