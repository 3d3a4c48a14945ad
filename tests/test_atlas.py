"""Chart gluing: transports, weight laws, and cocycle identities."""

import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermoyal import models
from supermoyal.atlas import (
    Chart,
    NonComposableCycle,
    TransitionMap,
    UnresolvedPair,
    WeightLaw,
    check_cocycle,
    check_weight_law,
)
from supermoyal.graded_ring import (
    EVEN,
    ODD,
    GradedPoly,
    Monomial,
    NonInvertibleSubstitution,
    ParityMismatch,
    SubstitutionPlan,
    VarSpec,
    VarTable,
    substitute,
)
from supermoyal.models import (
    MAX_P3N_ODD,
    _c_names,
    _projective_atlas,
    _quadratic_odd_entries,
    builtin,
    generic_chart_pair,
    list_builtins,
)
from supermoyal.poisson import SuperBivector


def _pole_table():
    return VarTable.build(
        ("w1", EVEN), ("w2", EVEN), ("l", EVEN, True),
        ("xi1", ODD), ("xi2", ODD),
        ("C11", EVEN), ("C12", EVEN), ("C22", EVEN),
    )


def _quadratic(t, up: bool):
    l = t.var("l")
    c11, c12, c22 = t.var("C11"), t.var("C12"), t.var("C22")
    if up:
        return c11 + (c12 * l).scale(2) + c22 * l**2
    return c11 * l**2 + (c12 * l).scale(2) + c22


def _pole_rules(dst):
    inv = dst.var("l", -1)
    rules = {"l": inv}
    for name in ("w1", "w2", "xi1", "xi2"):
        rules[name] = dst.var(name) * inv
    return rules


def two_pole_pair():
    tp, tm = _pole_table(), _pole_table()
    plus = Chart("plus", tp, {
        ("w1", "w2"): tp.var("l").scale(2),
        ("xi1", "xi1"): _quadratic(tp, up=True),
    })
    minus = Chart("minus", tm, {
        ("w1", "w2"): tm.var("l").scale(2),
        ("xi1", "xi1"): _quadratic(tm, up=False),
    })
    t_pm = TransitionMap(plus, minus, _pole_rules(tm))
    t_mp = TransitionMap(minus, plus, _pole_rules(tp))
    return plus, minus, t_pm, t_mp


class TestTransport:
    def test_quadratic_entry_transports_to_the_other_pole(self):
        plus, minus, t_pm, _ = two_pole_pair()
        factor = plus.table.var("l", -2)
        got = t_pm.apply(factor * plus.entry("xi1", "xi1"))
        assert got == minus.entry("xi1", "xi1")

    def test_even_entry_transports_with_the_same_factor(self):
        plus, minus, t_pm, _ = two_pole_pair()
        factor = plus.table.var("l", -2)
        got = t_pm.apply(factor * plus.entry("w1", "w2"))
        assert got == minus.entry("w1", "w2")

    def test_transport_is_multiplicative(self):
        plus, _, t_pm, _ = two_pole_pair()
        t = plus.table
        p = t.var("w1") + t.var("xi1") * t.var("xi2")
        q = t.var("l") ** 2
        assert t_pm.apply(p * q) == t_pm.apply(p) * t_pm.apply(q)


class TestWeightLaw:
    def test_declared_laws_hold(self):
        plus, minus, t_pm, _ = two_pole_pair()
        factor = plus.table.var("l", -2)
        for pair in [("xi1", "xi1"), ("w1", "w2")]:
            ok, expected, got = check_weight_law(t_pm, WeightLaw(pair, factor))
            assert ok, (pair, expected, got)

    def test_wrong_exponent_fails(self):
        plus, minus, t_pm, _ = two_pole_pair()
        factor = plus.table.var("l", -1)
        ok, _, _ = check_weight_law(t_pm, WeightLaw(("xi1", "xi1"), factor))
        assert not ok

    def test_unknown_pair_is_reported(self):
        plus, minus, t_pm, _ = two_pole_pair()
        factor = plus.table.one()
        with pytest.raises(UnresolvedPair):
            check_weight_law(t_pm, WeightLaw(("xi1", "bogus"), factor))


def projective_three_charts():
    charts = {}
    for k in (1, 2, 3):
        others = [m for m in (1, 2, 3) if m != k]
        t = VarTable.build(*((f"z{m}", EVEN, True) for m in others))
        charts[k] = Chart(f"U{k}", t, {})
    maps = {}
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            if k == l:
                continue
            dst = charts[l].table
            zk_inv = dst.var(f"z{k}", -1)
            rules = {f"z{l}": zk_inv}
            for m in (1, 2, 3):
                if m not in (k, l):
                    rules[f"z{m}"] = dst.var(f"z{m}") * zk_inv
            maps[(k, l)] = TransitionMap(charts[k], charts[l], rules)
    return charts, maps


class TestCocycle:
    def test_two_pole_round_trip(self):
        _, _, t_pm, t_mp = two_pole_pair()
        ok, bad = check_cocycle([t_pm, t_mp])
        assert ok, bad

    def test_projective_three_cycle(self):
        _, maps = projective_three_charts()
        ok, bad = check_cocycle([maps[(1, 2)], maps[(2, 3)], maps[(3, 1)]])
        assert ok, bad
        ok, bad = check_cocycle([maps[(1, 3)], maps[(3, 2)], maps[(2, 1)]])
        assert ok, bad

    def test_tampered_rule_is_caught(self):
        charts, maps = projective_three_charts()
        dst = charts[2].table
        zk_inv = dst.var("z1", -1)
        broken = TransitionMap(
            charts[1], charts[2],
            {"z2": zk_inv, "z3": dst.var("z3") * dst.var("z1", -2)},
        )
        ok, bad = check_cocycle([broken, maps[(2, 3)], maps[(3, 1)]])
        assert not ok
        assert bad == "z3"

    def test_open_chain_is_rejected(self):
        _, maps = projective_three_charts()
        with pytest.raises(NonComposableCycle):
            check_cocycle([maps[(1, 2)], maps[(3, 1)]])
        with pytest.raises(NonComposableCycle):
            check_cocycle([maps[(1, 2)], maps[(2, 3)]])
        with pytest.raises(NonComposableCycle):
            check_cocycle([])


class TestValidation:
    def test_parity_changing_rule_is_rejected(self):
        plus, minus, _, _ = two_pole_pair()
        with pytest.raises(ParityMismatch, match="'xi1' is odd but its replacement is even"):
            TransitionMap(plus, minus, {"xi1": minus.table.var("l")})

    def test_foreign_value_table_is_rejected(self):
        plus, minus, _, _ = two_pole_pair()
        other = VarTable.build(("q", EVEN, True))
        with pytest.raises(ValueError):
            TransitionMap(plus, minus, {"l": other.var("q")})

    def test_unknown_rule_key_is_rejected(self):
        plus, minus, _, _ = two_pole_pair()
        with pytest.raises(KeyError, match="unknown variable 'nope'"):
            TransitionMap(plus, minus, {"nope": minus.table.var("l")})

    def test_missing_rule_is_rejected(self):
        plus, minus, _, _ = two_pole_pair()
        other = Chart("other", VarTable.build(("l", EVEN, True)), {})
        rules = {"l": other.table.var("l", -1)}
        with pytest.raises(KeyError, match="variable 'w1' has no rule and chart other lacks it"):
            TransitionMap(plus, other, rules)

    def test_a_value_that_is_not_a_polynomial_is_refused(self):
        plus, minus, _, _ = two_pole_pair()
        with pytest.raises(TypeError, match=r"^entry \(w1, w2\) must be a GradedPoly, got int$"):
            Chart("c", plus.table, {("w1", "w2"): 1})
        with pytest.raises(TypeError, match="^replacement for 'l' must be a GradedPoly, got int$"):
            TransitionMap(plus, minus, {"l": 2})

    def test_apply_requires_source_polynomials(self):
        _, _, t_pm, _ = two_pole_pair()
        other = VarTable.build(("q", EVEN))
        with pytest.raises(ValueError):
            t_pm.apply(other.var("q"))


class TestProjectiveAtlas:
    """The atlas builder on P^4|2, a cover no built-in model uses."""

    @staticmethod
    def _p4_2():
        decls = [(f"z{k}", EVEN, False, 1) for k in range(1, 6)]
        decls += [(f"xi{i}", ODD, False, 1) for i in (1, 2)]
        decls += [(c, EVEN) for c in _c_names(2)]
        t = VarTable.build(*decls)
        pi = SuperBivector(t, _quadratic_odd_entries(t, 2, t.var("z4"), t.var("z5")))
        return _projective_atlas(
            pi, tuple(f"z{k}" for k in range(1, 6)), tuple(f"U{k}" for k in range(1, 6)), {},
            tuple((m, k) for k, m in combinations(range(5), 2)), False,
        )

    def test_five_chart_cover_glues(self):
        charts, maps, laws = self._p4_2()
        assert len(charts) == 5
        assert len(maps) == 20
        by = {(m.src.name, m.dst.name): m for m in maps}
        names = [c.name for c in charts]
        chains = list(combinations(names, 2))
        for a, b, c in combinations(names, 3):
            chains += [(a, b, c), (a, c, b)]
        assert len(chains) == 30
        for chain in chains:
            ok, bad = check_cocycle([by[hop] for hop in zip(chain, chain[1:] + chain[:1])])
            assert ok, (chain, bad)
        assert len(laws) == 30
        for src, dst, law in laws:
            ok, want, got = check_weight_law(by[src, dst], law)
            assert ok, (src, dst, law.pair, want, got)

    def test_a_wrong_factor_fails(self):
        charts, maps, laws = self._p4_2()
        src, dst, law = laws[0]
        tmap = next(m for m in maps if (m.src.name, m.dst.name) == (src, dst))
        assert law.factor == tmap.src.table.var("z1", -2)
        wrong = WeightLaw(law.pair, tmap.src.table.var("z1", -1))
        assert not check_weight_law(tmap, wrong)[0]


# -- one transport per mirror pair --------------------------------------------

def _every_entry_transported(pi, pole, rename, ct):
    """A chart's entries, every entry of ``pi`` and its mirror transported on
    its own, the zero ones dropped: what the atlas builder made before it
    left each mirror to the chart's bivector."""
    local = {s.name: rename.get(s.name, s.name) for s in pi.table.specs}
    mapping = {name: ct.var(local[name]) for name in rename if name in pi.table and name != pole}
    mapping[pole] = ct.one()
    plan = SubstitutionPlan(pi.table, mapping, ct)
    entries = {(local[a], local[b]): plan.apply(e) for (a, b), e in pi.entries.items()}
    return {key: e for key, e in entries.items() if e}


def test_every_chart_holds_every_transported_entry(monkeypatch):
    built = []
    real = models._projective_atlas

    def spy(pi, poles, *args):
        atlas = real(pi, poles, *args)
        built.append((pi, poles, args[1], atlas[0]))
        return atlas

    monkeypatch.setattr(models, "_projective_atlas", spy)
    monkeypatch.setattr(sys.modules[__name__], "_projective_atlas", spy)
    for name in list_builtins():
        if name != "P3|N":
            models._BUILTINS[name]()
    for n in (1, 4, MAX_P3N_ODD):
        models._p3n_model(n)
    for n in (1, 2, 3, 4):
        generic_chart_pair(n)
    TestProjectiveAtlas._p4_2()
    assert [len(charts) for *_, charts in built] == [2] * 4 + [4] * 3 + [2] * 4 + [5]
    for pi, poles, rename, charts in built:
        for pole, chart in zip(poles, charts):
            assert dict(chart.bivector.entries) == _every_entry_transported(
                pi, pole, rename, chart.table)


# -- one substitution plan per map ---------------------------------------------

def _plan_maps():
    """Transition maps of the P3|N charts and of generic chart pairs.

    The last one divides by a unit with a nilpotent tail, so its negative
    powers run the geometric series.
    """
    maps = [m for n in (1, 3) for m in builtin(f"P3|N={n}").transitions]
    for n in (1, 2):
        maps += generic_chart_pair(n)[1]
    t_pm = generic_chart_pair(2)[1][0]
    dt = t_pm.dst.table
    rules = dict(t_pm.rules)
    rules["l"] = rules["l"] * (dt.one() + dt.var("C11_21") * dt.var("xi1") * dt.var("xi2"))
    maps.append(TransitionMap(t_pm.src, t_pm.dst, rules))
    return maps


PLAN_MAPS = _plan_maps()


@st.composite
def _map_and_polys(draw):
    """A fresh copy of a map and polynomials over its source chart."""
    tmap = draw(st.sampled_from(PLAN_MAPS))
    t = tmap.src.table
    invertible = [t.spec(n).invertible for n in t.even_names()]

    def monomial():
        even = tuple(
            draw(st.integers(-3 if inv else 0, 3)) for inv in invertible
        )
        odd = draw(st.integers(0, (1 << t.n_odd) - 1))
        return Monomial(even, odd, draw(st.integers(0, 2)))

    coeffs = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4))
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        terms = {monomial(): draw(coeffs) for _ in range(draw(st.integers(1, 3)))}
        polys.append(GradedPoly(t, terms))
    order = draw(st.lists(st.integers(0, len(polys) - 1), min_size=1, max_size=8))
    return TransitionMap(tmap.src, tmap.dst, tmap.rules), [polys[i] for i in order]


def _same(a, b):
    assert a == b
    assert {m: type(c) for m, c in a.terms.items()} == {m: type(c) for m, c in b.terms.items()}


class TestSubstitutionPlan:
    @settings(max_examples=60, deadline=None)
    @given(_map_and_polys())
    def test_apply_matches_a_fresh_substitution(self, drawn):
        tmap, polys = drawn
        for p in polys:
            _same(tmap.apply(p), substitute(p, tmap.rules, target=tmap.dst.table))

    def test_positive_and_negative_powers_are_kept_apart(self):
        for tmap in PLAN_MAPS:
            tmap = TransitionMap(tmap.src, tmap.dst, tmap.rules)
            t = tmap.src.table
            for name in t.even_names():
                powers = (1, 2, -1, -2, 1) if t.spec(name).invertible else (1, 2, 1)
                for e in powers:
                    p = t.var(name, e)
                    _same(tmap.apply(p), substitute(p, tmap.rules, target=tmap.dst.table))

    def test_a_power_that_cannot_be_inverted_raises_every_time(self):
        t_pm = generic_chart_pair(1)[1][0]
        tmap = TransitionMap(t_pm.src, t_pm.dst, t_pm.rules)
        t = tmap.src.table
        c = t.var("C11_11")
        assert tmap.apply(c) == tmap.dst.table.var("C11_11")
        # C11_11 is carried over and not invertible; w1 maps to w1 l^-1
        for name in ("C11_11", "w1"):
            even = [0] * t.n_even
            even[t.even_slot(name)] = -1
            inverse = GradedPoly(t, {Monomial(tuple(even), 0, 0): 1})
            for _ in range(2):
                with pytest.raises(NonInvertibleSubstitution):
                    tmap.apply(inverse)
        assert tmap.apply(c) == tmap.dst.table.var("C11_11")


# -- the cocycle check against the hop-by-hop loop -------------------------------

def _hop_by_hop_cocycle(maps):
    """The cocycle check, on a chain it accepts, transporting every
    variable through every hop."""
    table = maps[0].src.table
    for name in table.names():
        p = table.var(name)
        for tmap in maps:
            p = tmap.apply(p)
        if p != table.var(name):
            return False, name
    return True, ""


def _outcome(check, maps):
    try:
        return check(maps)
    except Exception as exc:  # the exception is compared, not swallowed
        return type(exc), str(exc)


def _agree(maps):
    """check_cocycle's outcome, asserted equal to the hop-by-hop loop's."""
    got = _outcome(check_cocycle, maps)
    assert got == _outcome(_hop_by_hop_cocycle, maps), maps
    return got


def _chains(transitions, rotations):
    """Closed chains of 2 and 3 distinct charts: verify's set, or every rotation."""
    by = {(m.src.name, m.dst.name): m for m in transitions}
    names = list(dict.fromkeys(m.src.name for m in transitions))
    chains = list(permutations(names, 2) if rotations else combinations(names, 2))
    for a, b, c in combinations(names, 3):
        chains += [(a, b, c), (a, c, b)]
        if rotations:
            chains += [(b, c, a), (c, a, b), (c, b, a), (b, a, c)]
    return [[by[hop] for hop in zip(chain, chain[1:] + chain[:1])] for chain in chains]


def _atlases():
    """(id, transitions, every rotation) of each atlas the oracle runs on."""
    out = [(name, builtin(name).transitions, True)
           for name in list_builtins() if builtin(name).transitions]
    out += [(f"generic_chart_pair({n})", generic_chart_pair(n)[1], True) for n in range(1, 5)]
    out += [("P^4|2", TestProjectiveAtlas._p4_2()[1], True)]
    # verify's chains only past N=4, to keep the oracle's share of the suite small
    out += [(f"P3|N={n}", builtin(f"P3|N={n}").transitions, n <= 4)
            for n in range(1, MAX_P3N_ODD + 1)]
    return out


class TestCocycleOracle:
    @pytest.mark.parametrize("transitions, rotations", [
        pytest.param(transitions, rotations, id=name) for name, transitions, rotations in _atlases()
    ])
    def test_every_chain_agrees_with_the_hop_by_hop_loop(self, transitions, rotations):
        for maps in _chains(transitions, rotations):
            assert _agree(maps) == (True, "")

    def test_a_mapped_variable_fails_first(self):
        t_pm, t_mp = generic_chart_pair(2)[1]
        dt = t_pm.dst.table
        rules = dict(t_pm.rules)
        rules["xi2"] = rules["xi2"].scale(3)
        broken = TransitionMap(t_pm.src, t_pm.dst, rules)
        assert _agree([broken, t_mp]) == (False, "xi2")
        rules["w1"] = dt.var("w1")
        assert _agree([TransitionMap(t_pm.src, t_pm.dst, rules), t_mp]) == (False, "w1")

    def test_a_variable_only_the_middle_hop_maps_fails_first(self):
        by = {(m.src.name, m.dst.name): m for m in builtin("P3|N=2").transitions}
        middle = by["U2", "U3"]
        c = middle.dst.table.var("C12_22")
        broken = TransitionMap(middle.src, middle.dst, {**middle.rules, "C12_22": c.scale(2)})
        assert "C12_22" not in by["U1", "U2"].rules and "C12_22" not in by["U3", "U1"].rules
        assert _agree([by["U1", "U2"], broken, by["U3", "U1"]]) == (False, "C12_22")

    def test_charts_that_meet_by_name_with_other_tables(self):
        plus, minus, t_pm, t_mp = two_pole_pair()
        wider = VarTable(minus.table.specs + (VarSpec("q", EVEN),))
        other = Chart("minus", wider, {})
        into = TransitionMap(plus, other, _pole_rules(wider))
        out_of = TransitionMap(other, plus, {**_pole_rules(plus.table), "q": plus.table.one()})
        by_name = TransitionMap(plus, minus, {})
        assert by_name.rules == {}
        # the chain meets another table inside: the hop's plan refuses the
        # variable, mapped or riding by name
        for maps in ([t_pm, out_of], [by_name, out_of]):
            kind, message = _agree(maps)
            assert kind is ValueError and "source table" in message
        # it closes on another table: the first variable does not return,
        # mapped or riding by name
        assert _agree([t_mp, into]) == (False, "w1")
        back = TransitionMap(minus, plus, {})
        assert _agree([back, TransitionMap(plus, other, {})]) == (False, "w1")
        assert _agree([back, by_name]) == (True, "")
        assert _agree([t_mp, t_pm]) == (True, "")
