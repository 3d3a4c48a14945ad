"""Acceptance sweep: one test per guaranteed behavior, all checked exactly.

Each criterion prints a single pass line once its assertions hold, so a
verbose run reads as a checklist.  Everything here recomputes its expected
values from first principles (symmetry rules, independent derivative and
sign implementations) rather than trusting the library's own tables.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial
from random import Random

import supermoyal.graded_calculus as graded_calculus
import supermoyal.graded_ring as graded_ring
import supermoyal.moyal as moyal
import supermoyal.poisson as poisson
from supermoyal.atlas import WeightLaw, check_cocycle, check_weight_law
from supermoyal.graded_calculus import d_left, d_right
from supermoyal.graded_ring import EVEN, ODD, GradedPoly, Monomial, VarTable
from supermoyal.models import (
    CYWeights,
    anti_chiral_substitution,
    builtin,
    calabi_yau_index,
    fibration_pullback,
    generic_chart_pair,
    list_builtins,
    quadric_generator,
    verify_model,
)
from supermoyal.moyal import StarEngine, check_quantization_contract
from supermoyal.poisson import SuperBivector, is_poisson, poisson_bracket

SPINOR = ("11", "12", "21", "22")


def _orbit_name(i, a, j, b):
    rep = min((i, a, j, b), (j, b, i, a), (i, b, j, a), (j, a, i, b))
    return "C{}{}_{}{}".format(*rep)


def _pbit(p):
    return 1 if p.parity() == ODD else 0


def _coords(model):
    consts = set(model.constants)
    return [n for n in model.table.names() if n not in consts]


def _sweep_relations(model, expected):
    """Exhaustively compare star commutators of coordinates to a table."""
    t = model.table
    engine = StarEngine(model.bivector)
    names = _coords(model)
    for a, b in combinations_with_replacement(names, 2):
        if a == b and t.parity(a) == EVEN:
            continue
        got = engine.supercommutator(t.var(a), t.var(b))
        want = expected.get((a, b), t.zero()) * t.hbar()
        assert got == want, (a, b, got.terms, want.terms)


def test_criterion_01_cotangent_commutators():
    m = builtin("T0-cotangent")
    t = m.table
    expected = {}
    for i, p in enumerate(SPINOR):
        for q in SPINOR[i + 1 :]:
            expected[(f"x{p}", f"x{q}")] = t.var(f"D{p}_{q}")
    for i, p in enumerate(SPINOR):
        for q in SPINOR[i:]:
            expected[(f"t{p}", f"t{q}")] = t.var(
                _orbit_name(p[0], p[1], q[0], q[1])
            )
    _sweep_relations(m, expected)
    engine = StarEngine(m.bivector)
    for a, b in [("x11", "l1"), ("l1", "l2"), ("x22", "t11"), ("l2", "t21")]:
        assert engine.supercommutator(t.var(a), t.var(b)).is_zero()
    print("criterion 01 (cotangent_commutators): pass")


def test_criterion_02_mixed_parity_commutators():
    m = builtin("T1-cotangent")
    t = m.table
    expected = {
        (f"x{p}", f"t{q}"): t.var(f"B{p}_{q}") for p in SPINOR for q in SPINOR
    }
    _sweep_relations(m, expected)
    engine = StarEngine(m.bivector)
    for a, b in [("x11", "x22"), ("t11", "t22"), ("x12", "l1"), ("l1", "t12")]:
        assert engine.supercommutator(t.var(a), t.var(b)).is_zero()
    print("criterion 02 (mixed_parity_commutators): pass")


def test_criterion_03_projective_superspace():
    m = builtin("P3|4")
    t = m.table
    assert is_poisson(m.bivector)
    sq = t.var("l1") ** 2 + t.var("l2") ** 2
    expected = {("z1", "z2"): (t.var("l1") * t.var("l2")).scale(2)}
    for i in range(1, 5):
        expected[(f"xi{i}", f"xi{i}")] = sq
    _sweep_relations(m, expected)
    records = check_quantization_contract(StarEngine(m.bivector))
    assert [r.check_id for r in records] == [
        "contract bilinearity", "contract associativity", "contract order1-bracket",
    ]
    assert all(r.status == "pass" for r in records), records
    print("criterion 03 (projective_superspace): pass")


def test_criterion_04_two_pole_gluing():
    charts, (t_pm, t_mp), laws = generic_chart_pair(4)
    assert len(laws) == 22
    by_direction = {("plus", "minus"): t_pm, ("minus", "plus"): t_mp}
    for sname, dname, law in laws:
        ok, want, got = check_weight_law(by_direction[(sname, dname)], law)
        assert ok, (sname, dname, law.pair, want.terms, got.terms)
    for chain in ([t_pm, t_mp], [t_mp, t_pm]):
        ok, bad = check_cocycle(chain)
        assert ok, bad
    print("criterion 04 (two_pole_gluing): pass")


def test_criterion_05_fibration_pullbacks():
    # generic constants stay symbolic through the cotangent fibration
    m = builtin("T0-cotangent")
    t = m.table
    got = fibration_pullback(m)
    l1, l2 = t.var("l1"), t.var("l2")
    assert got[("z1", "z2")] == (
        t.var("D11_21") * l1**2
        + (t.var("D11_22") + t.var("D12_21")) * l1 * l2
        + t.var("D12_22") * l2**2
    )
    for i, j in ((1, 1), (1, 2), (2, 2)):
        assert got[(f"xi{i}", f"xi{j}")] == (
            t.var(_orbit_name(i, 1, j, 1)) * l1**2
            + (t.var(_orbit_name(i, 1, j, 2)) * l1 * l2).scale(2)
            + t.var(_orbit_name(i, 2, j, 2)) * l2**2
        )
    assert got[("z1", "xi1")].is_zero() and got[("z2", "xi2")].is_zero()

    # the delta/epsilon base reproduces the projective superspace table
    m4 = builtin("P3|4")
    bt = m4.fibration.base_table
    base = {("x11", "x22"): bt.one(), ("x12", "x21"): bt.one()}
    for i in range(1, 5):
        for a in (1, 2):
            base[(f"t{i}{a}", f"t{i}{a}")] = bt.one()
    got4 = fibration_pullback(m4, base)
    bl1, bl2 = bt.var("l1"), bt.var("l2")
    assert got4[("z1", "z2")] == (bl1 * bl2).scale(2)
    for i in range(1, 5):
        assert got4[(f"xi{i}", f"xi{i}")] == bl1**2 + bl2**2
    assert got4[("xi1", "xi2")].is_zero()
    assert got4[("z1", "l1")].is_zero() and got4[("l1", "l2")].is_zero()

    # homogeneous quadratic form of the degenerate-fiber brackets
    mn = builtin("P3|N")
    bn = mn.fibration.base_table
    base_n = {}
    for i in range(1, 5):
        for j in range(i, 5):
            for a in (1, 2):
                for b in (1, 2):
                    if (i, a) <= (j, b):
                        base_n[(f"t{i}{a}", f"t{j}{b}")] = bn.var(
                            _orbit_name(i, a, j, b)
                        )
    got_n = fibration_pullback(mn, base_n)
    z3, z4 = bn.var("z3"), bn.var("z4")
    for i in range(1, 5):
        for j in range(i, 5):
            assert got_n[(f"xi{i}", f"xi{j}")] == (
                bn.var(_orbit_name(i, 1, j, 1)) * z3**2
                + (bn.var(_orbit_name(i, 1, j, 2)) * z3 * z4).scale(2)
                + bn.var(_orbit_name(i, 2, j, 2)) * z4**2
            )

    # binomial diagonal base recovers the weighted bracket powers
    mw = builtin("WP[1,3]")
    bw = mw.fibration.base_table
    base_w = {}
    for idx, w in (("1", 1), ("2", 3)):
        for k, letter in enumerate("abcde"[: w + 1]):
            base_w[(f"t{idx}{letter}", f"t{idx}{letter}")] = bw.const(comb(w, k))
    got_w = fibration_pullback(mw, base_w)
    sqw = bw.var("l1") ** 2 + bw.var("l2") ** 2
    assert got_w[("xi1", "xi1")] == sqw
    assert got_w[("xi2", "xi2")] == sqw**3
    print("criterion 05 (fibration_pullbacks): pass")


def test_criterion_06_four_chart_atlas():
    m = builtin("P3|N")
    tmap_by = {(t.src.name, t.dst.name): t for t in m.transitions}
    assert len(m.transitions) == 12

    families = {}
    for sname, dname, law in m.weight_laws:
        families.setdefault((sname, dname), []).append(law)
    assert len(families) == 6
    for (sname, dname), laws in families.items():
        assert len(laws) == 10
        k = int(dname[1])
        factor = tmap_by[(sname, dname)].src.table.var(f"z{k}", -2)
        for law in laws:
            assert law.factor == factor
            ok, want, got = check_weight_law(tmap_by[(sname, dname)], law)
            assert ok, (sname, dname, law.pair, want.terms, got.terms)

    names = [c.name for c in m.charts]
    for a, b in combinations(names, 2):
        ok, bad = check_cocycle([tmap_by[(a, b)], tmap_by[(b, a)]])
        assert ok, (a, b, bad)
    cycles = 0
    for a, b, c in permutations(names, 3):
        if a != min(a, b, c):
            continue
        ok, bad = check_cocycle([tmap_by[(a, b)], tmap_by[(b, c)], tmap_by[(c, a)]])
        assert ok, (a, b, c, bad)
        cycles += 1
    assert cycles == 8
    print("criterion 06 (four_chart_atlas): pass")


def test_criterion_07_weighted_fibers():
    for name in ("WP[1,3]", "WP[2,2]", "WP[4,0]"):
        report = verify_model(builtin(name))
        assert report.ok, report.failures()
        glue = [r for r in report if r.check_id.startswith("glue")]
        assert glue and all(r.status == "pass" for r in glue)

    # weight-zero sector: constant bracket, identity gluing, trivial law
    m = builtin("WP[4,0]")
    assert m.bivector.entry("xi2", "xi2") == m.table.one()
    for tmap in m.transitions:
        ct = tmap.dst.table
        assert tmap.rules["xi2"] == ct.var("xi2")
        assert tmap.src.table.spec("xi2").weight == 0
    for sname, dname, law in m.weight_laws:
        if law.pair == ("xi2", "xi2"):
            src = next(t for t in m.transitions if t.src.name == sname).src
            assert law.factor == src.table.one()
    print("criterion 07 (weighted_fibers): pass")


def test_criterion_08_ambitwistor_table():
    m = builtin("L5|6")
    t = m.table
    l1, l2, m1, m2 = t.var("l1"), t.var("l2"), t.var("m1"), t.var("m2")
    expected = {
        ("X1", "X2"): (l1 * l2).scale(2),
        ("X1", "Y1"): l2 * m2,
        ("X1", "Y2"): l1 * m2,
        ("X2", "Y1"): -(l2 * m1),
        ("X2", "Y2"): -(l1 * m1),
    }
    for i in (1, 2, 3):
        expected[(f"xi{i}", f"xi{i}")] = l1**2 + l2**2
        expected[(f"ze{i}", f"ze{i}")] = m1**2 + m2**2
    _sweep_relations(m, expected)
    engine = StarEngine(m.bivector)
    for a, b in [("Y1", "Y2"), ("xi1", "ze1"), ("X1", "l1"), ("xi2", "m1")]:
        assert engine.supercommutator(t.var(a), t.var(b)).is_zero()

    assert quadric_generator(m).is_zero()

    bt = m.fibration.base_table

    def shift(alpha, adot):
        out = bt.zero()
        for i in (1, 2, 3):
            out = out + bt.var(f"t{i}{adot}") * bt.var(f"e{i}{alpha}")
        return out

    fwd = {f"x{al}{ad}": -shift(al, ad) for al in (1, 2) for ad in (1, 2)}
    back = {name: -s for name, s in fwd.items()}
    names = bt.names()
    basis = [bt.one()] + [bt.var(n) for n in names]
    for i, a in enumerate(names):
        for b in names[i:]:
            if a == b and bt.parity(a) == ODD:
                continue
            basis.append(bt.var(a) * bt.var(b))
    for f in basis:
        assert anti_chiral_substitution(back, anti_chiral_substitution(fwd, f)) == f
    print("criterion 08 (ambitwistor_table): pass")


def test_criterion_09_volume_form_arithmetic():
    assert calabi_yau_index(CYWeights.projective(3, 4)) == 0
    assert calabi_yau_index(CYWeights.projective(3, 0)) == 4
    assert calabi_yau_index(CYWeights.projective(3, 5)) == -1
    assert calabi_yau_index(CYWeights.weighted((1, 1, 1, 1), (1, 3))) == 0
    assert calabi_yau_index(CYWeights.weighted((1, 1, 1, 1), (2, 2))) == 0
    assert calabi_yau_index(CYWeights.weighted((1, 1, 1, 1), (4, 0))) == 0
    assert calabi_yau_index(CYWeights.weighted((2, 2), (1,))) == 3
    assert calabi_yau_index(CYWeights.ambitwistor(3)) == (0, 0)
    assert calabi_yau_index(CYWeights.ambitwistor(1)) == (2, 2)

    for name in ("P3|4", "WP[1,3]", "WP[2,2]", "WP[4,0]", "L5|6", "P3|N"):
        report = verify_model(builtin(name))
        rec = next(r for r in report if r.check_id == "cy index")
        assert rec.status == "pass", (name, rec.detail)
    bad = next(
        r for r in verify_model(builtin("P3|N=2")) if r.check_id == "cy index"
    )
    assert bad.status == "fail" and bad.detail == "2"
    print("criterion 09 (volume_form_arithmetic): pass")


def _basis_monomials(table, even_vars, odd_vars, max_degree):
    out = []
    for de in range(max_degree + 1):
        for exps in product(range(de + 1), repeat=len(even_vars)):
            if sum(exps) != de:
                continue
            head = table.one()
            for v, e in zip(even_vars, exps):
                head = head * table.var(v) ** e
            for k in range(0, max_degree - de + 1):
                for pick in combinations(odd_vars, k):
                    tail = head
                    for v in pick:
                        tail = tail * table.var(v)
                    out.append(tail)
    return out


def _random_homogeneous(rng, table, parity_bit):
    evens = list(table.even_names())
    odds = list(table.odd_names())
    counts = [k for k in (parity_bit, parity_bit + 2) if k <= len(odds)]
    while True:
        total = table.zero()
        for _ in range(rng.randint(1, 2)):
            coeff = Fraction(rng.choice([1, -1, 2, -2]), rng.choice([1, 1, 2]))
            term = table.const(coeff)
            for _ in range(rng.randint(0, 2)):
                term = term * table.var(rng.choice(evens))
            for v in rng.sample(odds, rng.choice(counts)):
                term = term * table.var(v)
            total = total + term
        if not total.is_zero():
            return total


def _oracle_dleft(table, name, poly):
    """Independent left derivative used to cross-check the engine."""
    out = {}
    if table.parity(name) == EVEN:
        slot = table.even_slot(name)
        for mono, c in poly.terms.items():
            e = mono.even[slot]
            if not e:
                continue
            ev = list(mono.even)
            ev[slot] = e - 1
            key = Monomial(tuple(ev), mono.odd, mono.hbar)
            out[key] = out.get(key, Fraction(0)) + c * e
    else:
        bit = table.odd_bit(name)
        mask = 1 << bit
        for mono, c in poly.terms.items():
            if not mono.odd & mask:
                continue
            below = bin(mono.odd & (mask - 1)).count("1")
            key = Monomial(mono.even, mono.odd ^ mask, mono.hbar)
            out[key] = out.get(key, Fraction(0)) + (-c if below & 1 else c)
    return GradedPoly(table, {m: c for m, c in out.items() if c})


def _oracle_star(bivector, f, g, max_order):
    """Sum over derivation tuples with the closed-form sign prefactor."""
    table = bivector.table
    rows = []
    for (a, b), entry in bivector.entries.items():
        pa = 1 if table.parity(a) == ODD else 0
        pb = 1 if table.parity(b) == ODD else 0
        rows.append((a, b, pa, pb, entry))
    total = f * g
    start_parity = _pbit(f)

    def descend(depth, F, G, entry_prod, acc_parity, sign):
        nonlocal total
        if depth == max_order:
            return
        for a, b, pa, pb, entry in rows:
            Fa = _oracle_dleft(table, a, F)
            if Fa.is_zero():
                continue
            Gb = _oracle_dleft(table, b, G)
            if Gb.is_zero():
                continue
            parity_here = acc_parity ^ pa
            sign_here = -sign if (pb and parity_here) else sign
            prod_here = entry_prod * entry
            n = depth + 1
            contribution = (prod_here * Fa * Gb).scale(
                Fraction(sign_here, factorial(n) * 2**n)
            )
            total = total + table.hbar(n) * contribution
            descend(n, Fa, Gb, prod_here, parity_here, sign_here)

    descend(0, f, g, table.one(), start_parity, 1)
    return total


_ASSOCIATIVITY_BASIS = {
    "T0-cotangent": (["x11", "x21"], ["t11", "t12", "t21"]),
    "P3|4": (["z1", "z2"], ["xi1", "xi2", "xi3", "xi4"]),
    "WP[1,3]": (["z1", "z2"], ["xi1", "xi2"]),
    "WP[2,2]": (["z1", "z2"], ["xi1", "xi2"]),
    "WP[4,0]": (["z1", "z2"], ["xi1", "xi2"]),
    "L5|6": (["X1", "Y1"], ["xi1", "xi2", "ze1", "ze2"]),
    "P3|N": (["z3", "z4"], ["xi1", "xi2"]),
}

_ORACLE_SAMPLES = {
    "T0-cotangent": 15,
    "T1-cotangent": 15,
    "P3|4": 15,
    "WP[1,3]": 15,
    "WP[2,2]": 10,
    "WP[4,0]": 10,
    "L5|6": 10,
    "P3|N": 10,
}


def test_criterion_10_property_suites():
    # bracket axioms, exhaustively on coordinate pairs and triples
    for name in list_builtins():
        m = builtin(name)
        pi, t, p = m.bivector, m.table, m.bivector.parity
        coords = _coords(m)
        for a, b in combinations_with_replacement(coords, 2):
            A, B = t.var(a), t.var(b)
            lhs = poisson_bracket(pi, A, B)
            swap = poisson_bracket(pi, B, A)
            sgn = -((-1) ** ((_pbit(A) + p) * (_pbit(B) + p)))
            assert lhs == swap.scale(sgn), (name, a, b)
        for a, b, c in combinations_with_replacement(coords, 3):
            A, B, C = t.var(a), t.var(b), t.var(c)
            leib = poisson_bracket(pi, A, B * C)
            sgn = (-1) ** ((_pbit(A) + p) * _pbit(B))
            assert leib == poisson_bracket(pi, A, B) * C + (
                B * poisson_bracket(pi, A, C)
            ).scale(sgn), (name, a, b, c)
            sa, sb, sc = _pbit(A) + p, _pbit(B) + p, _pbit(C) + p
            cyclic = (
                poisson_bracket(pi, A, poisson_bracket(pi, B, C)).scale(
                    (-1) ** (sa * sc)
                )
                + poisson_bracket(pi, B, poisson_bracket(pi, C, A)).scale(
                    (-1) ** (sb * sa)
                )
                + poisson_bracket(pi, C, poisson_bracket(pi, A, B)).scale(
                    (-1) ** (sc * sb)
                )
            )
            assert cyclic.is_zero(), (name, a, b, c)

    # star associativity on an exhaustive low-degree monomial basis
    for name, (even_vars, odd_vars) in _ASSOCIATIVITY_BASIS.items():
        m = builtin(name)
        engine = StarEngine(m.bivector)
        basis = _basis_monomials(m.table, even_vars, odd_vars, 3)
        pairwise = {}
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                pairwise[(i, j)] = engine.star(a, b)
        n = len(basis)
        for i in range(n):
            for j in range(n):
                left = pairwise[(i, j)]
                for k in range(n):
                    assert engine.star(left, basis[k]) == engine.star(
                        basis[i], pairwise[(j, k)]
                    ), (name, i, j, k)

    # first deformation order is half the classical bracket
    for seed, name in enumerate(list_builtins()):
        m = builtin(name)
        engine = StarEngine(m.bivector)
        rng = Random(1000 + seed)
        for _ in range(200):
            f = _random_homogeneous(rng, m.table, rng.randint(0, 1))
            g = _random_homogeneous(rng, m.table, rng.randint(0, 1))
            got = engine.star(f, g).hbar_coefficient(1)
            want = poisson_bracket(m.bivector, f, g).scale(Fraction(1, 2))
            assert got == want, (name, f.terms, g.terms)

    # full agreement with the independent tuple-sum oracle
    for seed, (name, count) in enumerate(_ORACLE_SAMPLES.items()):
        m = builtin(name)
        engine = StarEngine(m.bivector)
        rng = Random(2000 + seed)
        for _ in range(count):
            f = _random_homogeneous(rng, m.table, rng.randint(0, 1))
            g = _random_homogeneous(rng, m.table, rng.randint(0, 1))
            got = engine.star(f, g).hbar_truncate(4)
            want = _oracle_star(m.bivector, f, g, 4).hbar_truncate(4)
            assert got == want, (name, f.terms, g.terms)
    print("criterion 10 (property_suites): pass")


def _probe_merge_sign():
    t = VarTable.build(("th1", ODD), ("th2", ODD))
    want = GradedPoly(t, {Monomial((), 0b11, 0): Fraction(1)})
    return t.var("th1") * t.var("th2") == want


def _probe_left_delete_sign():
    t = VarTable.build(("th1", ODD), ("th2", ODD))
    word = GradedPoly(t, {Monomial((), 0b11, 0): Fraction(1)})
    return d_left("th2", word) == -t.var("th1")


def _probe_right_delete_sign():
    t = VarTable.build(("th1", ODD), ("th2", ODD))
    word = GradedPoly(t, {Monomial((), 0b11, 0): Fraction(1)})
    return d_right("th1", word) == -t.var("th2")


def _probe_step_sign():
    t = VarTable.build(("C", EVEN), ("th1", ODD), ("th2", ODD))
    engine = StarEngine(SuperBivector(t, {("th1", "th2"): t.var("C")}))
    want = t.var("th1") * t.var("th2") + (t.hbar() * t.var("C")).scale(
        Fraction(1, 2)
    )
    return engine.star(t.var("th1"), t.var("th2")) == want


def _probe_bracket_sign():
    t = VarTable.build(("C", EVEN), ("th1", ODD), ("th2", ODD))
    pi = SuperBivector(t, {("th1", "th2"): t.var("C")})
    return poisson_bracket(pi, t.var("th1"), t.var("th2")) == t.var("C")


def _probe_swap_sign():
    t = VarTable.build(("z1", EVEN), ("z2", EVEN), ("z3", EVEN))
    pi = SuperBivector(t, {("z1", "z2"): t.one(), ("z1", "z3"): t.var("z1")})
    return not is_poisson(pi)


_MUTATIONS = [
    (graded_ring, "_merge_sign", _probe_merge_sign),
    (graded_calculus, "_left_delete_sign", _probe_left_delete_sign),
    (graded_calculus, "_right_delete_sign", _probe_right_delete_sign),
    (moyal, "_step_sign", _probe_step_sign),
    (poisson, "_bracket_sign", _probe_bracket_sign),
    (poisson, "_swap_sign", _probe_swap_sign),
]


def test_criterion_11_mutation_sensitivity(monkeypatch):
    for module, attr, probe in _MUTATIONS:
        assert probe(), f"probe for {attr} must pass unmutated"
        original = getattr(module, attr)
        with monkeypatch.context() as mp:
            mp.setattr(module, attr, lambda *a, _o=original: -_o(*a))
            assert not probe(), f"negating {attr} went undetected"
        assert probe(), f"probe for {attr} must pass after restoration"

    # a wrong gluing exponent must fail the declared weight laws
    m = builtin("P3|N")
    tmap = next(t for t in m.transitions if (t.src.name, t.dst.name) == ("U4", "U3"))
    src = tmap.src.table
    good = next(
        law for s, d, law in m.weight_laws if (s, d) == ("U4", "U3")
    )
    assert check_weight_law(tmap, good)[0]
    for wrong_factor in (src.var("z3", 2), src.var("z3", -1), src.var("z3", -3)):
        ok, _, _ = check_weight_law(tmap, WeightLaw(good.pair, wrong_factor))
        assert not ok, wrong_factor.terms

    m4 = builtin("P3|4")
    t_pm = m4.transitions[0]
    flipped = WeightLaw(("w1", "w2"), t_pm.src.table.var("l", 2))
    assert not check_weight_law(t_pm, flipped)[0]
    print("criterion 11 (mutation_sensitivity): pass")
