import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_oracle import as_dict, oracle_bracket
from supermoyal.graded_calculus import _mono_d, d_left
import supermoyal.poisson as poisson
from supermoyal.graded_ring import EVEN, EXPONENT_LIMIT, ODD, GradedPoly, Monomial, VarTable
from supermoyal.models import builtin, generic_chart_pair, list_builtins
from supermoyal.moyal import NonCentralBivector, StarEngine
from supermoyal.poisson import (
    SuperBivector,
    VariableMismatch,
    is_poisson,
    poisson_bracket,
    schouten_bracket,
)


def p34_table():
    return VarTable.build(
        ("z1", EVEN),
        ("z2", EVEN),
        ("l1", EVEN),
        ("l2", EVEN),
        ("xi1", ODD),
        ("xi2", ODD),
        ("xi3", ODD),
        ("xi4", ODD),
    )


def p34_bivector():
    t = p34_table()
    quad = t.var("l1") * t.var("l1") + t.var("l2") * t.var("l2")
    entries = {("z1", "z2"): 2 * t.var("l1") * t.var("l2")}
    for i in (1, 2, 3, 4):
        entries[(f"xi{i}", f"xi{i}")] = quad
    return SuperBivector(t, entries)


def t1_mini():
    t = VarTable.build(("x", EVEN), ("w1", EVEN), ("w2", EVEN), ("th1", ODD), ("th2", ODD))
    pi = SuperBivector(t, {("x", "th1"): t.var("w1"), ("x", "th2"): t.var("w2")})
    return t, pi


class TestBivectorConstruction:
    def test_mirror_even_even(self):
        pi = p34_bivector()
        t = pi.table
        assert pi.entry("z2", "z1") == -2 * t.var("l1") * t.var("l2")

    def test_mirror_odd_odd_symmetric(self):
        t = p34_table()
        pi = SuperBivector(t, {("xi1", "xi2"): t.var("l1")})
        assert pi.entry("xi2", "xi1") == t.var("l1")

    def test_mirror_even_odd(self):
        t, pi = t1_mini()
        assert pi.entry("th1", "x") == -t.var("w1")

    def test_even_diagonal_rejected(self):
        t = p34_table()
        with pytest.raises(ValueError):
            SuperBivector(t, {("z1", "z1"): t.one()})

    def test_inconsistent_mirrors_rejected(self):
        t = p34_table()
        with pytest.raises(ValueError):
            SuperBivector(t, {("z1", "z2"): t.one(), ("z2", "z1"): t.one()})

    def test_parity_flags(self):
        assert p34_bivector().parity == 0
        _, pi = t1_mini()
        assert pi.parity == 1

    def test_centrality(self):
        assert p34_bivector().is_central
        t = VarTable.build(("z1", EVEN), ("z2", EVEN), ("z3", EVEN))
        pi = SuperBivector(t, {("z1", "z2"): t.one(), ("z1", "z3"): t.var("z1")})
        assert not pi.is_central

    def test_unknown_variable(self):
        t = p34_table()
        with pytest.raises(VariableMismatch):
            SuperBivector(t, {("z1", "nope"): t.one()})

    def test_entry_that_is_not_a_polynomial(self):
        t = p34_table()
        with pytest.raises(TypeError, match=r"^entry \(z1, z2\) must be a GradedPoly, got int$"):
            SuperBivector(t, {("z1", "z2"): 1})
        # the names are checked first
        with pytest.raises(VariableMismatch):
            SuperBivector(t, {("z1", "nope"): 1})

    def test_equality_compares_tables_and_entries(self):
        pi = p34_bivector()
        t = pi.table
        assert pi == p34_bivector()
        assert pi != SuperBivector(t, {("z1", "z2"): t.one()})
        other = VarTable.build(*((s.name, s.parity) for s in t.specs), ("w", EVEN))
        assert SuperBivector(t, {}) != SuperBivector(other, {})
        assert pi.__eq__(t) is NotImplemented and pi != t

    def test_entry_over_another_table(self):
        t, other = p34_table(), VarTable.build(("z1", EVEN), ("z2", EVEN))
        with pytest.raises(VariableMismatch, match=r"^entry \(z1, z2\) built over a different table$"):
            SuperBivector(t, {("z1", "z2"): other.one()})

    # entry maps with two faults each: the constructor's first pass (mirrors
    # and diagonals) raises before its second (parities), and a star engine
    # refuses a non-central bivector before it looks at any entry, then
    # refuses the first entry, in entry order, that is odd or holds hbar
    @pytest.mark.parametrize("entries, error, message", [
        (lambda x, y, th, c, h: {("x", "y"): x + th, ("y", "x"): y},
         ValueError, r"conflicting values for entry \(y, x\)"),
        (lambda x, y, th, c, h: {("x", "y"): y, ("y", "x"): y, ("x", "th"): x + th},
         ValueError, r"conflicting values for entry \(y, x\)"),
        (lambda x, y, th, c, h: {("x", "y"): x + th, ("x", "x"): y},
         ValueError, r"even diagonal entry \(x, x\) must vanish"),
        (lambda x, y, th, c, h: {("x", "y"): x + th, ("x", "th"): x},
         ValueError, r"entry \(x, y\) is not parity-homogeneous"),
        (lambda x, y, th, c, h: {("x", "th"): x, ("x", "y"): x + th},
         ValueError, r"entry \(x, y\) is not parity-homogeneous"),
        (lambda x, y, th, c, h: {("x", "th"): c, ("x", "y"): h},
         NonCentralBivector, r"entry \(x, th\) is not even"),
        (lambda x, y, th, c, h: {("x", "y"): h, ("x", "th"): c},
         NonCentralBivector, r"entry \(x, y\) contains hbar"),
        (lambda x, y, th, c, h: {("x", "th"): c, ("x", "y"): x},
         NonCentralBivector, "bivector entries depend on contracted variables"),
        (lambda x, y, th, c, h: {("x", "y"): h + y},
         NonCentralBivector, "bivector entries depend on contracted variables"),
    ])
    def test_the_first_of_two_faults_is_raised(self, entries, error, message):
        t = VarTable.build(("x", EVEN), ("y", EVEN), ("th", ODD), ("c", ODD))
        entries = entries(*(t.var(n) for n in ("x", "y", "th", "c")), t.hbar())
        with pytest.raises(error, match=f"^{message}$") as info:
            StarEngine(SuperBivector(t, entries))
        assert type(info.value) is error


@st.composite
def entry_tables(draw):
    """Entries drawn as Laurent monomial sums over a table of 2-5 variables.

    Any variable may be a row, an entry factor or both, so bivectors come
    out central and non-central; each entry comes with its mirror.
    """
    decls = []
    for i in range(draw(st.integers(2, 5))):
        parity = draw(st.sampled_from((EVEN, ODD)))
        decls.append((f"v{i}", parity, parity == EVEN and draw(st.booleans())))
    t = VarTable.build(*decls)
    names = t.names()

    def term_of_parity(parity):
        even = tuple(
            draw(st.integers(-2, 2) if t.spec(n).invertible else st.integers(0, 2))
            for n in t.even_names()
        )
        odd = draw(st.integers(0, 2**t.n_odd - 1))
        if odd.bit_count() % 2 != parity:
            odd ^= 1 if t.n_odd else 0
        if odd.bit_count() % 2 != parity:
            return None
        return Monomial(even, odd, 0)

    shape = draw(st.integers(0, 1))
    entries = {}
    for a, b in combinations_with_replacement(names, 2):
        pa, pb = (int(t.parity(n) == ODD) for n in (a, b))
        if (a == b and not pa) or not draw(st.booleans()):
            continue
        terms = {}
        for _ in range(draw(st.integers(1, 2))):
            m = term_of_parity((shape + pa + pb) % 2)
            if m is not None:
                terms[m] = draw(st.sampled_from((1, -2, Fraction(1, 3))))
        if terms:
            entries[(a, b)] = GradedPoly(t, terms)
    return SuperBivector(t, entries)


class TestCentrality:
    @settings(max_examples=100, deadline=None)
    @given(entry_tables())
    def test_support_check_matches_rows_times_entries(self, pi):
        old = not any(d_left(r, v) for v in pi.entries.values() for r in pi.rows())
        assert pi.is_central == old

    def test_laurent_and_odd_dependence(self):
        t = VarTable.build(("x", EVEN), ("y", EVEN), ("l", EVEN, True), ("th", ODD), ("c", ODD))
        inv = GradedPoly(t, {Monomial((0, 0, -1), 0, 0): 1})
        assert SuperBivector(t, {("x", "y"): inv}).is_central
        assert not SuperBivector(t, {("x", "l"): inv}).is_central
        assert not SuperBivector(t, {("th", "th"): t.var("th") * t.var("c")}).is_central
        assert SuperBivector(t, {("x", "th"): t.var("c")}).is_central

    def test_an_entry_at_the_exponent_limit_is_not_central(self):
        # the support test reads the entry's fields; it takes no derivative,
        # which would leave the exponent range
        t = VarTable.build(("l", EVEN, True), ("y", EVEN))
        entry = GradedPoly(t, {Monomial((-EXPONENT_LIMIT, 0), 0, 0): 1})
        pi = SuperBivector(t, {("l", "y"): entry})
        assert not pi.is_central
        with pytest.raises(NonCentralBivector, match="^bivector entries depend on contracted variables$"):
            StarEngine(pi)


def _components(pi):
    """The sets of variables joined by non-zero entries."""
    comps = []
    for pair in pi.entries:
        hit = [c for c in comps if c & set(pair)]
        comps = [c for c in comps if c not in hit] + [set(pair).union(*hit)]
    return {frozenset(c) for c in comps}


class TestPackedSteps:
    """The packed step table built with a bivector, read against its entries."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        entry_tables(), st.sampled_from(list_builtins()).map(lambda name: builtin(name).bivector)
    ))
    def test_the_table_decodes_to_the_entries(self, pi):
        t = pi.table
        units = [t._zero] + [t._var_key(n) for n in t.names()]
        name_of = {}

        def names_its_variable(packed, name):
            key, mask, bits = packed
            for m in units:
                assert (m & mask != bits) == (m == t._var_key(name))
            assert _mono_d(t._var_key(name), key, t._odd) == (1, t._zero)
            name_of[key] = name

        assert pi._d_e == math.lcm(*(e._den for e in pi.entries.values()))
        assert set(pi.rows()) == {a for a, _ in pi.entries}
        assert len(pi._rows) == len(pi.rows())
        for a, (*packed, pa_row, row_partners) in zip(pi.rows(), pi._rows):
            names_its_variable(packed, a)
            assert pa_row == (t.parity(a) == ODD)
            partners = sorted((b for x, b in pi.entries if x == a), key=t.index)
            assert len(row_partners) == len(partners)
            for b, (*packed, ints, pb_row) in zip(partners, row_partners):
                names_its_variable(packed, b)
                assert pb_row == (t.parity(b) == ODD)
                assert GradedPoly._of_scaled(t, ints, pi._d_e) == pi.entries[(a, b)]
        assert [t.index(a) for a in pi.rows()] == sorted(t.index(a) for a in set(pi.rows()))

        rows = pi._rows

        def names(bits):  # a variable's bit in VarTable._factor_bits
            got = {n for n in t.names() if bits & t._factor_bits(t._var_key(n))}
            assert bits == sum(t._factor_bits(t._var_key(n)) for n in got)
            return got

        for block_rows, _, _, links in pi._blocks:
            assert [names(a) for a, _ in links] == [{name_of[row[0]]} for row in block_rows]
            assert [row[1] & a for row, (a, _) in zip(block_rows, links)] == [a for a, _ in links]
            for a, partners in links:
                (name,) = names(a)
                assert names(partners) == {b for x, b in pi.entries if x == name}
        assert pi._row_mask == sum(a for block in pi._blocks for a, _ in block[3])
        assert names(pi._row_mask) == set(pi.rows())
        odd_factor = any(m & t._odd for e in pi.entries.values() for m in e._num)
        if rows and (pi.parity or odd_factor):
            assert [block[:3] for block in pi._blocks] == [(rows, t._evens | t._odd, 0)]
            return
        flat = [row for block in pi._blocks for row in block[0]]
        assert sorted(map(id, flat)) == sorted(map(id, rows))
        assert {frozenset(name_of[row[0]] for row in block[0])
                for block in pi._blocks} == _components(pi)
        firsts = []
        for block_rows, mask, fill, _ in pi._blocks:
            positions = [rows.index(row) for row in block_rows]
            assert positions == sorted(positions)
            firsts.append(positions[0])
            covered = 0
            for name in (name_of[row[0]] for row in block_rows):
                covered |= t._support(name)[0]
            assert mask == covered and fill == t._zero & ~mask
        assert firsts == sorted(firsts)

    def test_the_built_in_bivectors_reach_every_block_shape(self):
        # joint blocks from an odd bivector and from an odd entry factor, and
        # several blocks from an even one
        shapes = {name: builtin(name).bivector for name in list_builtins()}
        assert len(shapes) == 8
        assert shapes["T1-cotangent"].parity == 1 and len(shapes["T1-cotangent"]._blocks) == 1
        assert len(shapes["P3|4"]._blocks) > 1
        t = VarTable.build(("x", EVEN), ("y", EVEN), ("th", ODD), ("c", ODD))
        pi = SuperBivector(t, {("x", "y"): t.var("th") * t.var("c"), ("th", "th"): t.one()})
        assert pi.parity == 0 and [b[:3] for b in pi._blocks] == [(pi._rows, t._evens | t._odd, 0)]


class TestPoissonBracket:
    def test_generator_pairs_read_off_the_matrix(self):
        pi = p34_bivector()
        t = pi.table
        quad = t.var("l1") ** 2 + t.var("l2") ** 2
        assert poisson_bracket(pi, t.var("z1"), t.var("z2")) == 2 * t.var("l1") * t.var("l2")
        assert poisson_bracket(pi, t.var("z2"), t.var("z1")) == -2 * t.var("l1") * t.var("l2")
        for i in (1, 2, 3, 4):
            xi = t.var(f"xi{i}")
            assert poisson_bracket(pi, xi, xi) == quad
        assert poisson_bracket(pi, t.var("xi1"), t.var("xi2")).is_zero()
        assert poisson_bracket(pi, t.var("z1"), t.var("l1")).is_zero()

    def test_derivation_in_second_slot(self):
        pi = p34_bivector()
        t = pi.table
        z2 = t.var("z2")
        got = poisson_bracket(pi, t.var("z1"), z2 * z2)
        assert got == 4 * t.var("l1") * t.var("l2") * z2

    def test_odd_bracket_table(self):
        t, pi = t1_mini()
        assert poisson_bracket(pi, t.var("x"), t.var("th1")) == t.var("w1")
        assert poisson_bracket(pi, t.var("th1"), t.var("x")) == -t.var("w1")

    def test_odd_bracket_shifted_leibniz_witness(self):
        # {x, th1*th2} = w1*th2 - w2*th1: the plain even-case Leibniz sign fails here
        t, pi = t1_mini()
        got = poisson_bracket(pi, t.var("x"), t.var("th1") * t.var("th2"))
        assert got == t.var("w1") * t.var("th2") - t.var("w2") * t.var("th1")

    def test_antisymmetry_samples(self):
        pi = p34_bivector()
        t = pi.table
        samples = [
            (t.var("z1"), t.var("z2")),
            (t.var("xi1"), t.var("xi1") * t.var("xi2") * t.var("xi3")),
            (t.var("z1") * t.var("xi1"), t.var("xi2")),
            (t.var("z1") * t.var("z2"), t.var("z2") * t.var("xi3") * t.var("xi4")),
        ]
        for f, g in samples:
            pf = 1 if f.parity() == ODD else 0
            pg = 1 if g.parity() == ODD else 0
            sign = -1 if (pf and pg) else 1
            rhs = poisson_bracket(pi, g, f).scale(-1 * sign)
            assert poisson_bracket(pi, f, g) == rhs

    def test_table_mismatch(self):
        pi = p34_bivector()
        other = VarTable.build(("q", EVEN))
        with pytest.raises(VariableMismatch):
            poisson_bracket(pi, other.var("q"), other.var("q"))


def _named_bivector(name):
    if name == "non-central":
        t = VarTable.build(("z1", EVEN), ("z2", EVEN), ("l", EVEN, True), ("th", ODD))
        l_inv = GradedPoly(t, {Monomial((0, 0, -1), 0, 0): 1})
        return SuperBivector(t, {
            ("z1", "z2"): l_inv,
            ("z1", "l"): t.var("z1") + t.var("l", 2),
            ("th", "th"): t.var("z2"),
        })
    if name in ("plus", "minus"):
        return generic_chart_pair(2)[0][name == "minus"].bivector
    return builtin(name).bivector


@st.composite
def bracket_cases(draw):
    """(pi, f, g): a drawn bivector or a model's, with polynomials that mix
    odd factors, Laurent exponents where the table allows them, hbar powers
    and fractional coefficients, their factors mostly the bivector's rows."""
    pi = draw(st.one_of(
        entry_tables(),
        st.sampled_from(("WP[4,0]", "T1-cotangent", "plus", "minus", "non-central")).map(
            _named_bivector
        ),
    ))
    t = pi.table
    names = st.sampled_from(pi.rows() or t.names()) | st.sampled_from(t.names())

    def poly():
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            even, odd = [0] * t.n_even, 0
            for name in draw(st.lists(names, max_size=4)):
                if t.parity(name) == ODD:
                    odd |= 1 << t.odd_bit(name)
                else:
                    low = -2 if t.spec(name).invertible else 0
                    even[t.even_slot(name)] = draw(st.integers(low, 3))
            terms[Monomial(tuple(even), odd, draw(st.integers(0, 1)))] = draw(
                st.sampled_from((1, -1, 3, Fraction(1, 2), Fraction(-2, 3)))
            )
        return GradedPoly(t, terms)

    return pi, poly(), poly()


class TestBracketOracle:
    @settings(max_examples=200, deadline=None)
    @given(bracket_cases())
    def test_matches_the_dict_oracle(self, case):
        pi, f, g = case
        assert as_dict(poisson_bracket(pi, f, g)) == oracle_bracket(pi, f, g)

    def test_named_bivectors_cover_the_cases(self):
        # odd, multi-term, Laurent and non-central, whatever the drawn ones hit
        assert _named_bivector("T1-cotangent").parity == 1
        assert any(len(e._num) > 1 for e in _named_bivector("WP[4,0]").entries.values())
        assert any(s.invertible for s in _named_bivector("plus").table.specs)
        assert not _named_bivector("non-central").is_central


class TestSchouten:
    def test_constant_entries_bracket_to_zero(self):
        t = VarTable.build(("x1", EVEN), ("x2", EVEN), ("th1", ODD), ("th2", ODD))
        pi = SuperBivector(
            t, {("x1", "x2"): t.const(3), ("th1", "th2"): t.const(5), ("th1", "th1"): t.one()}
        )
        assert not schouten_bracket(pi, pi)
        assert is_poisson(pi)

    def test_central_coefficients_bracket_to_zero(self):
        pi = p34_bivector()
        assert is_poisson(pi)

    def test_noncentral_counterexample(self):
        # pi^{12} = 1, pi^{13} = z1 over three even variables:
        # [pi, pi] = -2 d1 ^ d2 ^ d3
        t = VarTable.build(("z1", EVEN), ("z2", EVEN), ("z3", EVEN))
        pi = SuperBivector(t, {("z1", "z2"): t.one(), ("z1", "z3"): t.var("z1")})
        assert schouten_bracket(pi, pi) == {(0, 1, 2): t.const(-2)}
        assert not is_poisson(pi)

    def test_bracket_is_a_read_only_mapping_of_nonzero_components(self):
        t = VarTable.build(("z1", EVEN), ("z2", EVEN), ("z3", EVEN))
        pi = SuperBivector(t, {("z1", "z2"): t.one(), ("z1", "z3"): t.var("z1")})
        tri = schouten_bracket(pi, pi)
        assert tri != {(0, 1, 2): t.const(2)}
        with pytest.raises(TypeError):
            tri[(0, 0, 1)] = t.one()
        # a Lie-Poisson bracket: its terms at (0, 1, 2) cancel, and the key is left out
        t = VarTable.build(("z1", EVEN), ("z2", EVEN), ("z3", EVEN), ("z4", EVEN))
        pi = SuperBivector(t, {("z1", "z2"): -t.var("z2"), ("z1", "z3"): t.var("z3"),
                               ("z2", "z3"): t.var("z4")})
        assert schouten_bracket(pi, pi) == {}

    def test_odd_parity_bivector_with_constants(self):
        _, pi = t1_mini()
        assert is_poisson(pi)

    def test_each_derivative_is_taken_once_per_call(self, monkeypatch):
        # d_mu of an entry, for each row mu of the other bivector
        t = VarTable.build(("z1", EVEN), ("z2", EVEN), ("z3", EVEN))
        pi = SuperBivector(t, {("z1", "z2"): t.one(), ("z1", "z3"): t.var("z1")})
        rho = SuperBivector(t, {("z1", "z2"): t.var("z1", 2)})
        calls = []
        monkeypatch.setattr(poisson, "d_left", lambda v, a: calls.append((v, id(a))) or d_left(v, a))
        assert schouten_bracket(pi, pi)[0, 1, 2] == t.const(-2)
        assert len(calls) == len(set(calls)) == 3 * 4
        calls.clear()
        assert schouten_bracket(pi, rho) == {(0, 1, 2): t.var("z1", 2)}
        assert len(calls) == len(set(calls)) == 3 * 2 + 2 * 4

    def test_table_mismatch(self):
        pi = p34_bivector()
        t = VarTable.build(("q", EVEN), ("r", EVEN))
        other = SuperBivector(t, {("q", "r"): t.one()})
        with pytest.raises(VariableMismatch):
            schouten_bracket(pi, other)


class TestJacobiOnCoordinates:
    def test_p34_coordinate_triples(self):
        pi = p34_bivector()
        t = pi.table
        names = t.names()
        for na in names:
            for nb in names:
                for nc in names:
                    f, g, h = t.var(na), t.var(nb), t.var(nc)
                    pf = 1 if t.parity(na) == ODD else 0
                    pg = 1 if t.parity(nb) == ODD else 0
                    ph = 1 if t.parity(nc) == ODD else 0
                    total = (
                        poisson_bracket(pi, f, poisson_bracket(pi, g, h)).scale((-1) ** (pf * ph))
                        + poisson_bracket(pi, g, poisson_bracket(pi, h, f)).scale((-1) ** (pg * pf))
                        + poisson_bracket(pi, h, poisson_bracket(pi, f, g)).scale((-1) ** (ph * pg))
                    )
                    assert total.is_zero()
