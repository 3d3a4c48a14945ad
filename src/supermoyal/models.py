"""Built-in quantized models: tables, atlases, fibrations, verification.

Each model bundles a central superbivector, whose table is the model's
table, the expected commutation relations as a superbivector over the same
table (a built-in's is its own bivector), and optionally a fibration
(coordinates expressed over a base table), an atlas with weight laws, and
scaling-weight data for the volume-form check.  A ``ModelSpec`` is checked
when it is built: each field against its annotation, its constants, charts
and weight laws, and the star engine's checks of its bivector and order.
``verify_model`` runs the whole certification sweep as six phases, each
yielding the ``CheckRecord``s of its own category; the quantization contract's
records are the ones ``check_quantization_contract`` returns.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import combinations, combinations_with_replacement, permutations
from types import MappingProxyType

from .atlas import (
    Chart, TransitionMap, WeightLaw, check_cocycle, check_weight_law, law_transition,
)
from .graded_ring import (
    EVEN, ODD, GradedPoly, SubstitutionPlan, VarTable, _check_fields, _check_type, substitute,
)
from .moyal import (
    CheckRecord, NonCentralBivector, StarEngine, _record, check_max_order,
    check_quantization_contract,
)
from .poisson import SuperBivector, VariableMismatch, is_poisson


class UnknownModel(KeyError):
    """Requested built-in model name is not registered."""


class MissingFibration(ValueError):
    """The model declares no fibered coordinates."""


# the length of each kind's data, and its shape as an error names it
_CY_SHAPES = {
    "projective": (2, "(dimension, odd count)"),
    "weighted": (2, "(even weights, odd weights), each a tuple"),
    "ambitwistor": (1, "(odd count,)"),
}


@dataclass(frozen=True)
class CYWeights:
    """Scaling-weight data for the global volume-form condition."""

    kind: str
    data: tuple

    def __post_init__(self):
        if type(self.kind) is not str or self.kind not in _CY_SHAPES:
            raise ValueError(f"unknown weight system kind {self.kind!r}")
        length, shape = _CY_SHAPES[self.kind]
        data = self.data
        weighted = self.kind == "weighted"
        if (
            type(data) is not tuple or len(data) != length
            or weighted and not all(type(part) is tuple for part in data)
        ):
            raise ValueError(f"{self.kind} data must be {shape}, got {data!r}")
        for w in (*data[0], *data[1]) if weighted else data:
            if type(w) is not int:
                raise ValueError(f"a weight must be an int, got {w!r}")
        if weighted:
            even_weights, odd_weights = data
            if not even_weights:
                raise ValueError("a weighted system needs at least one even weight")
            if min(even_weights) < 1:
                raise ValueError(f"an even weight must be at least 1, got {min(even_weights)}")
            if min(odd_weights, default=0) < 0:
                raise ValueError(f"an odd weight must be at least 0, got {min(odd_weights)}")
            return
        if self.kind == "projective" and self.data[0] < 0:
            raise ValueError(f"the dimension must be at least 0, got {self.data[0]}")
        if self.data[-1] < 0:  # the odd count, the last entry of either kind
            raise ValueError(f"the odd count must be at least 0, got {self.data[-1]}")

    @classmethod
    def projective(cls, dim: int, odd: int) -> "CYWeights":
        return cls("projective", (dim, odd))

    @classmethod
    def weighted(cls, even_weights, odd_weights) -> "CYWeights":
        return cls("weighted", (tuple(even_weights), tuple(odd_weights)))

    @classmethod
    def ambitwistor(cls, odd: int) -> "CYWeights":
        return cls("ambitwistor", (odd,))


def calabi_yau_index(cy: CYWeights):
    """Net scaling weight of the canonical volume form; zero means global."""
    _check_type("cy", cy, CYWeights)
    if cy.kind == "projective":
        dim, odd = cy.data
        return dim + 1 - odd
    if cy.kind == "weighted":
        even_weights, odd_weights = cy.data
        return sum(even_weights) - sum(odd_weights)
    (odd,) = cy.data  # ambitwistor, the one kind left
    return (3 - odd, 3 - odd)


@dataclass(frozen=True)
class Fibration:
    """Coordinates written as polynomials over a base variable table."""

    base_table: VarTable
    rules: Mapping[str, GradedPoly]

    def __post_init__(self):
        _check_fields(self)
        object.__setattr__(self, "rules", MappingProxyType(dict(self.rules)))
        for name, rule in self.rules.items():
            _check_type(f"rule name {name!r}", name, str)
            _check_type(f"rule {name!r}", rule, GradedPoly)
            if rule.table != self.base_table:
                raise VariableMismatch(f"rule {name!r} built over a different table than base_table")


@dataclass(frozen=True, eq=False)
class ModelSpec:
    name: str
    constants: tuple[str, ...]
    bivector: SuperBivector
    expected_relations: SuperBivector | None
    fibration: Fibration | None = None
    charts: tuple[Chart, ...] = ()
    transitions: tuple[TransitionMap, ...] = ()
    weight_laws: tuple[tuple[str, str, WeightLaw], ...] = ()
    cy: CYWeights | None = None
    max_order: int = 8
    associative: bool = True
    # (source, destination) chart names -> map, the one index of the transitions
    _maps: Mapping[tuple[str, str], TransitionMap] = field(init=False, repr=False)

    @property
    def table(self) -> VarTable:
        """The bivector's variable table, the one table the model has."""
        return self.bivector.table

    def __post_init__(self):
        # each sequence is stored as a tuple, so a caller's list cannot change under the checks below
        _check_fields(self)
        if self.expected_relations is not None and self.expected_relations.table != self.table:
            raise VariableMismatch("expected relations built over a different table")
        # the engine's checks of the bivector and the order, so verify_model
        # cannot fail on them
        if self.bivector._refusal is not None:
            raise NonCentralBivector(self.bivector._refusal)
        check_max_order(self.max_order)
        # the relations phase skips each constant, so none may repeat or be a
        # row of the bivector or of the expected relations
        rows, seen = set(self.bivector.rows()), set()
        related = set(self.expected_relations.rows()) if self.expected_relations is not None else set()
        for name in self.constants:
            if name not in self.table:
                raise ValueError(f"constants must name variables of the table, got {name!r}")
            if name in seen:
                raise ValueError(f"duplicate constant {name!r}")
            if name in rows:
                raise ValueError(f"constant {name!r} is a row of the bivector")
            if name in related:
                raise ValueError(f"constant {name!r} is a row of the expected relations")
            seen.add(name)
        # the charts and maps are found by name, so no name may repeat
        chart_names = set()
        for chart in self.charts:
            if chart.name in chart_names:
                raise ValueError(f"duplicate chart {chart.name!r}")
            chart_names.add(chart.name)
        maps = {}
        for m in self.transitions:
            if m.src not in self.charts or m.dst not in self.charts:
                raise ValueError(f"transitions must join charts of charts, got {m!r}")
            if (m.src.name, m.dst.name) in maps:
                raise ValueError(f"duplicate map {m.src.name} {m.dst.name}")
            maps[m.src.name, m.dst.name] = m
        object.__setattr__(self, "_maps", MappingProxyType(maps))
        # each weight law needs its transition and a pair both charts carry
        for src, dst, law in self.weight_laws:
            law_transition(maps, src, dst, law.pair)


@dataclass(frozen=True)
class VerificationReport:
    model_name: str
    records: tuple[CheckRecord, ...]

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if r.status == "fail")

    def __iter__(self):
        return iter(self.records)


# -- constant naming -------------------------------------------------------

_SPINOR = ("11", "12", "21", "22")

# the twistor coordinates x_ab and the line's homogeneous coordinates l1, l2
_TWISTOR = [(f"x{s}", EVEN) for s in _SPINOR] + [("l1", EVEN), ("l2", EVEN)]


def _c_symbol(i: int, a: int, j: int, b: int) -> str:
    """Canonical name for a symmetric quadratic constant block.

    The block is symmetric under swapping the two index pairs and under
    swapping the second labels alone, so the orbit representative is the
    lexicographic minimum of the four equivalent index tuples.
    """
    rep = min((i, a, j, b), (j, b, i, a), (i, b, j, a), (j, a, i, b))
    return "C{}{}_{}{}".format(*rep)


def _c_names(n: int) -> tuple[str, ...]:
    return tuple(sorted({
        _c_symbol(i, a, j, b)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for a in (1, 2)
        for b in (1, 2)
    }))


def _d_names() -> tuple[str, ...]:
    return tuple(f"D{p}_{q}" for p, q in combinations(_SPINOR, 2))


# -- shared atlas construction ---------------------------------------------

def _projective_atlas(pi: SuperBivector, poles: tuple[str, ...], chart_names: tuple[str, ...],
                      rename: Mapping[str, str], law_hops: tuple[tuple[int, int], ...],
                      weighted: bool):
    """The standard affine cover of a projective superspace with bracket ``pi``.

    Chart k sets the homogeneous coordinate ``poles[k]`` to 1 and carries
    every other variable under its ``rename`` name; there the other poles are
    invertible, and ``weighted`` declares the carried variables' weights.  The
    map from chart k to chart m divides each weighted variable x by
    ``poles[k]^w_x``, with ``poles[m]`` at 1, and the law of a hop (k, m) in
    ``law_hops`` gives each bracket pair of chart k the factor
    ``poles[m]^-(w_a + w_b)``.  Every weight is read from ``pi``'s table.
    """
    t = pi.table
    local = {s.name: rename.get(s.name, s.name) for s in t.specs}
    weighted_specs = [s for s in t.specs if s.weight is not None]
    charts = []
    for pole, chart_name in zip(poles, chart_names):
        carried = [s for s in t.specs if s.name != pole]
        ct = VarTable.build(*(
            (local[s.name], s.parity, s.name in poles,
             s.weight if weighted and s.name not in poles else None)
            for s in carried
        ))
        mapping = {s.name: ct.var(local[s.name]) for s in carried if s.name in rename}
        mapping[pole] = ct.one()
        plan = SubstitutionPlan(t, mapping, ct)
        # one transport per mirror pair: the chart's SuperBivector fills in the mirror
        entries = {(local[a], local[b]): plan.apply(pi.entries[a, b])
                   for a, b in pi.canonical_pairs()}
        charts.append(Chart(chart_name, ct, entries))

    # pole_power(e) is a pole to the power e, built once per map or hop
    transitions = []
    for (k, src), (m, dst) in permutations(enumerate(charts), 2):
        dt = dst.table
        pole_power = cache(partial(dt.var, local[poles[k]]))
        rules = {
            local[s.name]: pole_power(-s.weight) if s.name == poles[m]
            else dt.var(local[s.name]) * pole_power(-s.weight)
            for s in weighted_specs if s.name != poles[k]
        }
        transitions.append(TransitionMap(src, dst, rules))

    laws = []
    for k, m in law_hops:
        src = charts[k]
        weight = {local[s.name]: s.weight for s in weighted_specs if s.name != poles[k]}
        pole_power = cache(partial(src.table.var, local[poles[m]]))
        for a, b in src.bivector.canonical_pairs():
            factor = pole_power(-(weight[a] + weight[b]))
            laws.append((src.name, chart_names[m], WeightLaw((a, b), factor)))
    return tuple(charts), tuple(transitions), tuple(laws)


# chart plus sets l1 to 1 and minus sets l2, each keeping the other as the ratio l
_TWO_POLE = (("l1", "l2"), ("plus", "minus"), {"z1": "w1", "z2": "w2", "l1": "l", "l2": "l"},
             ((0, 1), (1, 0)), True)


def _binary_form(coefficients, u: GradedPoly, v: GradedPoly) -> GradedPoly:
    """The binary form sum_k c_k u^(w-k) v^k of degree w = len(coefficients) - 1."""
    w = len(coefficients) - 1
    out = u.table.zero()
    for k, c in enumerate(coefficients):
        out = out + c * u ** (w - k) * v**k
    return out


def _quadratic_odd_entries(t: VarTable, n: int, u: GradedPoly, v: GradedPoly):
    """Brackets {xi_i, xi_j} = C(i1,j1) u^2 + 2 C(i1,j2) u v + C(i2,j2) v^2, i <= j."""
    return {
        (f"xi{i}", f"xi{j}"): _binary_form([
            t.var(_c_symbol(i, 1, j, 1)), t.var(_c_symbol(i, 1, j, 2)).scale(2),
            t.var(_c_symbol(i, 2, j, 2)),
        ], u, v)
        for i, j in combinations_with_replacement(range(1, n + 1), 2)
    }


def generic_chart_pair(n: int):
    """Two poles glued across fully generic quadratic odd-odd brackets.

    Returns ((plus, minus), (plus_to_minus, minus_to_plus), laws).
    """
    _check_type("n", n, int)
    decls = [(name, EVEN, False, 1) for name in ("z1", "z2", "l1", "l2")]
    decls += [(f"xi{i}", ODD, False, 1) for i in range(1, n + 1)]
    decls += [(c, EVEN) for c in _c_names(n)]
    t = VarTable.build(*decls)
    l1, l2 = t.var("l1"), t.var("l2")
    entries = {("z1", "z2"): (l1 * l2).scale(2)}
    entries.update(_quadratic_odd_entries(t, n, l1, l2))
    return _projective_atlas(SuperBivector(t, entries), *_TWO_POLE)


# -- built-in models -------------------------------------------------------

def _t0_model() -> ModelSpec:
    ds, cs = _d_names(), _c_names(2)
    decls = _TWISTOR + [(f"t{s}", ODD) for s in _SPINOR] + [(c, EVEN) for c in ds + cs]
    t = VarTable.build(*decls)
    entries = {}
    for p, q in combinations(_SPINOR, 2):
        entries[(f"x{p}", f"x{q}")] = t.var(f"D{p}_{q}")
    for p, q in combinations_with_replacement(_SPINOR, 2):
        entries[(f"t{p}", f"t{q}")] = t.var(
            _c_symbol(int(p[0]), int(p[1]), int(q[0]), int(q[1]))
        )
    pi = SuperBivector(t, entries)
    l1, l2 = t.var("l1"), t.var("l2")
    rules = {
        f"{z}{a}": _binary_form([t.var(f"{x}{a}1"), t.var(f"{x}{a}2")], l1, l2)
        for z, x in (("z", "x"), ("xi", "t")) for a in (1, 2)
    }
    return ModelSpec(
        name="T0-cotangent",
        constants=ds + cs,
        bivector=pi,
        expected_relations=pi,
        fibration=Fibration(t, rules),
    )


def _t1_model() -> ModelSpec:
    bs = tuple(f"B{p}_{q}" for p in _SPINOR for q in _SPINOR)
    decls = _TWISTOR + [(f"t{s}", ODD) for s in _SPINOR] + [(b, EVEN) for b in bs]
    t = VarTable.build(*decls)
    pi = SuperBivector(t, {
        (f"x{p}", f"t{q}"): t.var(f"B{p}_{q}") for p in _SPINOR for q in _SPINOR
    })
    return ModelSpec(
        name="T1-cotangent",
        constants=bs,
        bivector=pi,
        expected_relations=pi,
        associative=False,
    )


def _two_pole_model(name: str, odd_weights: tuple[int, ...], letters: str,
                    cy: CYWeights) -> ModelSpec:
    """Weighted projective superspace with odd weights w_i, in its two-pole atlas.

    Each odd coordinate brackets as {xi_i, xi_i} = (l1^2 + l2^2)^w_i and is
    fibered as the binary form sum_k t_i<letters[k]> l1^(w_i - k) l2^k.
    """
    decls = [(v, EVEN, False, 1) for v in ("z1", "z2", "l1", "l2")]
    decls += [(f"xi{i}", ODD, False, w) for i, w in enumerate(odd_weights, 1)]
    t = VarTable.build(*decls)
    sq = t.var("l1") ** 2 + t.var("l2") ** 2
    entries = {("z1", "z2"): (t.var("l1") * t.var("l2")).scale(2)}
    for i, w in enumerate(odd_weights, 1):
        entries[(f"xi{i}", f"xi{i}")] = sq**w
    pi = SuperBivector(t, entries)
    charts, transitions, laws = _projective_atlas(pi, *_TWO_POLE)
    odd = {i: [f"t{i}{letters[k]}" for k in range(w + 1)] for i, w in enumerate(odd_weights, 1)}
    bt = VarTable.build(*_TWISTOR, *((c, ODD) for names in odd.values() for c in names))
    l1, l2 = bt.var("l1"), bt.var("l2")
    rules = {f"z{a}": _binary_form([bt.var(f"x{a}1"), bt.var(f"x{a}2")], l1, l2) for a in (1, 2)}
    rules.update(l1=l1, l2=l2)
    for i, names in odd.items():
        rules[f"xi{i}"] = _binary_form([bt.var(c) for c in names], l1, l2)
    return ModelSpec(
        name=name,
        constants=(),
        bivector=pi,
        expected_relations=pi,
        fibration=Fibration(bt, rules),
        charts=charts,
        transitions=transitions,
        weight_laws=laws,
        cy=cy,
    )


def _l56_model() -> ModelSpec:
    decls = [("X1", EVEN), ("X2", EVEN), ("Y1", EVEN), ("Y2", EVEN),
             ("l1", EVEN), ("l2", EVEN), ("m1", EVEN), ("m2", EVEN)]
    decls += [(f"xi{i}", ODD) for i in (1, 2, 3)]
    decls += [(f"ze{i}", ODD) for i in (1, 2, 3)]
    t = VarTable.build(*decls)
    l1, l2, m1, m2 = t.var("l1"), t.var("l2"), t.var("m1"), t.var("m2")
    entries = {
        ("X1", "X2"): (l1 * l2).scale(2),
        ("X1", "Y1"): l2 * m2,
        ("X1", "Y2"): l1 * m2,
        ("X2", "Y1"): -(l2 * m1),
        ("X2", "Y2"): -(l1 * m1),
    }
    for i in (1, 2, 3):
        entries[(f"xi{i}", f"xi{i}")] = l1**2 + l2**2
        entries[(f"ze{i}", f"ze{i}")] = m1**2 + m2**2
    pi = SuperBivector(t, entries)
    bdecls = _TWISTOR + [("m1", EVEN), ("m2", EVEN)]
    bdecls += [(f"{c}{i}{a}", ODD) for c in "te" for i in (1, 2, 3) for a in (1, 2)]
    bt = VarTable.build(*bdecls)
    l1, l2, m1, m2 = bt.var("l1"), bt.var("l2"), bt.var("m1"), bt.var("m2")

    def x(alpha: int, adot: int, sign: int) -> GradedPoly:
        """x_{alpha adot} shifted by sign * sum_i t_{i adot} e_{i alpha}."""
        shift = [bt.var(f"t{i}{adot}") * bt.var(f"e{i}{alpha}") for i in (1, 2, 3)]
        return bt.var(f"x{alpha}{adot}") + sum(shift, bt.zero()).scale(sign)

    rules = {f"X{a}": _binary_form([x(a, 1, -1), x(a, 2, -1)], l1, l2) for a in (1, 2)}
    rules.update({f"Y{a}": _binary_form([x(1, a, 1), x(2, a, 1)], m1, m2) for a in (1, 2)})
    for i in (1, 2, 3):
        rules[f"xi{i}"] = _binary_form([bt.var(f"t{i}1"), bt.var(f"t{i}2")], l1, l2)
        rules[f"ze{i}"] = _binary_form([bt.var(f"e{i}1"), bt.var(f"e{i}2")], m1, m2)
    return ModelSpec(
        name="L5|6",
        constants=(),
        bivector=pi,
        expected_relations=pi,
        fibration=Fibration(bt, rules),
        cy=CYWeights.ambitwistor(3),
    )


def quadric_generator(model: ModelSpec) -> GradedPoly:
    """The incidence quadric of the two-sided model, over its fibration base."""
    _check_type("model", model, ModelSpec)
    fib = model.fibration
    if fib is None:
        raise MissingFibration(f"model {model.name} declares no fibration")
    r, bt = fib.rules, fib.base_table
    out = _binary_form([r["X1"], r["X2"]], bt.var("m1"), bt.var("m2"))
    out = out - _binary_form([r["Y1"], r["Y2"]], bt.var("l1"), bt.var("l2"))
    for i in (1, 2, 3):
        out = out + (r[f"xi{i}"] * r[f"ze{i}"]).scale(2)
    return out


def _p3n_model(n: int) -> ModelSpec:
    cs = _c_names(n)
    decls = [(f"z{k}", EVEN, False, 1) for k in (1, 2, 3, 4)]
    decls += [(f"xi{i}", ODD, False, 1) for i in range(1, n + 1)]
    decls += [(c, EVEN) for c in cs]
    t = VarTable.build(*decls)
    entries = _quadratic_odd_entries(t, n, t.var("z3"), t.var("z4"))
    pi = SuperBivector(t, entries)
    charts, transitions, laws = _projective_atlas(
        pi, ("z1", "z2", "z3", "z4"), ("U1", "U2", "U3", "U4"), {},
        tuple((l, k) for k, l in combinations(range(4), 2)), False,
    )
    bdecls = [("z3", EVEN), ("z4", EVEN)]
    bdecls += [(f"t{i}{a}", ODD) for i in range(1, n + 1) for a in (1, 2)]
    bdecls += [(c, EVEN) for c in cs]
    bt = VarTable.build(*bdecls)
    z3, z4 = bt.var("z3"), bt.var("z4")
    rules = {
        f"xi{i}": _binary_form([bt.var(f"t{i}1"), bt.var(f"t{i}2")], z3, z4)
        for i in range(1, n + 1)
    }
    return ModelSpec(
        name="P3|N",
        constants=cs,
        bivector=pi,
        expected_relations=pi,
        fibration=Fibration(bt, rules),
        charts=charts,
        transitions=transitions,
        weight_laws=laws,
        cy=CYWeights.projective(3, n),
    )


_BUILTINS = {
    "T0-cotangent": _t0_model,
    "T1-cotangent": _t1_model,
    "P3|4": partial(_two_pole_model, "P3|4", (1, 1, 1, 1), "12", CYWeights.projective(3, 4)),
    **{
        f"WP[{p},{q}]": partial(_two_pole_model, f"WP[{p},{q}]", (p, q), "abcde",
                                CYWeights.weighted((1, 1, 1, 1), (p, q)))
        for p, q in ((1, 3), (2, 2), (4, 0))
    },
    "L5|6": _l56_model,
    "P3|N": _p3n_model,
}


def list_builtins() -> tuple[str, ...]:
    return tuple(_BUILTINS)


# largest N accepted in "P3|N=N": the model carries 3N(N+1)/2 symbolic
# constants, so its verification work grows steeply with N
MAX_P3N_ODD = 16


# each model built so far, under its canonical key: the registry name, or
# ("P3|N", n) for P3|N=n; 7 fixed names and N = 1..16 bound the keys
_BUILT: dict = {}


def builtin(name: str) -> ModelSpec:
    """The built-in model ``name``, built once per process.

    Every caller gets the same object, so a model and its mappings are
    read-only; derive a changed model with ``dataclasses.replace``.
    ``"P3|N"`` is ``"P3|N=4"``.
    """
    _check_type("name", name, str)
    n = 4 if name == "P3|N" else None
    if name.startswith("P3|N="):
        count = name[len("P3|N="):]
        digits = count.removeprefix("-")  # -2 is a non-positive count
        if not (digits.isascii() and digits.isdigit()):
            raise UnknownModel(name)
        n = int(count)
        if n < 1:
            raise ValueError(f"P3|N needs at least one odd dimension, got N={n}")
        if n > MAX_P3N_ODD:
            raise ValueError(f"P3|N takes at most N={MAX_P3N_ODD} odd dimensions, got N={n}")
    elif name not in _BUILTINS:
        raise UnknownModel(name)
    key = name if n is None else ("P3|N", n)
    model = _BUILT.get(key)
    if model is None:
        model = _BUILT[key] = _BUILTINS[name]() if n is None else _p3n_model(n)
    return model


# -- derived computations --------------------------------------------------

def fibration_pullback(model: ModelSpec, base=None) -> dict[tuple[str, str], GradedPoly]:
    """Brackets induced on the fibered coordinates, per hbar.

    ``base`` supplies the bracket on the fibration base as an entry mapping;
    when the base table is the model's own table it defaults to the model
    bivector.
    """
    _check_type("model", model, ModelSpec)
    fib = model.fibration
    if fib is None:
        raise MissingFibration(f"model {model.name} declares no fibration")
    if base is None:
        if fib.base_table != model.table:
            raise ValueError("a base bracket is required for a separate base table")
        base_biv = model.bivector
    else:
        base_biv = SuperBivector(fib.base_table, base)
    engine = StarEngine(base_biv, max_order=model.max_order)
    bt = fib.base_table
    names = tuple(fib.rules)
    out = {}
    for i, u in enumerate(names):
        for v in names[i:]:
            com = engine.supercommutator(fib.rules[u], fib.rules[v])
            c1 = com.hbar_coefficient(1)
            if com != bt.hbar() * c1:
                raise ValueError(f"pullback bracket of ({u}, {v}) is not hbar-linear")
            out[(u, v)] = c1
    return out


def anti_chiral_substitution(
    shifts: Mapping[str, GradedPoly], f: GradedPoly
) -> GradedPoly:
    """Shift even coordinates by even nilpotent amounts: x -> x + shift."""
    _check_type("shifts", shifts, Mapping)
    _check_type("polynomial", f, GradedPoly)
    t = f.table
    for name, s in shifts.items():
        _check_type(f"shift of {name!r}", s, GradedPoly)
    mapping = {name: t.var(name) + s for name, s in shifts.items()}
    return substitute(f, mapping, target=t)


# -- verification ----------------------------------------------------------

def _relations_phase(model: ModelSpec, engine: StarEngine):
    expected = model.expected_relations
    if expected is not None:
        t = model.table
        coords = [n for n in t.names() if n not in model.constants]
        for a, b in combinations_with_replacement(coords, 2):
            both_odd = t.parity(a) == ODD and t.parity(b) == ODD
            if a != b or both_odd:
                got = engine.supercommutator(t.var(a), t.var(b))
                want = t.hbar() * expected.entry(a, b)
                yield _record(f"{'anti' if both_odd else 'comm'} {a} {b}", "relations",
                              got == want, got, want)


def _glue_phase(model: ModelSpec, engine: StarEngine):
    for sname, dname, law in model.weight_laws:
        ok, want, got = check_weight_law(model._maps[sname, dname], law)
        a, b = law.pair
        yield _record(f"glue {sname} {dname} {a} {b}", "glue", ok, got, want)


def _cocycle_phase(model: ModelSpec, engine: StarEngine):
    names = [c.name for c in model.charts]
    chains = list(combinations(names, 2))
    for a, b, c in combinations(names, 3):
        chains += [(a, b, c), (a, c, b)]
    for chain in chains:
        maps = [model._maps.get(hop) for hop in zip(chain, chain[1:] + chain[:1])]
        if all(maps):
            ok, bad = check_cocycle(maps)
            detail = "" if ok else f"variable {bad} does not return"
            yield _record(f"cocycle {' '.join(chain)}", "cocycle", ok, detail=detail)


def _cy_phase(model: ModelSpec, engine: StarEngine):
    if model.cy is not None:
        idx = calabi_yau_index(model.cy)
        yield _record("cy index", "cy", idx in (0, (0, 0)), detail=str(idx))


# verify_model's phases in record order, each yielding records of its own category;
# each reads its check from the module globals at call time, for tracers that rebind them
_PHASES = (
    ("poisson", lambda model, engine: [
        _record("poisson [pi,pi]=0", "poisson", is_poisson(model.bivector))]),
    ("relations", _relations_phase),
    ("contract", lambda model, engine: check_quantization_contract(
        engine, associativity=model.associative)),
    ("glue", _glue_phase),
    ("cocycle", _cocycle_phase),
    ("cy", _cy_phase),
)


def verify_model(model: ModelSpec, max_order: int | None = None) -> VerificationReport:
    """Run the model's full certification sweep, one phase of ``_PHASES`` at a time."""
    _check_type("model", model, ModelSpec)
    engine = StarEngine(model.bivector, model.max_order if max_order is None else max_order)
    records = tuple(r for _, phase in _PHASES for r in phase(model, engine))
    return VerificationReport(model.name, records)
