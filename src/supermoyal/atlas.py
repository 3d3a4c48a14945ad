"""Charts, transition maps, weight laws, and cocycle checks.

A chart is a variable table plus its local bracket table.  A transition map
rewrites source-chart variables as polynomials in destination-chart
variables; transporting a bracket entry is substitution, through the one
``SubstitutionPlan`` the map holds, so cocycle chains, weight laws and
transported tables share its validated rules and cached powers.  A weight law
asserts that a destination entry equals the transport of the source entry
scaled by a declared factor, the factor being written in source-chart
variables so it rides through the same substitution.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .graded_ring import GradedPoly, SubstitutionPlan, VarTable, _ReadOnly, _check_fields, _check_type
from .poisson import SuperBivector


class UnresolvedPair(KeyError):
    """A weight law names a variable pair a chart does not carry."""


class NonComposableCycle(ValueError):
    """Chained transition maps whose endpoints do not meet."""


class Chart(_ReadOnly):
    """Named coordinate patch with its local commutation table."""

    __slots__ = ("name", "table", "bivector")

    def __init__(self, name: str, table: VarTable, brackets: Mapping):
        _check_type("name", name, str)
        _check_type("brackets", brackets, Mapping)
        self.name = name
        self.table = table
        self.bivector = SuperBivector(table, brackets)

    def entry(self, a: str, b: str) -> GradedPoly:
        return self.bivector.entry(a, b)

    def __repr__(self) -> str:
        return f"Chart({self.name!r})"


class TransitionMap(_ReadOnly):
    """Rewrites source-chart variables in destination-chart variables.

    Variables without a rule are carried over by name, so every source
    variable the destination chart lacks needs a rule.  The map holds one
    substitution plan, so its rules are validated once and each power of a
    rule is built once for all the polynomials it transports.
    """

    __slots__ = ("src", "dst", "plan")

    def __init__(self, src: Chart, dst: Chart, rules: Mapping[str, GradedPoly]):
        _check_type("src", src, Chart)
        _check_type("dst", dst, Chart)
        _check_type("rules", rules, Mapping)
        self.src = src
        self.dst = dst
        self.plan = SubstitutionPlan(src.table, rules, dst.table)
        if self.plan._missing:
            name = self.plan._missing[0][0]
            raise KeyError(f"variable {name!r} has no rule and chart {dst.name} lacks it")

    @property
    def rules(self) -> Mapping[str, GradedPoly]:
        return self.plan.mapping

    def apply(self, p: GradedPoly) -> GradedPoly:
        return self.plan.apply(p)

    def __repr__(self) -> str:
        return f"TransitionMap({self.src.name!r} -> {self.dst.name!r})"


@dataclass(frozen=True)
class WeightLaw:
    """Declared gluing factor for one bracket pair, in source-chart variables."""

    pair: tuple[str, str]
    factor: GradedPoly

    __post_init__ = _check_fields


def check_pair_resolves(tmap: TransitionMap, pair: tuple[str, str]) -> None:
    """Raise UnresolvedPair unless both charts of the map carry both variables."""
    a, b = pair
    for chart in (tmap.src, tmap.dst):
        if a not in chart.table or b not in chart.table:
            raise UnresolvedPair(f"pair ({a}, {b}) is not resolvable in chart {chart.name}")


def law_transition(
    maps: Mapping[tuple[str, str], TransitionMap], src: str, dst: str, pair: tuple[str, str]
) -> TransitionMap:
    """The map from chart ``src`` to chart ``dst`` that a weight law on ``pair`` needs.

    Raises ValueError when ``maps`` has no such map, and UnresolvedPair
    unless both of its charts carry both variables of the pair.
    """
    tmap = maps.get((src, dst))
    if tmap is None:
        raise ValueError(f"no transition from {src} to {dst}")
    check_pair_resolves(tmap, pair)
    return tmap


def check_weight_law(
    tmap: TransitionMap, law: WeightLaw
) -> tuple[bool, GradedPoly, GradedPoly]:
    """Return (ok, destination entry, transported and scaled source entry)."""
    _check_type("tmap", tmap, TransitionMap)
    _check_type("law", law, WeightLaw)
    check_pair_resolves(tmap, law.pair)
    a, b = law.pair
    expected = tmap.dst.entry(a, b)
    transported = tmap.apply(law.factor * tmap.src.entry(a, b))
    return expected == transported, expected, transported


def check_cocycle(maps: Sequence[TransitionMap]) -> tuple[bool, str]:
    """Compose a closed chain of maps and test it is the identity.

    Returns (ok, name of the first variable that fails to return to itself).
    Variables go one at a time, in table order.  A hop that has no rule for
    a variable carries it over by name, exactly what its plan would give, so
    the variable rides by name until the first hop that maps it.  It takes
    that hop's rule, and only the later hops transport the image.  A
    variable no hop maps returns as the last target's variable of the same
    name.  Equal tables pack alike, so it equals the source's variable
    exactly when the last target's table equals the source's.  A hop whose
    source chart carries another table than the one the variable arrives in
    gets the variable as a polynomial, so its plan raises as it would.
    """
    if not maps:
        raise NonComposableCycle("empty chain")
    for tmap in maps:
        _check_type("map", tmap, TransitionMap)
    for left, right in zip(maps, maps[1:]):
        if left.dst.name != right.src.name:
            raise NonComposableCycle(
                f"{left.dst.name!r} does not meet {right.src.name!r}"
            )
    if maps[-1].dst.name != maps[0].src.name:
        raise NonComposableCycle("chain does not close")
    table = maps[0].src.table
    # each hop with its rules and, when its source chart carries another
    # table, the table a riding variable arrives in
    hops, here = [], table
    for tmap in maps:
        hops.append((tmap, tmap.rules, None if tmap.src.table == here else here))
        here = tmap.dst.table
    # a variable that rides every hop returns as here.var(name)
    closes = here == table
    for name in table.names():
        p = None  # None while the variable rides by name
        for tmap, rules, foreign in hops:
            if p is None and foreign is None:
                p = rules.get(name)
            else:
                p = tmap.apply(foreign.var(name) if p is None else p)
        if not (closes if p is None else p == table.var(name)):
            return False, name
    return True, ""
