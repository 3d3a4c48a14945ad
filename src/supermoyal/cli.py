"""Expression syntax, the model file format, and the command line driver.

Expressions are plain arithmetic over a variable table: names, integers,
``+ - * / ^`` and parentheses, with ``hbar`` reserved for the deformation
parameter.  ``render_poly`` writes any polynomial back in a canonical form
that ``parse_expression`` reads verbatim, so files produced here are stable
under a load/save cycle.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .atlas import Chart, TransitionMap, WeightLaw
from .graded_ring import (
    EVEN,
    ODD,
    GradedPoly,
    Monomial,
    NonInvertibleSubstitution,
    VarSpec,
    VarTable,
)
from .models import (
    CYWeights,
    Fibration,
    ModelSpec,
    UnknownModel,
    builtin,
    calabi_yau_index,
    list_builtins,
    verify_model,
)
from .moyal import StarEngine, TruncationExceeded
from .poisson import SuperBivector


class ParseError(ValueError):
    """Expression text could not be read; position is a 0-based offset."""

    def __init__(self, msg: str, position: int):
        super().__init__(f"{msg} (column {position + 1})")
        self.msg = msg
        self.position = position


class UnknownIdentifier(ParseError):
    pass


class IllegalDivision(ParseError):
    pass


class ModelFormatError(ValueError):
    """A model file line could not be parsed or validated."""

    def __init__(self, source: str, line_no: int, msg: str):
        super().__init__(f"{source}:{line_no}: {msg}")
        self.source = source
        self.line_no = line_no
        self.msg = msg


_OPERATORS = set("+-*/^()")

# largest N accepted in (...)^N: such a power is expanded by N multiplications
MAX_BASE_POWER = 64

# most terms a parsed product may reach; a product of p and q terms has at
# most p*q, and a multiplication whose bound is larger is refused up front
MAX_PARSED_TERMS = 10_000


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPERATORS:
            out.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


def _divide(num: GradedPoly, den: GradedPoly, pos: int) -> GradedPoly:
    t = den.table
    c = den.constant_value()
    if den == t.const(c):
        if c == 0:
            raise IllegalDivision("division by zero", pos)
        return num.scale(Fraction(1) / c)
    if len(den.terms) == 1:
        ((mono, coeff),) = den.terms.items()
        if mono.odd == 0 and mono.hbar == 0:
            inv = t.const(Fraction(1) / coeff)
            try:
                for name, e in zip(t.even_names(), mono.even):
                    if e:
                        inv = inv * t.var(name, -e)
            except NonInvertibleSubstitution:
                raise IllegalDivision(
                    "divisor must be a constant or an invertible monomial", pos
                ) from None
            return num * inv
    raise IllegalDivision("divisor must be a constant or an invertible monomial", pos)


class _Parser:
    """Recursive descent over expr := term (('+'|'-') term)*."""

    def __init__(self, text: str, table: VarTable):
        self.table = table
        self.tokens = _tokenize(text)
        self.k = 0

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.k]

    def _take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def parse(self) -> GradedPoly:
        p = self._expr()
        kind, _, pos = self._peek()
        if kind != "end":
            raise ParseError("expected an operator", pos)
        return p

    def _expr(self) -> GradedPoly:
        negate = False
        if self._peek()[0] in ("+", "-"):
            op, _, _ = self._take()
            negate = op == "-"
        p = self._term()
        if negate:
            p = -p
        while self._peek()[0] in ("+", "-"):
            op, _, _ = self._take()
            q = self._term()
            p = p - q if op == "-" else p + q
        return p

    def _term(self) -> GradedPoly:
        p = self._factor()
        while self._peek()[0] in ("*", "/"):
            op, _, pos = self._take()
            q = self._factor()
            p = _product(p, q, pos) if op == "*" else _divide(p, q, pos)
        return p

    def _factor(self) -> GradedPoly:
        base, meta = self._atom()
        if self._peek()[0] != "^":
            return base
        self._take()
        sign = 1
        if self._peek()[0] in ("+", "-"):
            op, _, _ = self._take()
            sign = -1 if op == "-" else 1
        kind, text, pos = self._take()
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        power = sign * int(text)
        if meta[0] == "var":
            try:
                return self.table.var(meta[1], power)
            except NonInvertibleSubstitution:
                raise IllegalDivision(
                    f"variable {meta[1]!r} is not invertible", pos
                ) from None
            except ValueError as err:
                raise ParseError(str(err), pos) from None
        if power < 0:
            raise IllegalDivision("negative powers need an invertible variable", pos)
        if meta[0] == "hbar":
            return self.table.hbar(power)
        if power > MAX_BASE_POWER:
            raise ParseError(
                f"exponent {power} of a non-variable base exceeds the limit {MAX_BASE_POWER}",
                pos,
            )
        out = self.table.one()
        for _ in range(power):
            out = _product(out, base, pos)
        return out

    def _atom(self) -> tuple[GradedPoly, tuple]:
        kind, text, pos = self._take()
        if kind == "int":
            return self.table.const(int(text)), ("const",)
        if kind == "name":
            if text == "hbar":
                return self.table.hbar(), ("hbar",)
            if text not in self.table:
                raise UnknownIdentifier(f"unknown name {text!r}", pos)
            return self.table.var(text), ("var", text)
        if kind == "(":
            p = self._expr()
            k2, _, pos2 = self._take()
            if k2 != ")":
                raise ParseError("expected ')'", pos2)
            return p, ("const",)
        raise ParseError("expected a value", pos)


def _product(p: GradedPoly, q: GradedPoly, pos: int) -> GradedPoly:
    bound = len(p.terms) * len(q.terms)
    if bound > MAX_PARSED_TERMS:
        raise ParseError(
            f"a product of {len(p.terms)} and {len(q.terms)} terms may reach {bound} terms,"
            f" over the limit of {MAX_PARSED_TERMS} terms",
            pos,
        )
    return p * q


def parse_expression(text: str, table: VarTable) -> GradedPoly:
    return _Parser(text, table).parse()


def _monomial_key(m: Monomial):
    degree = sum(m.even) + bin(m.odd).count("1")
    return (-degree, tuple(-e for e in m.even), m.odd, m.hbar)


def render_poly(p: GradedPoly) -> str:
    """Canonical text form; ``parse_expression`` reads it back exactly."""
    if p.is_zero():
        return "0"
    t = p.table
    evens = t.even_names()
    odds = t.odd_names()
    pieces = []
    for mono in sorted(p.terms, key=_monomial_key):
        c = p.terms[mono]
        factors = []
        if mono.hbar:
            factors.append("hbar" if mono.hbar == 1 else f"hbar^{mono.hbar}")
        for name, e in zip(evens, mono.even):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        for bit, name in enumerate(odds):
            if mono.odd >> bit & 1:
                factors.append(name)
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


_SECTIONS = (
    "options",
    "variables",
    "constants",
    "bivector",
    "relations",
    "fibration",
    "charts",
    "transitions",
    "weights",
    "cy",
)


def _var_decl(spec: VarSpec) -> str:
    parts = [spec.name, spec.parity]
    if spec.invertible:
        parts.append("invertible")
    if spec.weight is not None:
        parts.append(f"weight {spec.weight}")
    return " ".join(parts)


def render_model_text(model: ModelSpec) -> str:
    sections: list[list[str]] = []

    opts = ["[options]", f"name = {model.name}", f"max_order = {model.max_order}"]
    if not model.associative:
        opts.append("associative = false")
    sections.append(opts)

    const_set = set(model.constants)
    decls = ["[variables]"]
    for name in model.table.names():
        if name not in const_set:
            decls.append(_var_decl(model.table.spec(name)))
    sections.append(decls)

    if model.constants:
        sections.append(["[constants]", *model.constants])

    biv = ["[bivector]"]
    for a, b in model.bivector.canonical_pairs():
        biv.append(f"{a} {b} := {render_poly(model.bivector.entry(a, b))}")
    sections.append(biv)

    if model.expected_relations is not None:
        rel = ["[relations]"]
        expected = SuperBivector(model.table, model.expected_relations)
        for a, b in expected.canonical_pairs():
            both_odd = model.table.parity(a) == ODD and model.table.parity(b) == ODD
            kw = "anti" if both_odd else "comm"
            rhs = model.table.hbar() * expected.entry(a, b)
            rel.append(f"{kw} {a} {b} = {render_poly(rhs)}")
        sections.append(rel)

    if model.fibration is not None:
        fib = ["[fibration]"]
        if model.fibration.base_table == model.table:
            fib.append("over model")
        else:
            for name in model.fibration.base_table.names():
                fib.append("base " + _var_decl(model.fibration.base_table.spec(name)))
        for name, rule in model.fibration.rules.items():
            fib.append(f"rule {name} -> {render_poly(rule)}")
        sections.append(fib)

    if model.charts:
        ch = ["[charts]"]
        for chart in model.charts:
            ch.append(f"chart {chart.name}")
            for name in chart.table.names():
                ch.append("var " + _var_decl(chart.table.spec(name)))
            for a, b in chart.bivector.canonical_pairs():
                ch.append(f"table {a} {b} = {render_poly(chart.entry(a, b))}")
        sections.append(ch)

    if model.transitions:
        tr = ["[transitions]"]
        for tmap in model.transitions:
            tr.append(f"map {tmap.src.name} {tmap.dst.name}")
            for name in tmap.src.table.names():
                if name in tmap.rules:
                    tr.append(f"{name} -> {render_poly(tmap.rules[name])}")
        sections.append(tr)

    if model.weight_laws:
        wl = ["[weights]"]
        for sname, dname, law in model.weight_laws:
            a, b = law.pair
            wl.append(f"law {sname} {dname} {a} {b} : {render_poly(law.factor)}")
        sections.append(wl)

    if model.cy is not None:
        cy = model.cy
        if cy.kind == "projective":
            line = f"projective {cy.data[0]} {cy.data[1]}"
        elif cy.kind == "weighted":
            even_w, odd_w = cy.data
            line = (
                "weighted "
                + " ".join(str(w) for w in even_w)
                + " ; "
                + " ".join(str(w) for w in odd_w)
            )
        elif cy.kind == "ambitwistor":
            line = f"ambitwistor {cy.data[0]}"
        else:
            raise ValueError(f"unknown weight system kind {cy.kind!r}")
        sections.append(["[cy]", line])

    return "\n\n".join("\n".join(s) for s in sections) + "\n"


def _parse_decl(source, ln, words):
    if len(words) < 2 or words[1] not in (EVEN, ODD):
        raise ModelFormatError(source, ln, "expected: name even|odd [invertible] [weight K]")
    name, parity = words[0], words[1]
    invertible = False
    weight = None
    rest = words[2:]
    while rest:
        if rest[0] == "invertible":
            invertible = True
            rest = rest[1:]
        elif rest[0] == "weight" and len(rest) >= 2:
            try:
                weight = int(rest[1])
            except ValueError:
                raise ModelFormatError(source, ln, f"bad weight {rest[1]!r}") from None
            rest = rest[2:]
        else:
            raise ModelFormatError(source, ln, f"unexpected token {rest[0]!r}")
    return (name, parity, invertible, weight)


def _parse_expr_or_die(source, ln, text, table):
    try:
        return parse_expression(text, table)
    except ParseError as err:
        raise ModelFormatError(
            source, ln, f"{err.msg} (column {err.position + 1} of the expression)"
        ) from None


_BIVECTOR_RE = re.compile(r"(\S+)\s+(\S+)\s*:=\s*(.*)$")
_RELATION_RE = re.compile(r"(comm|anti)\s+(\S+)\s+(\S+)\s*=\s*(.*)$")
_RULE_RE = re.compile(r"(\S+)\s*->\s*(.*)$")
_CHART_ENTRY_RE = re.compile(r"table\s+(\S+)\s+(\S+)\s*=\s*(.*)$")
_LAW_RE = re.compile(r"law\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s*:\s*(.*)$")


def parse_model_text(text: str, source: str = "<model>") -> ModelSpec:
    sections: dict[str, list[tuple[int, str]]] = {}
    order: list[str] = []
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            name = body[1:-1]
            if name not in _SECTIONS:
                raise ModelFormatError(source, ln, f"unknown section [{name}]")
            if name in sections:
                raise ModelFormatError(source, ln, f"duplicate section [{name}]")
            sections[name] = []
            order.append(name)
            current = name
            continue
        if current is None:
            raise ModelFormatError(source, ln, "content before any section header")
        sections[current].append((ln, body))

    for required in ("options", "variables", "bivector"):
        if required not in sections:
            raise ModelFormatError(source, 0, f"missing section [{required}]")

    name = None
    max_order = 8
    associative = True
    for ln, line in sections["options"]:
        if "=" not in line:
            raise ModelFormatError(source, ln, "expected: key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "name":
            name = value
        elif key == "max_order":
            try:
                max_order = int(value)
            except ValueError:
                raise ModelFormatError(source, ln, f"bad max_order {value!r}") from None
        elif key == "associative":
            if value not in ("true", "false"):
                raise ModelFormatError(source, ln, "associative must be true or false")
            associative = value == "true"
        else:
            raise ModelFormatError(source, ln, f"unknown option {key!r}")
    if name is None:
        raise ModelFormatError(source, 0, "the [options] section must set a name")

    decls = [_parse_decl(source, ln, line.split()) for ln, line in sections["variables"]]
    constants = []
    for ln, line in sections.get("constants", []):
        words = line.split()
        if len(words) != 1:
            raise ModelFormatError(source, ln, "expected one constant name per line")
        constants.append(words[0])
        decls.append((words[0], EVEN, False, None))
    try:
        table = VarTable.build(*decls)
    except ValueError as err:
        raise ModelFormatError(source, sections["variables"][0][0], str(err)) from None

    entries = {}
    for ln, line in sections["bivector"]:
        m = _BIVECTOR_RE.match(line)
        if m is None:
            raise ModelFormatError(source, ln, "expected: A B := expression")
        a, b, expr = m.groups()
        for v in (a, b):
            if v not in table:
                raise ModelFormatError(source, ln, f"unknown variable {v!r}")
        value = _parse_expr_or_die(source, ln, expr, table)
        if any(mono.hbar for mono in value.terms):
            raise ModelFormatError(source, ln, "bivector entries cannot contain hbar")
        entries[(a, b)] = value
    try:
        bivector = SuperBivector(table, entries)
    except ValueError as err:
        raise ModelFormatError(source, sections["bivector"][0][0], str(err)) from None

    expected_relations = None
    if "relations" in sections:
        expected_relations = {}
        for ln, line in sections["relations"]:
            m = _RELATION_RE.match(line)
            if m is None:
                raise ModelFormatError(source, ln, "expected: comm|anti A B = expression")
            kw, a, b, expr = m.groups()
            for v in (a, b):
                if v not in table:
                    raise ModelFormatError(source, ln, f"unknown variable {v!r}")
            both_odd = table.parity(a) == ODD and table.parity(b) == ODD
            if (kw == "anti") != both_odd:
                raise ModelFormatError(
                    source, ln, "anti is for odd pairs and comm for the rest"
                )
            rhs = _parse_expr_or_die(source, ln, expr, table)
            coeff = rhs.hbar_coefficient(1)
            if rhs != table.hbar() * coeff:
                raise ModelFormatError(
                    source, ln, "relation right-hand side must be linear in hbar"
                )
            expected_relations[(a, b)] = coeff

    fibration = None
    if "fibration" in sections:
        base_decls = []
        over_model = False
        base_table = None
        rules: dict[str, GradedPoly] = {}
        for ln, line in sections["fibration"]:
            if line == "over model":
                if base_decls:
                    raise ModelFormatError(source, ln, "base lines conflict with over model")
                over_model = True
                continue
            if line.startswith("base "):
                if base_table is not None:
                    raise ModelFormatError(source, ln, "base lines must come before rules")
                base_decls.append(_parse_decl(source, ln, line.split()[1:]))
                continue
            if line.startswith("rule "):
                if base_table is None:
                    if over_model:
                        base_table = table
                    elif base_decls:
                        base_table = VarTable.build(*base_decls)
                    else:
                        raise ModelFormatError(source, ln, "fibration rules need a base")
                m = _RULE_RE.match(line[5:])
                if m is None:
                    raise ModelFormatError(source, ln, "expected: rule NAME -> expression")
                rule_name, expr = m.groups()
                rules[rule_name] = _parse_expr_or_die(source, ln, expr, base_table)
                continue
            raise ModelFormatError(source, ln, "expected over model, base, or rule")
        if base_table is None:
            raise ModelFormatError(
                source, sections["fibration"][0][0], "a fibration needs rule lines"
            )
        fibration = Fibration(base_table, rules)

    charts: list[Chart] = []
    if "charts" in sections:
        chart_name = None
        chart_decls: list[tuple] = []
        chart_table = None
        chart_entries: dict[tuple[str, str], GradedPoly] = {}

        def _flush(ln):
            nonlocal chart_name, chart_decls, chart_table, chart_entries
            if chart_name is None:
                return
            if chart_table is None:
                chart_table = VarTable.build(*chart_decls)
            try:
                charts.append(Chart(chart_name, chart_table, chart_entries))
            except ValueError as err:
                raise ModelFormatError(source, ln, str(err)) from None
            chart_name, chart_decls, chart_table, chart_entries = None, [], None, {}

        for ln, line in sections["charts"]:
            if line.startswith("chart "):
                _flush(ln)
                chart_name = line.split(None, 1)[1].strip()
                continue
            if chart_name is None:
                raise ModelFormatError(source, ln, "expected a chart line first")
            if line.startswith("var "):
                if chart_table is not None:
                    raise ModelFormatError(source, ln, "var lines must come before table lines")
                chart_decls.append(_parse_decl(source, ln, line.split()[1:]))
                continue
            if line.startswith("table "):
                if chart_table is None:
                    chart_table = VarTable.build(*chart_decls)
                m = _CHART_ENTRY_RE.match(line)
                if m is None:
                    raise ModelFormatError(source, ln, "expected: table A B = expression")
                a, b, expr = m.groups()
                chart_entries[(a, b)] = _parse_expr_or_die(source, ln, expr, chart_table)
                continue
            raise ModelFormatError(source, ln, "expected chart, var, or table")
        _flush(sections["charts"][-1][0])

    chart_by_name = {c.name: c for c in charts}

    transitions: list[TransitionMap] = []
    if "transitions" in sections:
        pair = None
        rules = {}

        def _flush_map(ln):
            nonlocal pair, rules
            if pair is None:
                return
            try:
                transitions.append(TransitionMap(pair[0], pair[1], rules))
            except (KeyError, ValueError) as err:
                raise ModelFormatError(source, ln, str(err)) from None
            pair, rules = None, {}

        for ln, line in sections["transitions"]:
            if line.startswith("map "):
                _flush_map(ln)
                words = line.split()
                if len(words) != 3:
                    raise ModelFormatError(source, ln, "expected: map SRC DST")
                for cname in words[1:]:
                    if cname not in chart_by_name:
                        raise ModelFormatError(source, ln, f"unknown chart {cname!r}")
                pair = (chart_by_name[words[1]], chart_by_name[words[2]])
                continue
            if pair is None:
                raise ModelFormatError(source, ln, "expected a map line first")
            m = _RULE_RE.match(line)
            if m is None:
                raise ModelFormatError(source, ln, "expected: NAME -> expression")
            rule_name, expr = m.groups()
            rules[rule_name] = _parse_expr_or_die(source, ln, expr, pair[1].table)
        _flush_map(sections["transitions"][-1][0])

    weight_laws: list[tuple[str, str, WeightLaw]] = []
    for ln, line in sections.get("weights", []):
        m = _LAW_RE.match(line)
        if m is None:
            raise ModelFormatError(source, ln, "expected: law SRC DST A B : expression")
        sname, dname, a, b, expr = m.groups()
        for cname in (sname, dname):
            if cname not in chart_by_name:
                raise ModelFormatError(source, ln, f"unknown chart {cname!r}")
        factor = _parse_expr_or_die(source, ln, expr, chart_by_name[sname].table)
        weight_laws.append((sname, dname, WeightLaw((a, b), factor)))

    cy = None
    if "cy" in sections:
        if len(sections["cy"]) != 1:
            raise ModelFormatError(
                source, sections["cy"][0][0], "the [cy] section takes one line"
            )
        ln, line = sections["cy"][0]
        words = line.split()
        kind = words[0] if words else ""
        if kind == "projective" and len(words) == 3:
            builder = lambda: CYWeights.projective(int(words[1]), int(words[2]))
        elif kind == "weighted" and ";" in words:
            cut = words.index(";")
            builder = lambda: CYWeights.weighted(
                [int(w) for w in words[1:cut]], [int(w) for w in words[cut + 1 :]]
            )
        elif kind == "ambitwistor" and len(words) == 2:
            builder = lambda: CYWeights.ambitwistor(int(words[1]))
        else:
            raise ModelFormatError(
                source, ln, "expected projective, weighted, or ambitwistor"
            )
        try:
            cy = builder()
        except ValueError:
            raise ModelFormatError(source, ln, f"bad weight system line {line!r}") from None

    return ModelSpec(
        name=name,
        table=table,
        constants=tuple(constants),
        bivector=bivector,
        expected_relations=expected_relations,
        fibration=fibration,
        charts=tuple(charts),
        transitions=tuple(transitions),
        weight_laws=tuple(weight_laws),
        cy=cy,
        max_order=max_order,
        associative=associative,
    )


def load_model(path) -> ModelSpec:
    path = Path(path)
    return parse_model_text(path.read_text(), source=str(path))


def save_model(model: ModelSpec, path) -> None:
    Path(path).write_text(render_model_text(model))


_USAGE = """\
usage: supermoyal <command> [options]

commands:
  verify <model>                  run the full verification sweep
  star <model> --lhs E --rhs E    star-multiply two expressions
  comm <model> --a E --b E        graded star commutator of two expressions
  list-builtins                   names of the built-in models
  cy --projective DIM ODD         net weight of the canonical volume form
  cy --weighted W.. -- V..
  cy --ambitwistor ODD

<model> is a built-in name or a path to a .model file.

options:
  --order K    truncation order for the star product (default: the model's)
  --json       line-delimited JSON output
  --quiet      verification summary line only
"""


class _CliError(Exception):
    pass


def _load_target(arg: str) -> ModelSpec:
    path = Path(arg)
    if path.exists():
        try:
            return load_model(path)
        except ModelFormatError as err:
            raise _CliError(str(err)) from None
    try:
        return builtin(arg)
    except UnknownModel:
        raise _CliError(f"no such file or built-in model: {arg}") from None


def _record_line(record) -> str:
    head = record.check_id
    if record.lhs is not None:
        head = f"{head} = {render_poly(record.lhs)}"
    line = f"{head} : {record.status}"
    if record.status == "fail" and record.rhs is not None:
        line += f" (expected {render_poly(record.rhs)})"
    elif record.status != "pass" and record.detail:
        line += f" ({record.detail})"
    return line


def _record_json(record) -> str:
    return json.dumps(
        {
            "check_id": record.check_id,
            "status": record.status,
            "lhs": None if record.lhs is None else render_poly(record.lhs),
            "rhs": None if record.rhs is None else render_poly(record.rhs),
            "detail": record.detail,
        }
    )


def _parse_args(args: list[str]):
    opts = {"order": None, "json": False, "quiet": False}
    named: dict[str, str] = {}
    positional: list[str] = []
    i = 0
    while i < len(args):
        tok = args[i]
        if tok == "--order":
            i += 1
            if i >= len(args):
                raise _CliError("--order needs a value")
            try:
                opts["order"] = int(args[i])
            except ValueError:
                raise _CliError(f"--order needs an integer, got {args[i]!r}") from None
        elif tok == "--json":
            opts["json"] = True
        elif tok == "--quiet":
            opts["quiet"] = True
        elif tok in ("--lhs", "--rhs", "--a", "--b"):
            i += 1
            if i >= len(args):
                raise _CliError(f"{tok} needs a value")
            named[tok[2:]] = args[i]
        elif tok in ("--projective", "--weighted", "--ambitwistor"):
            named["mode"] = tok[2:]
        elif tok == "--":
            positional.append("--")
        elif tok.startswith("--"):
            raise _CliError(f"unknown option {tok}")
        else:
            positional.append(tok)
        i += 1
    return opts, named, positional


def _cmd_verify(opts, named, positional) -> int:
    if len(positional) != 1:
        raise _CliError("verify takes one model")
    model = _load_target(positional[0])
    report = verify_model(model, max_order=opts["order"])
    counted = {"pass": 0, "fail": 0, "skip": 0}
    for record in report:
        counted[record.status] = counted.get(record.status, 0) + 1
        if opts["quiet"]:
            continue
        print(_record_json(record) if opts["json"] else _record_line(record))
    if not opts["json"]:
        print(
            f"{model.name}: {counted['pass']} passed, "
            f"{counted['fail']} failed, {counted['skip']} skipped"
        )
    return 0 if report.ok else 1


def _cmd_product(opts, named, positional, commutator: bool) -> int:
    keys = ("a", "b") if commutator else ("lhs", "rhs")
    if len(positional) != 1:
        raise _CliError("expected one model")
    for key in keys:
        if key not in named:
            raise _CliError(f"missing --{key}")
    model = _load_target(positional[0])
    order = opts["order"] if opts["order"] is not None else model.max_order
    engine = StarEngine(model.bivector, max_order=order)
    f = parse_expression(named[keys[0]], model.table)
    g = parse_expression(named[keys[1]], model.table)
    result = engine.supercommutator(f, g) if commutator else engine.star(f, g)
    text = render_poly(result)
    print(json.dumps({"result": text}) if opts["json"] else text)
    return 0


def _cmd_cy(opts, named, positional) -> int:
    mode = named.get("mode")
    if mode == "projective":
        if len(positional) != 2:
            raise _CliError("cy --projective takes DIM and ODD")
        cy = CYWeights.projective(int(positional[0]), int(positional[1]))
    elif mode == "weighted":
        if "--" not in positional:
            raise _CliError("cy --weighted separates even and odd weights with --")
        cut = positional.index("--")
        cy = CYWeights.weighted(
            [int(w) for w in positional[:cut]],
            [int(w) for w in positional[cut + 1 :]],
        )
    elif mode == "ambitwistor":
        if len(positional) != 1:
            raise _CliError("cy --ambitwistor takes ODD")
        cy = CYWeights.ambitwistor(int(positional[0]))
    else:
        raise _CliError("cy needs --projective, --weighted, or --ambitwistor")
    index = calabi_yau_index(cy)
    flat = index if isinstance(index, tuple) else (index,)
    if opts["json"]:
        print(json.dumps({"index": list(flat) if len(flat) > 1 else flat[0]}))
    else:
        print(" ".join(str(v) for v in flat))
    return 0 if all(v == 0 for v in flat) else 1


def run(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(_USAGE)
        return 2
    command, rest = argv[0], argv[1:]
    try:
        opts, named, positional = _parse_args(rest)
        if command == "verify":
            return _cmd_verify(opts, named, positional)
        if command == "star":
            return _cmd_product(opts, named, positional, commutator=False)
        if command == "comm":
            return _cmd_product(opts, named, positional, commutator=True)
        if command == "list-builtins":
            for name in list_builtins():
                print(name)
            return 0
        if command == "cy":
            return _cmd_cy(opts, named, positional)
        raise _CliError(f"unknown command {command!r}")
    except _CliError as err:
        sys.stderr.write(f"error: {err}\n")
        sys.stderr.write(_USAGE)
        return 2
    except ParseError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except ValueError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except TruncationExceeded as err:
        hint = "" if err.sufficient_order is None else f" (use --order {err.sufficient_order})"
        sys.stderr.write(f"error: {err}{hint}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
