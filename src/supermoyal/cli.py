"""Expression syntax, the model file format, and the command line driver.

Expressions are plain arithmetic over a variable table: names, integers,
``+ - * / ^`` and parentheses, with ``hbar`` reserved for the deformation
parameter.  The parser computes on the ring's int form: each sub-expression
is a term map of packed monomials over one denominator, and a parse builds
exactly one ``GradedPoly``.  ``render_poly``, defined in ``graded_ring``
beside the packed layout it reads and re-exported here, writes any
polynomial back in a canonical form that ``parse_expression`` reads
verbatim, so files produced here are stable under a load/save cycle.

``run`` executes one command with the cyclic garbage collector paused and
restores the collector's state on every exit path.  This is safe because
nothing a command builds, the engine's caches included, holds a reference
cycle: reference counting alone frees it, and a collection during the
command would only walk those caches to find no garbage.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from functools import partial
from itertools import zip_longest
from pathlib import Path

from .atlas import Chart, TransitionMap, WeightLaw, law_transition
from .graded_ring import (
    EVEN,
    ODD,
    ExponentOverflow,
    GradedPoly,
    NonInvertibleSubstitution,
    VarSpec,
    VarTable,
    _check_type,
    _invert_term,
    _mul_terms,
    _sum_terms,
    render_poly,
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
from .moyal import StarEngine, TruncationExceeded, check_max_order
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
    """A model file line could not be parsed or validated.

    ``line_no`` is None for an error of the whole file, such as a missing
    section.
    """

    def __init__(self, source: str, line_no: int | None, msg: str):
        where = source if line_no is None else f"{source}:{line_no}"
        super().__init__(f"{where}: {msg}")
        self.source = source
        self.line_no = line_no
        self.msg = msg


_OPERATORS = set("+-*/^()")

# largest N accepted in (...)^N: such a power is expanded by N multiplications
MAX_BASE_POWER = 64

# most terms a parsed product may reach; a product of p and q terms has at
# most p*q, and a multiplication whose bound is larger is refused up front
MAX_PARSED_TERMS = 10_000

# deepest parenthesis nesting read: each level takes four frames of the
# recursive descent, so this keeps far inside the interpreter's recursion limit
MAX_NESTING = 100


def _digits_end(text: str, i: int) -> int:
    """The end of the run of ASCII digits from ``text[i]``.

    ASCII digits only: str.isdigit() also takes "²" and "٣", and int()
    takes "٣" and "0_1".  Expression literals, ``--order``, the cy weights,
    ``max_order`` and declared weights are all read with it.
    """
    n = len(text)
    while i < n and "0" <= text[i] <= "9":
        i += 1
    return i


def _ascii_int(word: str) -> int:
    """``word`` read as an optional "-" and ASCII digits, or a ValueError."""
    start = 1 if word.startswith("-") else 0
    if start == len(word) or _digits_end(word, start) != len(word):
        raise ValueError(f"{word!r} is not an integer")
    return int(word)  # a ValueError too past int()'s length limit


def _tokenize(text: str) -> list[tuple[str, str | int, int]]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = _digits_end(text, i + 1)
            try:
                value = int(text[i:j])
            except ValueError:  # a run of ASCII digits fails only on int()'s length limit
                raise ParseError(f"integer literal of {j - i} digits is too long", i) from None
            out.append(("int", value, i))
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


def _divide(p: dict, dp: int, q: dict, dq: int, table: VarTable, pos: int) -> tuple[dict, int]:
    """(num, den) of the quotient of two term maps ``p/dp`` and ``q/dq``."""
    if not q:
        raise IllegalDivision("division by zero", pos)
    if len(q) == 1:
        ((mono, c),) = q.items()
        try:
            inverse, d = _invert_term(table, mono, c, dq)
            return _mul_terms(p, inverse, table), dp * d
        except NonInvertibleSubstitution:
            pass  # not a unit monomial
        except ExponentOverflow as err:
            raise ParseError(str(err), pos) from None
    raise IllegalDivision("divisor must be a constant or an invertible monomial", pos)


class _Parser:
    """Recursive descent over expr := term (('+'|'-') term)*.

    It computes on the ring's int form: each sub-expression is a term map of
    packed monomials over one denominator, ``(num, den)``, not necessarily
    reduced, and ``parse`` builds the one ``GradedPoly`` of the text.
    """

    def __init__(self, text: str, table: VarTable):
        self.table = table
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0  # parentheses open at the current token

    def parse(self) -> GradedPoly:
        num, den = self._expr()
        kind, _, pos = self.tokens[self.k]
        if kind != "end":
            raise ParseError("expected an operator", pos)
        return GradedPoly._of_scaled(self.table, num, den)

    def _expr(self) -> tuple[dict, int]:
        tokens = self.tokens
        sign = 1
        if (op := tokens[self.k][0]) in ("+", "-"):
            self.k += 1
            sign = -1 if op == "-" else 1
        parts = [(sign, *self._term())]
        while (op := tokens[self.k][0]) in ("+", "-"):
            self.k += 1
            parts.append((-1 if op == "-" else 1, *self._term()))
        return _sum_terms(parts)

    def _term(self) -> tuple[dict, int]:
        tokens, t = self.tokens, self.table
        num, den = self._factor()
        while (op := tokens[self.k][0]) in ("*", "/"):
            pos = tokens[self.k][2]
            self.k += 1
            q, dq = self._factor()
            if op == "*":
                num, den = _product(num, q, t, pos), den * dq
            else:
                num, den = _divide(num, den, q, dq, t, pos)
        return num, den

    def _factor(self) -> tuple[dict, int]:
        tokens, t = self.tokens, self.table
        parenthesised = tokens[self.k][0] == "("
        num, den, name = self._atom()
        if tokens[self.k][0] != "^":
            return num, den
        self.k += 1
        sign = 1
        if (op := tokens[self.k][0]) in ("+", "-"):
            self.k += 1
            sign = -1 if op == "-" else 1
        kind, value, pos = tokens[self.k]
        self.k += 1
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        power = sign * value
        if name is not None and name != "hbar":
            try:
                return {t._var_key(name, power): 1}, 1
            except NonInvertibleSubstitution:
                raise IllegalDivision(f"variable {name!r} is not invertible", pos) from None
            except ValueError as err:
                raise ParseError(str(err), pos) from None
        if power < 0 and not parenthesised:
            raise IllegalDivision("negative powers need an invertible variable", pos)
        if name == "hbar":
            return {t._zero + (power << t._hbar_shift): 1}, 1
        if abs(power) > MAX_BASE_POWER:
            raise ParseError(
                f"exponent {power} of a non-variable base exceeds the limit {MAX_BASE_POWER}",
                pos,
            )
        out = {t._zero: 1}
        for _ in range(abs(power)):
            out = _product(out, num, t, pos)
        if power < 0:  # (base)^-k is 1/(base^k)
            return _divide({t._zero: 1}, 1, out, den**-power, t, pos)
        return out, den**power

    def _atom(self) -> tuple[dict, int, str | None]:
        """(num, den, name): ``name`` is the variable's, "hbar", or None for a
        literal or a parenthesised expression."""
        kind, value, pos = self.tokens[self.k]
        self.k += 1
        t = self.table
        if kind == "int":
            return ({t._zero: value} if value else {}), 1, None
        if kind == "name":
            if value == "hbar":
                return {t._zero + (1 << t._hbar_shift): 1}, 1, value
            if value not in t:
                raise UnknownIdentifier(f"unknown name {value!r}", pos)
            return {t._var_key(value): 1}, 1, value
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than the limit of {MAX_NESTING}", pos)
            self.depth += 1
            num, den = self._expr()
            self.depth -= 1
            kind, _, pos = self.tokens[self.k]
            self.k += 1
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return num, den, None
        raise ParseError("expected a value", pos)


def _ranges(num: dict, t: VarTable) -> tuple[dict, int]:
    """(low, high) exponent of each even slot some term carries and of hbar
    (key None), and the odd factors used."""
    columns: dict[int | None, list[int]] = {}
    odd = 0
    for m in num:
        odd |= m & t._odd
        for key, e in (*t._exponents(m), (None, m >> t._hbar_shift)):
            columns.setdefault(key, []).append(e)
    # a term without a slot has exponent 0 there
    n = len(num)
    return {
        key: (min(c), max(c)) if len(c) == n else (min(0, *c), max(0, *c))
        for key, c in columns.items()
    }, odd


def _product(p: dict, q: dict, t: VarTable, pos: int) -> dict:
    """The terms of the product of two term maps, refused up front past the term limit."""
    bound = len(p) * len(q)
    if bound > MAX_PARSED_TERMS:
        # colliding terms: the product also lies in the box of exponent ranges
        (rp, odd_p), (rq, odd_q) = _ranges(p, t), _ranges(q, t)
        box = 2 ** (odd_p | odd_q).bit_count()
        for key in rp.keys() | rq.keys():
            (lo_p, hi_p), (lo_q, hi_q) = rp.get(key, (0, 0)), rq.get(key, (0, 0))
            box *= hi_p + hi_q - lo_p - lo_q + 1
        bound = min(bound, box)
    if bound > MAX_PARSED_TERMS:
        raise ParseError(
            f"a product of {len(p)} and {len(q)} terms may reach {bound} terms,"
            f" over the limit of {MAX_PARSED_TERMS} terms",
            pos,
        )
    try:
        return _mul_terms(p, q, t)
    except ExponentOverflow as err:
        raise ParseError(str(err), pos) from None


def parse_expression(text: str, table: VarTable) -> GradedPoly:
    _check_type("text", text, str)
    _check_type("table", table, VarTable)
    return _Parser(text, table).parse()


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
    _check_type("model", model, ModelSpec)
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
        expected = model.expected_relations
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
        # a weighted system's data is its even weights, ";", its odd weights
        data = (*cy.data[0], ";", *cy.data[1]) if cy.kind == "weighted" else cy.data
        sections.append(["[cy]", " ".join(map(str, (cy.kind, *data)))])

    return "\n\n".join("\n".join(s) for s in sections) + "\n"


def _parse_decl(words):
    if len(words) < 2 or words[1] not in (EVEN, ODD):
        raise ValueError("expected: name even|odd [invertible] [weight K]")
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
                weight = _ascii_int(rest[1])
            except ValueError:
                raise ValueError(f"bad weight {rest[1]!r}") from None
            rest = rest[2:]
        else:
            raise ValueError(f"unexpected token {rest[0]!r}")
    return (name, parity, invertible, weight)


def _fields(pattern, line, usage):
    """The groups of ``pattern`` matched against ``line``, or an error naming ``usage``."""
    m = pattern.match(line)
    if m is None:
        raise ValueError(f"expected: {usage}")
    return m.groups()


def _once(key, seen, what):
    """Refuse the line if ``seen`` already holds ``key``: it repeats ``what``."""
    if key in seen:
        raise ValueError(f"duplicate {what}")


def _known(names, known, kind):
    for name in names:
        if name not in known:
            raise ValueError(f"unknown {kind} {name!r}")


def _cy_weights(kind, words, cut):
    """The weight system ``kind`` over the numbers ``words``, or None if they
    do not fit its shape; ``cut`` separates weighted even and odd weights."""
    if kind == "projective" and len(words) == 2:
        return CYWeights.projective(_weight(words[0]), _weight(words[1]))
    if kind == "weighted" and cut in words:
        i = words.index(cut)
        return CYWeights.weighted(
            [_weight(w) for w in words[:i]], [_weight(w) for w in words[i + 1 :]]
        )
    if kind == "ambitwistor" and len(words) == 1:
        return CYWeights.ambitwistor(_weight(words[0]))
    return None


def _weight(word):
    try:
        return _ascii_int(word)
    except ValueError:
        raise ValueError(f"weight {word!r} is not an integer") from None


_BIVECTOR_RE = re.compile(r"(\S+)\s+(\S+)\s*:=\s*(.*)$")
_RELATION_RE = re.compile(r"(comm|anti)\s+(\S+)\s+(\S+)\s*=\s*(.*)$")
_RULE_RE = re.compile(r"(\S+)\s*->\s*(.*)$")
_CHART_ENTRY_RE = re.compile(r"table\s+(\S+)\s+(\S+)\s*=\s*(.*)$")
_LAW_RE = re.compile(r"law\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s*:\s*(.*)$")


def _blocks(lines, head):
    """Cut a section into blocks, each opened by a ``head`` line.

    Yields ``(line_no, header, body, end)`` for each block, where ``end`` is
    the line that closes it: the next header, or the section's last line.
    A block is yielded only once it is closed.  The first block opens at the
    section's first line, so its header is the one to check for ``head``.
    """
    block = None
    for ln, line in lines:
        if block is None or line.startswith(head + " "):
            if block is not None:
                yield (*block, ln)
            block = (ln, line, [])
        else:
            block[2].append((ln, line))
    if block is not None:
        yield (*block, lines[-1][0])


def parse_model_text(text: str, source: str = "<model>") -> ModelSpec:
    """Read a model file's text into a ``ModelSpec``.

    Every error is a ``ModelFormatError`` that names the line it is about,
    as ``source:line``.  A chart or a transition map is built when its block
    ends, so its error names the line that closes the block.  An error of
    the whole file, such as a missing section, names no line.
    """
    _check_type("text", text, str)
    ln = None  # the line the current step is about, named by any error it raises
    try:
        sections: dict[str, list[tuple[int, str]]] = {}
        headers: dict[str, int] = {}
        current = None
        for ln, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if not body:
                continue
            if body.startswith("[") and body.endswith("]"):
                name = body[1:-1]
                if name not in _SECTIONS:
                    raise ValueError(f"unknown section [{name}]")
                if name in sections:
                    raise ValueError(f"duplicate section [{name}]")
                sections[name] = []
                headers[name] = ln
                current = name
                continue
            if current is None:
                raise ValueError("content before any section header")
            sections[current].append((ln, body))

        ln = None
        for required in ("options", "variables", "bivector"):
            if required not in sections:
                raise ValueError(f"missing section [{required}]")

        def first_line(section):
            """The section's first line, or its header line when it is empty."""
            body = sections[section]
            return body[0][0] if body else headers[section]

        name = None
        max_order = 8
        associative = True
        keys: set[str] = set()
        for ln, line in sections["options"]:
            if "=" not in line:
                raise ValueError("expected: key = value")
            key, _, value = (part.strip() for part in line.partition("="))
            _once(key, keys, f"option {key!r}")
            keys.add(key)
            if key == "name":
                name = value
            elif key == "max_order":
                try:
                    max_order = _ascii_int(value)
                except ValueError:
                    raise ValueError(f"bad max_order {value!r}") from None
                check_max_order(max_order)
            elif key == "associative":
                if value not in ("true", "false"):
                    raise ValueError("associative must be true or false")
                associative = value == "true"
            else:
                raise ValueError(f"unknown option {key!r}")
        ln = None
        if name is None:
            raise ValueError("the [options] section must set a name")

        decls = []
        for ln, line in sections["variables"]:
            decls.append(_parse_decl(line.split()))
        constants = []
        for ln, line in sections.get("constants", []):
            words = line.split()
            if len(words) != 1:
                raise ValueError("expected one constant name per line")
            constants.append(words[0])
            decls.append((words[0], EVEN, False, None))
        # a table error names the first declaration line; [variables] may be empty
        decl_lines = sections["variables"] + sections.get("constants", [])
        if not decl_lines:  # no declaration line was read, so ln is None
            raise ValueError("the model declares no variables")
        ln = decl_lines[0][0]
        table = VarTable.build(*decls)

        entries = {}
        for ln, line in sections["bivector"]:
            a, b, expr = _fields(_BIVECTOR_RE, line, "A B := expression")
            _known((a, b), table, "variable")
            _once((a, b), entries, f"entry ({a}, {b})")
            value = parse_expression(expr, table)
            # StarEngine rejects such an entry too; here it is named at its line
            if any(mono >> table._hbar_shift for mono in value._num):
                raise ValueError("bivector entries cannot contain hbar")
            entries[(a, b)] = value
        ln = first_line("bivector")
        bivector = SuperBivector(table, entries)

        expected_relations = None
        if "relations" in sections:
            relations = {}
            # the relations phase compares no constant (a bivector row is refused at the bivector)
            refused = set(constants).difference(bivector.rows())
            for ln, line in sections["relations"]:
                kw, a, b, expr = _fields(_RELATION_RE, line, "comm|anti A B = expression")
                _known((a, b), table, "variable")
                _once((a, b), relations, f"relation ({a}, {b})")
                for n in (a, b):
                    if n in refused:
                        raise ValueError(f"a relation cannot name the constant {n!r}")
                both_odd = table.parity(a) == ODD and table.parity(b) == ODD
                if (kw == "anti") != both_odd:
                    raise ValueError("anti is for odd pairs and comm for the rest")
                rhs = parse_expression(expr, table)
                coeff = rhs.hbar_coefficient(1)
                if rhs != table.hbar() * coeff:
                    raise ValueError("relation right-hand side must be linear in hbar")
                relations[(a, b)] = coeff
            ln = first_line("relations")
            expected_relations = SuperBivector(table, relations)

        fibration = None
        if "fibration" in sections:
            base_decls = []
            over_model = False
            base_table = None
            rules: dict[str, GradedPoly] = {}
            for ln, line in sections["fibration"]:
                if line == "over model":
                    if base_decls:
                        raise ValueError("base lines conflict with over model")
                    over_model = True
                elif line.startswith("base "):
                    if over_model:
                        raise ValueError("base lines conflict with over model")
                    if base_table is not None:
                        raise ValueError("base lines must come before rules")
                    base_decls.append(_parse_decl(line.split()[1:]))
                elif line.startswith("rule "):
                    if base_table is None:
                        if not (over_model or base_decls):
                            raise ValueError("fibration rules need a base")
                        # a base table error names the section's first line
                        rule_ln, ln = ln, first_line("fibration")
                        base_table = table if over_model else VarTable.build(*base_decls)
                        ln = rule_ln
                    rule_name, expr = _fields(_RULE_RE, line[5:], "rule NAME -> expression")
                    _once(rule_name, rules, f"rule {rule_name!r}")
                    rules[rule_name] = parse_expression(expr, base_table)
                else:
                    raise ValueError("expected over model, base, or rule")
            ln = first_line("fibration")
            if base_table is None:
                raise ValueError("a fibration needs rule lines")
            fibration = Fibration(base_table, rules)

        chart_by_name: dict[str, Chart] = {}
        for hln, header, body, end in _blocks(sections.get("charts", []), "chart"):
            ln = hln
            if not header.startswith("chart "):
                raise ValueError("expected a chart line first")
            chart_name = header.split(None, 1)[1].strip()
            _once(chart_name, chart_by_name, f"chart {chart_name!r}")
            chart_decls: list[tuple] = []
            chart_table = None
            chart_entries: dict[tuple[str, str], GradedPoly] = {}
            for ln, line in body:
                if line.startswith("var "):
                    if chart_table is not None:
                        raise ValueError("var lines must come before table lines")
                    chart_decls.append(_parse_decl(line.split()[1:]))
                elif line.startswith("table "):
                    if chart_table is None:
                        # a table error names the chart's header line
                        entry_ln, ln = ln, hln
                        chart_table = VarTable.build(*chart_decls)
                        ln = entry_ln
                    a, b, expr = _fields(_CHART_ENTRY_RE, line, "table A B = expression")
                    _once((a, b), chart_entries, f"table entry ({a}, {b})")
                    chart_entries[(a, b)] = parse_expression(expr, chart_table)
                else:
                    raise ValueError("expected chart, var, or table")
            if chart_table is None:
                ln = hln
                chart_table = VarTable.build(*chart_decls)
            ln = end
            chart_by_name[chart_name] = Chart(chart_name, chart_table, chart_entries)

        tmap_by: dict[tuple[str, str], TransitionMap] = {}
        for ln, header, body, end in _blocks(sections.get("transitions", []), "map"):
            if not header.startswith("map "):
                raise ValueError("expected a map line first")
            words = header.split()
            if len(words) != 3:
                raise ValueError("expected: map SRC DST")
            _known(words[1:], chart_by_name, "chart")
            _once((words[1], words[2]), tmap_by, f"map {words[1]} {words[2]}")
            src, dst = chart_by_name[words[1]], chart_by_name[words[2]]
            rules = {}
            for ln, line in body:
                rule_name, expr = _fields(_RULE_RE, line, "NAME -> expression")
                _once(rule_name, rules, f"rule {rule_name!r}")
                rules[rule_name] = parse_expression(expr, dst.table)
            ln = end
            tmap_by[words[1], words[2]] = TransitionMap(src, dst, rules)

        weight_laws: dict[tuple[str, ...], tuple[str, str, WeightLaw]] = {}
        for ln, line in sections.get("weights", []):
            sname, dname, a, b, expr = _fields(_LAW_RE, line, "law SRC DST A B : expression")
            _once((sname, dname, a, b), weight_laws, f"law {sname} {dname} {a} {b}")
            _known((sname, dname), chart_by_name, "chart")
            tmap = law_transition(tmap_by, sname, dname, (a, b))
            factor = parse_expression(expr, tmap.src.table)
            weight_laws[sname, dname, a, b] = (sname, dname, WeightLaw((a, b), factor))

        cy = None
        if "cy" in sections:
            ln = first_line("cy")
            if len(sections["cy"]) != 1:
                raise ValueError("the [cy] section takes one line")
            line = sections["cy"][0][1]
            kind, *words = line.split()
            try:
                cy = _cy_weights(kind, words, ";")
            except ValueError as err:
                raise ValueError(f"bad weight system line {line!r}: {err}") from None
            if cy is None:
                raise ValueError("expected projective, weighted, or ambitwistor")

        # the laws and max_order were checked at their lines, so what is left
        # is the engine's check of the bivector
        ln = first_line("bivector")
        return ModelSpec(
            name=name,
            constants=tuple(constants),
            bivector=bivector,
            expected_relations=expected_relations,
            fibration=fibration,
            charts=tuple(chart_by_name.values()),
            transitions=tuple(tmap_by.values()),
            weight_laws=tuple(weight_laws.values()),
            cy=cy,
            max_order=max_order,
            associative=associative,
        )
    except (ValueError, KeyError) as err:
        if isinstance(err, ParseError):
            msg = f"{err.msg} (column {err.position + 1} of the expression)"
        else:
            msg = err.args[0] if isinstance(err, KeyError) else str(err)
        raise ModelFormatError(source, ln, msg) from None


def load_model(path) -> ModelSpec:
    path = Path(path)
    return parse_model_text(path.read_text(), source=str(path))


def save_model(model: ModelSpec, path) -> None:
    """Write the model's file, once its text is known to read back as the model.

    The text is parsed and rendered again before anything is written; a text
    that fails to load, or renders otherwise once loaded, raises
    ``ValueError`` with the reload's error or the first line that differs.
    A constant is written by its name alone, as the file declares every
    constant even and after the variables, so the tables are compared too.
    """
    text = render_model_text(model)
    try:
        loaded = parse_model_text(text)
    except ModelFormatError as err:
        raise ValueError(f"model {model.name!r} does not read back: {err}") from None
    lines = zip_longest(text.splitlines(), render_model_text(loaded).splitlines(), fillvalue="")
    for ln, (line, back) in enumerate(lines, start=1):
        if line != back:
            raise ValueError(f"model {model.name!r} does not read back: line {ln} "
                             f"{line!r} reads back as {back!r}")
    for spec, back in zip(model.table.specs, loaded.table.specs):
        if spec != back:
            raise ValueError(f"model {model.name!r} does not read back: {spec} "
                             f"reads back as {back}")
    Path(path).write_text(text)


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
  -h, --help   print this usage (after a command: --help)
"""


class _CliError(Exception):
    pass


def _load_target(arg: str) -> ModelSpec:
    path = Path(arg)
    if path.exists():
        try:
            return load_model(path)
        except OSError as err:
            raise ValueError(f"cannot read {arg}: {err.strerror}") from None
    try:
        return builtin(arg)
    except UnknownModel:
        if arg.startswith("P3|N="):  # a malformed count, like one out of range, is one line
            raise ValueError(f"P3|N=N takes N in the digits 0-9, got {arg[5:]!r}") from None
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
    lhs = None if record.lhs is None else render_poly(record.lhs)
    rhs = record.rhs
    if rhs is not None:
        # equal polynomials over equal tables render alike, so a passing
        # record's second side reuses the first side's text
        rhs = lhs if rhs == record.lhs else render_poly(rhs)
    return json.dumps(
        {
            "check_id": record.check_id,
            "status": record.status,
            "lhs": lhs,
            "rhs": rhs,
            "detail": record.detail,
        }
    )


def _cmd_verify(opts, positional) -> int:
    if len(positional) != 1:
        raise _CliError("verify takes one model")
    model = _load_target(positional[0])
    report = verify_model(model, max_order=opts.get("--order"))
    counted = {"pass": 0, "fail": 0, "skip": 0}
    for record in report:
        counted[record.status] = counted.get(record.status, 0) + 1
        if "--quiet" in opts:
            continue
        print(_record_json(record) if "--json" in opts else _record_line(record))
    if "--json" not in opts:
        print(
            f"{model.name}: {counted['pass']} passed, "
            f"{counted['fail']} failed, {counted['skip']} skipped"
        )
    return 0 if report.ok else 1


def _cmd_product(opts, positional, commutator: bool) -> int:
    keys = ("--a", "--b") if commutator else ("--lhs", "--rhs")
    if len(positional) != 1:
        raise _CliError("expected one model")
    for key in keys:
        if key not in opts:
            raise _CliError(f"missing {key}")
    model = _load_target(positional[0])
    order = opts.get("--order", model.max_order)
    engine = StarEngine(model.bivector, max_order=order)
    f = parse_expression(opts[keys[0]], model.table)
    g = parse_expression(opts[keys[1]], model.table)
    result = engine.supercommutator(f, g) if commutator else engine.star(f, g)
    text = render_poly(result)
    print(json.dumps({"result": text}) if "--json" in opts else text)
    return 0


_CY_MODES = ("--projective", "--weighted", "--ambitwistor")
_CY_USAGE = {
    "projective": "cy --projective takes DIM and ODD",
    "weighted": "cy --weighted separates even and odd weights with --",
    "ambitwistor": "cy --ambitwistor takes ODD",
    None: "cy needs --projective, --weighted, or --ambitwistor",
}


def _cmd_cy(opts, positional) -> int:
    mode = next((m[2:] for m in _CY_MODES if m in opts), None)
    try:
        cy = _cy_weights(mode, positional, "--")
    except ValueError as err:
        raise ValueError(f"cy --{mode}: {err}") from None
    if cy is None:
        raise _CliError(_CY_USAGE[mode])
    index = calabi_yau_index(cy)
    flat = index if isinstance(index, tuple) else (index,)
    if "--json" in opts:
        print(json.dumps({"index": list(flat) if len(flat) > 1 else flat[0]}))
    else:
        print(" ".join(str(v) for v in flat))
    return 0 if all(v == 0 for v in flat) else 1


def _cmd_list_builtins(opts, positional) -> int:
    if opts or positional:
        raise _CliError("list-builtins takes no arguments")
    for name in list_builtins():
        print(name)
    return 0


# each command's handler and the options it reads; the parser refuses any
# other and any option given twice, and a command that reads none (None) or
# an unknown command is refused whole after parsing
_COMMANDS = {
    "verify": (_cmd_verify, ("--order", "--json", "--quiet")),
    "star": (partial(_cmd_product, commutator=False), ("--order", "--json", "--lhs", "--rhs")),
    "comm": (partial(_cmd_product, commutator=True), ("--order", "--json", "--a", "--b")),
    "cy": (_cmd_cy, ("--json", *_CY_MODES)),
    "list-builtins": (_cmd_list_builtins, None),
}
_OPTIONS = {tok for _, takes in _COMMANDS.values() for tok in takes or ()}
_VALUED = ("--order", "--lhs", "--rhs", "--a", "--b")


def _parse_args(command: str, args: list[str]) -> tuple[dict, list[str]]:
    """Each option as typed mapped to its value, or True for a flag, and the
    positional words; ``--order``'s value is read as an int."""
    takes = _COMMANDS.get(command, (None, None))[1]
    opts: dict[str, str | int | bool] = {}
    positional: list[str] = []
    words = iter(args)
    for tok in words:
        if tok == "--help" and command in _COMMANDS:
            return {tok: True}, positional  # the usage, whatever else is given
        if tok not in _OPTIONS:
            if tok.startswith("--") and tok != "--":
                raise _CliError(f"unknown option {tok}")
            positional.append(tok)
            continue
        if takes is not None:
            if tok not in takes:
                raise _CliError(f"{command} does not take {tok}")
            if tok in _CY_MODES and any(mode in opts for mode in _CY_MODES):
                raise _CliError("cy takes one of --projective, --weighted, or --ambitwistor")
            if tok in opts:
                raise _CliError(f"{tok} is given twice")
        if tok not in _VALUED:
            opts[tok] = True
            continue
        value = next(words, None)
        if value is None:
            raise _CliError(f"{tok} needs a value")
        if tok == "--order":
            try:
                value = _ascii_int(value)
            except ValueError:
                raise _CliError(f"--order needs an integer, got {value!r}") from None
        opts[tok] = value
    return opts, positional


def run(argv: list[str]) -> int:
    """Run one command; returns its exit status.

    The cyclic collector is paused for the command (see the module
    docstring) and turned back on afterwards only if it was on at entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(_USAGE)
        return 2
    command = argv[0]
    try:
        opts, positional = _parse_args(command, argv[1:])
        if command in ("--help", "-h") or "--help" in opts:
            sys.stdout.write(_USAGE)
            return 0
        if command not in _COMMANDS:
            raise _CliError(f"unknown command {command!r}")
        return _COMMANDS[command][0](opts, positional)
    except _CliError as err:
        sys.stderr.write(f"error: {err}\n")
        sys.stderr.write(_USAGE)
        return 2
    except ValueError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except TruncationExceeded as err:
        hint = "" if err.sufficient_order is None else f" (use --order {err.sufficient_order})"
        sys.stderr.write(f"error: {err}{hint}\n")
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe, as `| head -1` does: stop without a
        # traceback and with the status a shell reports for a tool ended by
        # SIGPIPE (128 + 13); stdout now writes to os.devnull, so the flush
        # at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
