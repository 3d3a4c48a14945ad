"""The three benchmark workloads: inputs from a seed, operations, checks.

Each workload builds its inputs in ``prepare(seed)``, runs one operation at
a time through ``run_op`` and checks outputs in ``check``, which is called
outside the timed region.  A *pass* is one sweep over the inputs; the timed
loop repeats whole passes, so every run times the same mix of operations.

- verify-catalog: ``supermoyal verify <model> --json`` in process, over the
  shipped model files and ``P3|N=6``.  The only workload that reaches the
  atlas, substitution with Laurent inversion, model-file parsing and
  rendering.  Outputs are compared with digests in ``expected/``.
- star-ladder: ``supermoyal star`` and ``comm`` in process, each call
  building a fresh engine as the CLI does, so no monomial pair is reused.
  Left operands climb row-degree 0..6 on T0-cotangent (many bivector
  pairs, so contraction states multiply) and L5|6.  Outputs are compared
  with the tuple-sum oracle.
- assoc-sweep: one engine per model per pass checks (f*g)*h == f*(g*h) on
  every triple of a degree <= 3 basis plus seeded random triples, the
  traffic of the quantization contract: mostly cache reads and ring
  arithmetic.  An unequal triple is a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from itertools import combinations
from pathlib import Path
from random import Random

from oracle import central_closed_form, oracle_comm, oracle_star
from supermoyal import cli
from supermoyal.models import builtin
from supermoyal.moyal import StarEngine

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_VERIFY = BENCH_DIR / "expected" / "verify_catalog.json"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call; returns exit code, standard output and error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- verify-catalog ----------------------------------------------------------

class VerifyCatalog:
    name = "verify-catalog"

    def prepare(self, seed: int):
        models = sorted(p.as_posix() for p in Path("models").glob("*.model"))
        if len(models) != 8:
            raise FileNotFoundError("expected the 8 shipped models/*.model files")
        models.append("P3|N=6")
        Random(seed).shuffle(models)
        return {"models": models}

    def sizes(self, inputs) -> dict:
        return {"models": inputs["models"]}

    def pass_ops(self, inputs):
        return None, inputs["models"]

    def run_op(self, state, model: str):
        return run_cli(["verify", model, "--json"])

    def check(self, inputs, results) -> list[str]:
        expected = json.loads(EXPECTED_VERIFY.read_text())
        errors = []
        for model, (code, text, _) in results:
            want = expected[model]
            problem = None
            if code != want["exit"]:
                problem = f"exit {code}, expected {want['exit']}"
            elif digest(text) != want["sha256"]:
                problem = "JSON lines differ from the recorded digest"
            else:
                problem = _verify_semantics(model, text)
            errors.append(f"verify {model}: {problem}" if problem else None)
        return errors


def _verify_semantics(model: str, text: str) -> str | None:
    """The outcomes the catalog is known for, independent of the digest."""
    records = {r["check_id"]: r for r in map(json.loads, text.splitlines())}
    failing = sorted(k for k, r in records.items() if r["status"] == "fail")
    if model == "P3|N=6":
        cy = records.get("cy index", {})
        if failing != ["cy index"] or cy.get("detail") != "-2":
            return "expected only 'cy index' to fail, with detail -2"
    elif failing:
        return f"unexpected failures {failing}"
    if model.endswith("t1_cotangent.model"):
        if records.get("contract associativity", {}).get("status") != "skip":
            return "expected 'contract associativity' to be skipped"
    return None


# -- star-ladder -------------------------------------------------------------

# Even and odd rows of each model as slots (class, index).  A seed permutes
# the names inside each class, which keeps the pattern of non-zero bivector
# entries, so every seed gives operands with the same contraction structure
# and the same cost; only names and coefficients change.
LADDER_CLASSES = {
    "T0-cotangent": {"x": ("x11", "x12", "x21", "x22"), "t": ("t11", "t12", "t21", "t22")},
    "L5|6": {"X": ("X1", "X2"), "Y": ("Y1", "Y2"),
             "xi": ("xi1", "xi2", "xi3"), "ze": ("ze1", "ze2", "ze3")},
}
LADDER_SLOTS = {
    "T0-cotangent": ([("x", i) for i in range(4)], [("t", i) for i in range(4)]),
    "L5|6": ([("X", 0), ("Y", 0), ("X", 1), ("Y", 1)],
             [(c, i) for i in range(3) for c in ("xi", "ze")]),
}

# Left operand row-degree r -> (even exponents, number of odd factors).
RUNGS = {
    0: ((), 0),
    1: ((1,), 0),
    2: ((1,), 1),
    3: ((1, 1), 1),
    4: ((1, 1, 1), 1),
    5: ((1, 1, 1), 2),
    6: ((2, 1, 1), 2),
}
RIGHT_SHAPE = ((1, 1, 1), 1)
# integers, so that the seed does not change how costly the arithmetic is;
# the engine's 1/(n! 2^n) factors bring in the denominators
COEFFS = (1, -1, 2, -2, 3, -3)

PROBE_ARGV = ["star", "P3|4", "--lhs", "z1^8", "--rhs", "z2^8"]


def _term_text(rng: Random, names, model: str, shape, offset: int) -> str:
    """One monomial: the shape's factors on consecutive slots from ``offset``."""
    evens, odds = LADDER_SLOTS[model]
    exps, n_odd = shape
    factors = []
    for j, e in enumerate(exps):
        name = names[evens[(offset + j) % len(evens)]]
        factors.append(name if e == 1 else f"{name}^{e}")
    factors += [names[odds[(offset + j) % len(odds)]] for j in range(n_odd)]
    coeff = rng.choice(COEFFS)
    if coeff != 1 or not factors:
        factors.insert(0, f"({coeff})")
    return "*".join(factors)


def _operand_text(rng, names, model, shape, offsets) -> str:
    return " + ".join(_term_text(rng, names, model, shape, o) for o in offsets)


class StarLadder:
    name = "star-ladder"

    def prepare(self, seed: int):
        rng = Random(seed)
        ops = []
        for model, classes in LADDER_CLASSES.items():
            names = {}
            for cls, members in classes.items():
                shuffled = rng.sample(members, len(members))
                names.update(((cls, i), n) for i, n in enumerate(shuffled))
            for shape in RUNGS.values():
                right = _operand_text(rng, names, model, RIGHT_SHAPE, (1,))
                for command, offsets in (("star", (0,)), ("comm", (2,)),
                                         ("star", (0, 1)), ("comm", (1, 2, 3))):
                    left = _operand_text(rng, names, model, shape, offsets)
                    flags = ("--lhs", "--rhs") if command == "star" else ("--a", "--b")
                    ops.append([command, model, flags[0], left, flags[1], right])
        # just below the truncation boundary: the series ends at hbar^7 < 8
        ops.append(["star", "P3|4", "--lhs", "z1^7", "--rhs", "z2^7"])
        return {"ops": ops}

    def sizes(self, inputs) -> dict:
        return {"ops_per_pass": len(inputs["ops"]), "rungs": len(RUNGS),
                "models": list(LADDER_CLASSES) + ["P3|4"]}

    def pass_ops(self, inputs):
        return None, inputs["ops"]

    def run_op(self, state, argv):
        return run_cli(argv)

    def check(self, inputs, results) -> list[str]:
        want_by_op = inputs.setdefault("expected", {})
        errors = []
        for argv, (code, text, err) in results:
            key = tuple(argv)
            if key not in want_by_op:
                want_by_op[key] = _ladder_expected(argv)
            want = want_by_op[key]
            ok = code == 0 and text == want
            errors.append(None if ok else f"{' '.join(argv)}: got {text.strip()!r} "
                          f"{err.strip()!r} (exit {code}), oracle {want.strip()!r}")
        return errors


def _ladder_expected(argv) -> str:
    command, model = argv[0], argv[1]
    spec = builtin(model)
    f = cli.parse_expression(argv[3], spec.table)
    g = cli.parse_expression(argv[5], spec.table)
    fn = oracle_comm if command == "comm" else oracle_star
    return cli.render_poly(fn(spec.bivector, f, g, spec.max_order)) + "\n"


def run_probe() -> dict:
    """The truncation-boundary probe: z1^8 * z2^8 on P3|4 at max_order 8.

    The series ends at hbar^8, so the product is well defined at the default
    order; an engine that raises whenever states are still live at the last
    order fails it.  Reported beside the timed operations, not among them.
    """
    spec = builtin("P3|4")
    want = cli.render_poly(central_closed_form(spec.table, 8)) + "\n"
    code, text, err = run_cli(PROBE_ARGV)
    return {
        "argv": PROBE_ARGV,
        "failed": not (code == 0 and text == want),
        "exit": code,
        "stderr": err.strip(),
    }


# -- assoc-sweep -------------------------------------------------------------

ASSOC_MODELS = (
    ("WP[2,2]", ("z1", "z2"), ("xi1", "xi2")),
    ("P3|N", ("z3", "z4"), ("xi1", "xi2")),
)
ASSOC_RANDOM_TRIPLES = 200


def degree_basis(table, evens, odds, max_degree: int):
    """Every monomial of degree <= max_degree in two even and some odd variables."""
    out = []
    for degree in range(max_degree + 1):
        for k in range(min(degree, len(odds)) + 1):
            for picked in combinations(odds, k):
                rest = degree - k
                for i in range(rest + 1):
                    p = table.var(evens[0], rest - i) * table.var(evens[1], i)
                    for name in picked:
                        p = p * table.var(name)
                    out.append(p)
    return out


def _random_poly(rng: Random, table, names):
    out = table.zero()
    for _ in range(rng.randint(1, 3)):
        term = table.const(rng.choice(COEFFS))
        for name in rng.sample(names, rng.randint(0, 3)):
            term = term * table.var(name)
        out = out + term
    return out


class AssocSweep:
    name = "assoc-sweep"

    def prepare(self, seed: int):
        rng = Random(seed)
        models = []
        for model, evens, odds in ASSOC_MODELS:
            spec = builtin(model)
            basis = degree_basis(spec.table, evens, odds, 3)
            triples = [(f, g, h) for f in basis for g in basis for h in basis]
            names = list(evens + odds)
            triples += [
                tuple(_random_poly(rng, spec.table, names) for _ in range(3))
                for _ in range(ASSOC_RANDOM_TRIPLES)
            ]
            models.append((spec, triples))
        ops = [(i, triple) for i, (_, triples) in enumerate(models) for triple in triples]
        return {"models": models, "ops": ops, "basis_size": len(basis)}

    def sizes(self, inputs) -> dict:
        return {"models": [spec.name for spec, _ in inputs["models"]],
                "basis_max_degree": 3, "basis_size": inputs["basis_size"],
                "random_triples_per_model": ASSOC_RANDOM_TRIPLES,
                "triples_per_pass": len(inputs["ops"])}

    def pass_ops(self, inputs):
        # a fresh engine per model per pass: each pass fills its own cache
        engines = [StarEngine(spec.bivector, spec.max_order) for spec, _ in inputs["models"]]
        return engines, inputs["ops"]

    def run_op(self, engines, op):
        i, (f, g, h) = op
        engine = engines[i]
        return engine.star(engine.star(f, g), h) == engine.star(f, engine.star(g, h))

    def check(self, inputs, results) -> list[str]:
        return [None if equal else f"non-associative triple {op[1]!r}"
                for op, equal in results]


WORKLOADS = {w.name: w for w in (VerifyCatalog(), StarLadder(), AssocSweep())}
