"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions of each supermoyal layer and
rebinds every module-level name that refers to them, so calls made inside
the package (``moyal.d_left``, ``poisson.d_left``, ...) are seen as well as
calls made by the benchmark.  Each wrapper records one span; a layer's self
time is its span's duration minus the time its child spans cover.

Per-name totals and counters are kept for every call.  Span records (name,
start, end, parent) are kept only for the coarse layers, because the ring
and calculus layers are called millions of times per run; they stay in
memory and ``write_spans`` writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time

# (metric prefix, module, attribute path).  The prefix is the per-layer name.
TARGETS = (
    ("graded_ring.mul", "graded_ring", "GradedPoly.__mul__"),
    ("graded_ring.add", "graded_ring", "GradedPoly.__add__"),
    ("graded_ring.scale", "graded_ring", "GradedPoly.scale"),
    ("graded_ring.substitute", "graded_ring", "substitute"),
    ("graded_calculus.d_left", "graded_calculus", "d_left"),
    ("poisson.poisson_bracket", "poisson", "poisson_bracket"),
    ("poisson.schouten_bracket", "poisson", "schouten_bracket"),
    ("moyal.star", "moyal", "StarEngine.star"),
    ("moyal.supercommutator", "moyal", "StarEngine.supercommutator"),
    ("moyal.check_quantization_contract", "moyal", "check_quantization_contract"),
    ("atlas.TransitionMap.apply", "atlas", "TransitionMap.apply"),
    ("atlas.check_weight_law", "atlas", "check_weight_law"),
    ("atlas.check_cocycle", "atlas", "check_cocycle"),
    ("models.builtin", "models", "builtin"),
    ("models.verify_model", "models", "verify_model"),
    ("cli.run", "cli", "run"),
    ("cli.parse_expression", "cli", "parse_expression"),
    ("cli.render_poly", "cli", "render_poly"),
    ("cli.load_model", "cli", "load_model"),
)

# Layers whose individual spans are kept; the others are only totalled.
SPAN_LAYERS = ("moyal", "poisson", "atlas", "models", "cli")

COUNTERS = (
    "graded_ring.mul.term_pairs",
    "graded_ring.add.terms_in",
    "graded_calculus.d_left.zeros",
    "moyal.pairs_requested",
    "moyal.order_max",
)


class Tracer:
    """Wraps the package's layer functions and accumulates spans and counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {name: 0 for name, _, _ in TARGETS}
        self.self_s = {name: 0.0 for name, _, _ in TARGETS}
        self.counts = {name: 0 for name in COUNTERS}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._pairs: set = set()
        self._engine_serial: dict[int, int] = {}
        self._serials = itertools.count()
        self._span_ids = itertools.count(1)
        self._stack: list[list] = []  # [child time, span id] per open span
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("supermoyal")]
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(f"supermoyal.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf)
            wrapped = self._wrap(name, orig, _HOOKS.get(name))
            if path:
                self._rebind(owner, leaf, wrapped)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            self._rebind(module, key, wrapped)
        moyal = importlib.import_module("supermoyal.moyal")
        init = moyal.StarEngine.__init__

        def engine_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            # ids are reused after collection; a new engine always passes here
            self._engine_serial[id(engine)] = next(self._serials)

        self._rebind(moyal.StarEngine, "__init__", engine_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _rebind(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn, hook):
        clock = self.clock
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        keep_span = name.split(".", 1)[0] in SPAN_LAYERS
        spans, span_ids = self.spans, self._span_ids

        def wrapper(*args, **kwargs):
            frame = [0.0, next(span_ids) if keep_span else 0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                calls[name] += 1
                self_s[name] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if keep_span:
                    parent = next((f[1] for f in reversed(stack) if f[1]), 0)
                    spans.append((frame[1], parent, name, start, end))
            if hook is not None:
                hook(self, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named ``<module>.<function>.<stat>``."""
        out: dict[str, float] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["graded_ring.mul.term_pairs"] = self.counts["graded_ring.mul.term_pairs"]
        out["graded_ring.add.terms_in"] = self.counts["graded_ring.add.terms_in"]
        d_calls = self.calls["graded_calculus.d_left"]
        zeros = self.counts["graded_calculus.d_left.zeros"]
        out["graded_calculus.d_left.zero_share"] = zeros / d_calls if d_calls else 0.0
        requested = self.counts["moyal.pairs_requested"]
        out["moyal.pairs_requested"] = requested
        out["moyal.pairs_distinct"] = len(self._pairs)
        out["moyal.pair_reuse"] = 1 - len(self._pairs) / requested if requested else 0.0
        out["moyal.order_max"] = self.counts["moyal.order_max"]
        return out

    def write_spans(self, path) -> None:
        """Write the kept spans as one JSON object per line."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "end": end}
                ) + "\n")


# -- counting hooks: run after the span closes, so they add to overhead only --

def _count_mul(tracer, args, out):
    other = args[1]
    if hasattr(other, "terms"):
        tracer.counts["graded_ring.mul.term_pairs"] += len(args[0].terms) * len(other.terms)


def _count_add(tracer, args, out):
    tracer.counts["graded_ring.add.terms_in"] += len(args[0].terms) + len(args[1].terms)


def _count_d_left(tracer, args, out):
    if out.is_zero():
        tracer.counts["graded_calculus.d_left.zeros"] += 1


def _count_star(tracer, args, out):
    engine, f, g = args[0], args[1], args[2]
    serial = tracer._engine_serial[id(engine)]
    tracer.counts["moyal.pairs_requested"] += len(f.terms) * len(g.terms)
    tracer._pairs.update((serial, mf, mg) for mf in f.terms for mg in g.terms)
    top = max((m.hbar for m in out.terms), default=0)
    if top > tracer.counts["moyal.order_max"]:
        tracer.counts["moyal.order_max"] = top


_HOOKS = {
    "graded_ring.mul": _count_mul,
    "graded_ring.add": _count_add,
    "graded_calculus.d_left": _count_d_left,
    "moyal.star": _count_star,
}
