"""Tests of the benchmark's own parts: oracle, percentile rule, tracing.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from math import factorial
from random import Random

import pytest

import layertrace
import run
import workloads
from oracle import OracleTruncated, central_closed_form, d_left, oracle_comm, oracle_star
from supermoyal import graded_calculus, moyal, poisson
from supermoyal.graded_ring import EVEN, ODD, GradedPoly, VarTable
from supermoyal.models import builtin
from supermoyal.moyal import StarEngine, TruncationExceeded
from supermoyal.poisson import SuperBivector


def _plain_tuple_sum(bivector, f, g, depth_limit):
    """The unmemoised sum over ordered derivation tuples."""
    table = bivector.table
    total = f * g
    for mono, c in f.terms.items():
        F0 = GradedPoly(table, {mono: Fraction(1)})

        def descend(depth, F, G, prod, pf, sign):
            nonlocal total
            if depth == depth_limit:
                return
            for (a, b), entry in bivector.entries.items():
                pa = table.parity(a) == ODD
                pb = table.parity(b) == ODD
                Fa, Gb = d_left(table, a, F), d_left(table, b, G)
                if Fa.is_zero() or Gb.is_zero():
                    continue
                n, pfa = depth + 1, pf ^ pa
                s = -sign if pb and pfa else sign
                term = (prod * entry * Fa * Gb).scale(Fraction(s, factorial(n) * 2**n))
                total = total + (table.hbar(n) * term).scale(c)
                descend(n, Fa, Gb, prod * entry, pfa, s)

        descend(0, F0, g, table.one(), mono.parity(), 1)
    return total


def _random_poly(rng, table, names, terms=2, max_factors=3):
    out = table.zero()
    for _ in range(rng.randint(1, terms)):
        term = table.const(rng.choice([1, -1, 2, Fraction(1, 2)]))
        for name in rng.sample(names, rng.randint(0, max_factors)):
            term = term * table.var(name)
        out = out + term
    return out


def _mixed_table():
    t = VarTable.build(("x", EVEN), ("y", EVEN), ("th1", ODD), ("th2", ODD), ("C", EVEN))
    pi = SuperBivector(t, {("x", "y"): t.one(), ("th1", "th2"): t.var("C"),
                           ("th1", "th1"): t.const(3)})
    return t, pi


def test_oracle_derivative_matches_package():
    rng = Random(5)
    for name in ("T0-cotangent", "L5|6", "WP[1,3]"):
        t = builtin(name).table
        names = list(t.names())
        for _ in range(30):
            p = _random_poly(rng, t, names, terms=3)
            for v in names:
                assert d_left(t, v, p) == graded_calculus.d_left(v, p)


def test_oracle_memo_matches_plain_tuple_sum():
    rng = Random(7)
    t, pi = _mixed_table()
    names = ["x", "y", "th1", "th2"]
    for _ in range(40):
        f = _random_poly(rng, t, names)
        g = _random_poly(rng, t, names)
        assert oracle_star(pi, f, g, 8) == _plain_tuple_sum(pi, f, g, 8)


@pytest.mark.parametrize("name", ["T0-cotangent", "L5|6", "WP[2,2]", "P3|4"])
def test_oracle_matches_engine_on_small_inputs(name):
    spec = builtin(name)
    rows = list(spec.bivector.rows())
    rng = Random(len(name))
    engine = StarEngine(spec.bivector, spec.max_order)
    for _ in range(15):
        f = _random_poly(rng, spec.table, rows)
        g = _random_poly(rng, spec.table, rows)
        assert oracle_star(spec.bivector, f, g, spec.max_order) == engine.star(f, g)
        if f.parity() != "mixed" and g.parity() != "mixed":
            assert oracle_comm(spec.bivector, f, g, spec.max_order) == \
                engine.supercommutator(f, g)


def test_oracle_truncation_and_closed_form():
    spec = builtin("P3|4")
    t = spec.table
    engine = StarEngine(spec.bivector, 8)
    assert central_closed_form(t, 7) == engine.star(t.var("z1", 7), t.var("z2", 7))
    assert central_closed_form(t, 8) == oracle_star(spec.bivector, t.var("z1", 8),
                                                    t.var("z2", 8), 8)
    with pytest.raises(OracleTruncated):
        oracle_star(spec.bivector, t.var("z1", 9), t.var("z2", 9), 8)
    with pytest.raises(TruncationExceeded):
        engine.star(t.var("z1", 9), t.var("z2", 9))


def test_probe_records_the_truncation_boundary():
    probe = workloads.run_probe()
    assert probe["failed"] == (probe["exit"] != 0)


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(20)), 50) == 9
    assert run.percentile(list(range(19)), 50) is None
    assert run.percentile(list(range(100)), 90) == 89
    assert run.percentile(list(range(99)), 90) is None
    assert run.percentile([], 50) is None


def test_ladder_inputs_depend_only_on_seed():
    wl = workloads.StarLadder()
    assert wl.prepare(3)["ops"] == wl.prepare(3)["ops"]
    assert wl.prepare(3)["ops"] != wl.prepare(4)["ops"]


def _small_assoc_inputs():
    wl = workloads.AssocSweep()
    inputs = wl.prepare(1)
    inputs["ops"] = inputs["ops"][::400]
    return wl, inputs


def _small_ladder_inputs():
    wl = workloads.StarLadder()
    inputs = wl.prepare(2)
    inputs["ops"] = inputs["ops"][:12] + inputs["ops"][28:32] + inputs["ops"][-1:]
    return wl, inputs


@pytest.mark.parametrize("make", [_small_assoc_inputs, _small_ladder_inputs])
def test_traced_and_untraced_runs_agree(make):
    wl, inputs = make()
    first = layertrace.Tracer()
    ops, plain, traced, overhead = run._traced(wl, inputs, first)
    assert [repr(x) for x in plain] == [repr(x) for x in traced]
    assert run._check(wl, inputs, [(ops, plain), (ops, traced)]) == []
    assert overhead > 0
    second = layertrace.Tracer()
    run._traced(wl, inputs, second)
    counts = {k: v for k, v in first.metrics().items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second.metrics().items() if not k.endswith("_s")}
    assert counts["moyal.star.calls"] > 0
    assert first.calls == second.calls


def test_tracer_rebinds_every_import_and_restores_it():
    original = graded_calculus.d_left
    assert moyal.d_left is original and poisson.d_left is original
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert moyal.d_left is not original and poisson.d_left is moyal.d_left
        t, pi = _mixed_table()
        StarEngine(pi).star(t.var("x"), t.var("y"))
    finally:
        tracer.uninstall()
    assert moyal.d_left is original and poisson.d_left is original
    assert tracer.calls["graded_calculus.d_left"] > 0
    assert tracer.calls["moyal.star"] == 1


def test_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = layertrace.Tracer(clock=lambda: next(ticks))
    outer = tracer._wrap("moyal.star", lambda: inner(), None)
    inner = tracer._wrap("graded_calculus.d_left", lambda: None, None)
    outer()
    # outer opens at 0, inner spans 1..2, outer closes at 3
    assert tracer.self_s["graded_calculus.d_left"] == 1
    assert tracer.self_s["moyal.star"] == 2
    assert [s[2] for s in tracer.spans] == ["moyal.star"]


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "assoc-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_verify_digests_cover_the_catalog():
    expected = json.loads(workloads.EXPECTED_VERIFY.read_text())
    assert len(expected) == 9 and expected["P3|N=6"]["exit"] == 1


def test_speed_gauge_scales_to_the_reference_loop():
    ticks = iter(range(0, 1000, 2))  # each reference loop "takes" 2 ticks
    gauge = run.SpeedGauge(clock=lambda: next(ticks) * run.REFERENCE_S)
    assert gauge.after(busy_s=run.REFERENCE_S / run.GAUGE_SHARE * 3) == 0
    assert len(gauge.samples) == 3
    # the machine runs the loop at half the reference speed
    assert gauge.scale() == pytest.approx(0.5)
    assert gauge.scale_at(2) == pytest.approx(0.5)
