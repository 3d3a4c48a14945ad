"""Benchmark for supermoyal: three workloads, timed end to end, traced per layer.

Run every workload, untraced and then traced, and print each metric:

    python3 bench/run.py --seed 1 --seconds 15 [--out bench/results/BENCH_x.json]

Run one workload and print its result as one JSON line at the end:

    python3 bench/run.py --workload star-ladder --seed 1 --seconds 15 --trace 0

Run from the repository root or anywhere else; the package is imported from
``src/`` beside this directory.  Each workload runs in its own process, one
after another, with a fixed hash seed.  Set-up time is measured in
``SETUP_SAMPLES`` fresh processes and reported as the median.

With ``--trace 0`` the metrics are the end-to-end ones: operations per
second, median latency per operation and set-up time, all at the reference
speed of ``SpeedGauge``, and peak resident memory.  The 90th percentile and
the error rate are printed beside them.  With ``--trace 1`` the workload
process runs one pass untraced and one traced (see ``layertrace.py``) and
the metrics are per layer; call and work counts repeat exactly for a given
seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("verify-catalog", "star-ladder", "assoc-sweep")
SETUP_SAMPLES = 5
# p50 needs ten samples above it, so a timed run takes at least this many
MIN_OPS = 20
# a run must end within 180 s; every process it starts shares this budget
RUN_BUDGET_S = 170

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms.p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

# Timings are reported at a reference speed: the speed at which the reference
# loop below takes REFERENCE_S.  The loop is timed for about GAUGE_SHARE of
# the time spent in operations, interleaved with them.
REFERENCE_S = 0.001
GAUGE_SHARE = 0.05
SETUP_GAUGE_SAMPLES = 40
# loop timings averaged for one operation, half before it and half after
GAUGE_WINDOW = 20


def percentile(samples, q: float):
    """Nearest-rank q-th percentile, or None unless ten samples lie above it."""
    n = len(samples)
    rank = math.ceil(q / 100 * n)
    if rank < 1 or n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_reuse", ".overhead")):
        return "ratio"
    return "count"


# -- the workload process ------------------------------------------------------

def _reference_loop() -> int:
    """Fixed pure-Python work: dict updates and Fraction arithmetic."""
    acc: dict = {}
    for i in range(300):
        key = (i & 31, i % 3)
        acc[key] = acc.get(key, 0) + Fraction(i % 5 + 1, i % 3 + 1)
    return len(acc)


class SpeedGauge:
    """Measures how fast the machine runs Python, while a workload runs.

    On a shared machine the same work can take a third longer in one minute
    than in the next, in wall time and process time alike.  The gauge times
    a fixed loop between operations, in proportion to the time they take.
    ``scale_at`` converts the time of an operation to the time it takes at
    the reference speed, from the loop timings closest to it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[float] = []
        self._owed = 0.0

    def sample(self) -> None:
        # a collection of the workload's heap must not be charged to the loop
        gc.disable()
        try:
            start = self.clock()
            _reference_loop()
            self.samples.append(self.clock() - start)
        finally:
            gc.enable()

    def after(self, busy_s: float) -> int:
        """Sample in proportion to ``busy_s`` seconds of operations.

        Returns the position of the operation among the samples.
        """
        position = len(self.samples)
        self._owed += busy_s * GAUGE_SHARE
        while self._owed > 0:
            self.sample()
            self._owed -= REFERENCE_S
        return position

    def scale(self) -> float:
        return REFERENCE_S * len(self.samples) / sum(self.samples)

    def scale_at(self, position: int, window: int = GAUGE_WINDOW) -> float:
        lo = max(0, min(position - window // 2, len(self.samples) - window))
        near = self.samples[lo:lo + window]
        return REFERENCE_S * len(near) / sum(near)


class _Raised:
    """Stands in for the output of an operation that raised."""

    def __init__(self, err: BaseException):
        self.text = f"{type(err).__name__}: {err}"

    def __repr__(self) -> str:
        return self.text


def _run(wl, state, op):
    try:
        return wl.run_op(state, op)
    except Exception as err:  # a raising operation is a failed one, not a crash
        return _Raised(err)


def _check(wl, inputs, passes):
    """Failures per operation over every pass; an operation that raised fails."""
    errors = []
    for ops, outs in passes:
        pairs = [(op, out) for op, out in zip(ops, outs) if not isinstance(out, _Raised)]
        found = iter(wl.check(inputs, pairs))
        for op, out in zip(ops, outs):
            errors.append(f"{op!r} raised {out}" if isinstance(out, _Raised) else next(found))
    return [e for e in errors if e]


def _timed(wl, inputs, seconds: float, gauge: SpeedGauge):
    """Whole passes until ``seconds`` have passed; latencies at reference speed."""
    clock = time.perf_counter
    latencies, positions, passes = [], [], []
    rss_mb = None
    start = clock()
    while True:
        state, ops = wl.pass_ops(inputs)
        outs = []
        for op in ops:
            t0 = clock()
            outs.append(_run(wl, state, op))
            took = clock() - t0
            latencies.append(took)
            positions.append(gauge.after(took))
        passes.append((ops, outs))
        if rss_mb is None:
            # the peak of one pass: later passes add only the timings kept
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = clock() - start
        if elapsed >= seconds and len(latencies) >= MIN_OPS:
            scaled = [t * gauge.scale_at(p) for t, p in zip(latencies, positions)]
            return elapsed, latencies, scaled, passes, rss_mb


def _traced(wl, inputs, tracer):
    clock = time.perf_counter
    state, ops = wl.pass_ops(inputs)
    start = clock()
    plain = [_run(wl, state, op) for op in ops]
    untraced_s = clock() - start
    tracer.install()
    try:
        state, _ = wl.pass_ops(inputs)  # fresh engines, same operations
        start = clock()
        traced = [_run(wl, state, op) for op in ops]
        traced_s = clock() - start
    finally:
        tracer.uninstall()
    return ops, plain, traced, traced_s / untraced_s


def child_main(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads  # imports supermoyal

    wl = workloads.WORKLOADS[args.child]
    inputs = wl.prepare(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    setup_gauge = SpeedGauge()
    for _ in range(SETUP_GAUGE_SAMPLES):
        setup_gauge.sample()
    setup = {"setup_s": setup_s * setup_gauge.scale(), "setup_raw_s": setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    out = dict(setup, sizes=wl.sizes(inputs))
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        ops, plain, traced, overhead = _traced(wl, inputs, tracer)
        errors = _check(wl, inputs, [(ops, plain), (ops, traced)])
        same = [repr(a) for a in plain] == [repr(b) for b in traced]
        if not same:
            errors.append("traced outputs differ from untraced outputs")
        metrics = tracer.metrics()
        metrics["trace.overhead"] = overhead
        spans = BENCH_DIR / "out" / f"spans-{wl.name}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans)
        out.update(attempted=2 * len(ops), metrics=metrics, spans=str(spans.relative_to(ROOT)))
    else:
        gauge = SpeedGauge()
        elapsed, latencies, scaled, passes, rss_mb = _timed(wl, inputs, args.seconds, gauge)
        errors = _check(wl, inputs, passes)
        ms = [x * 1000 for x in scaled]
        out.update(
            attempted=len(ms),
            elapsed_s=elapsed,
            speed_scale=gauge.scale(),
            raw_ops_per_s=len(ms) / sum(latencies),
            metrics={
                "ops_per_s": len(ms) / sum(scaled),
                "op_ms.p50": percentile(ms, 50),
                "peak_rss_mb": rss_mb,
            },
            op_ms_p90=percentile(ms, 90),
        )
        if wl.name == "star-ladder":
            out["probe"] = workloads.run_probe()
    out["failed"] = len(errors)
    out["errors"] = errors[:5]
    print(json.dumps(out))
    return 0


# -- the driving process -------------------------------------------------------

def _spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
           setup_only=False) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run as the JSON contract has it, plus details for the printout."""
    deadline = time.monotonic() + RUN_BUDGET_S
    # set-up time is an end-to-end metric, so a traced run does not sample it
    samples = 0 if trace else SETUP_SAMPLES - 1
    setups = [_spawn(workload, seed, seconds, trace, deadline, setup_only=True)["setup_s"]
              for _ in range(samples)]
    res = _spawn(workload, seed, seconds, trace, deadline)
    setups.append(res["setup_s"])
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["metrics"].items()}
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {
        "result": {"correct": res["failed"] == 0, "attempted": res["attempted"],
                   "failed": res["failed"], "metrics": metrics},
        "detail": res,
        "setup_samples_s": setups,
    }


def describe(workload: str, run: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    res, detail = run["result"], run["detail"]
    head = f"{workload}:"
    lines = [f"{head} {name} = {m['value']:.6g} {m['unit']}"
             for name, m in res["metrics"].items()]
    if "speed_scale" in detail:
        p90 = detail["op_ms_p90"]
        lines += [
            f"{head} op_ms.p90 = " + (f"{p90:.6g} ms" if p90 is not None
                                      else "not reported (fewer than 100 samples)"),
            f"{head} percentiles are over n={res['attempted']} operations",
            f"{head} timings are at reference speed; the machine ran at "
            f"{1 / detail['speed_scale']:.4g}x the reference time, "
            f"unscaled ops_per_s = {detail['raw_ops_per_s']:.6g} 1/s",
        ]
    lines.append(f"{head} error_rate = {res['failed'] / res['attempted']:.6g} "
                 f"({res['failed']} of {res['attempted']} operations failed)")
    lines += [f"{head} FAILED {err}" for err in detail["errors"]]
    probe = detail.get("probe")
    if probe:
        verdict = "failed" if probe["failed"] else "passed"
        why = f"exit {probe['exit']}: {probe['stderr']}" if probe["stderr"] else "exact"
        lines.append(f"{head} truncation-boundary probe {' '.join(probe['argv'])}: "
                     f"{verdict} ({why})")
    return lines


def _context(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "setup_samples": SETUP_SAMPLES,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with no --workload: write all results to this file")
    ap.add_argument("--child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        return child_main(args)
    missing = [p for p in ("src/supermoyal/__init__.py", "models") if not (ROOT / p).exists()]
    if missing:
        sys.stderr.write(f"error: {', '.join(missing)} not found beside bench/\n")
        return 2

    if args.workload:
        run = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(describe(args.workload, run)))
        print(json.dumps(run["result"]))
        return 0

    report = {"context": _context(args.seed, args.seconds), "workloads": {}}
    for name in WORKLOAD_NAMES:
        plain = run_workload(name, args.seed, args.seconds, 0)
        traced = run_workload(name, args.seed, args.seconds, 1)
        print("\n".join(describe(name, plain) + describe(name + " (traced)", traced)))
        detail = plain["detail"]
        report["workloads"][name] = {
            "sizes": detail["sizes"],
            "end_to_end": plain["result"],
            "op_ms.p90": detail["op_ms_p90"],
            "setup_samples_s": plain["setup_samples_s"],
            "probe": detail.get("probe"),
            "per_layer": traced["result"],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    failed = sum(w["end_to_end"]["failed"] + w["per_layer"]["failed"]
                 for w in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
