#!/usr/bin/env python3
"""Compare the end-to-end benchmark metrics of two checkouts, run by run.

    python3 scripts/ab_bench.py PARENT CHANGE [--workload verify-catalog ...] \\
        --seed 1 --seconds 15 --pairs 10

``--workload`` may be given more than once; without it every workload of
CHANGE's ``BENCHMARK.json`` is compared, in its order.  A name that is no
workload there is refused, with the valid names, before any run.  The
workloads run one after another.  Each pair runs ``bench/run.py --workload
W --seed S --seconds N --trace 0`` once in each tree, PARENT first in odd
pairs and CHANGE first in even ones, so drift in the machine's speed
reaches both sides alike.  The runs get ``PYTHONDONTWRITEBYTECODE=1``,
which their workload processes inherit, so neither tree gains a file.  A
run with a failed operation, or one whose result is not ``correct``, stops
the comparison.  So do trees whose benchmarks differ: their
``BENCHMARK.json``, a ``bench/*.py`` file or a file under
``bench/expected/``, of which the first that differs is named.
``--pairs`` must be at least 1 and ``--seconds`` positive.

It prints each run's result line as one JSON line, tagged with its
workload, as the pair ends.  When a workload's pairs end, it prints the
workload's name and under it, for each end-to-end metric of CHANGE's
``BENCHMARK.json``, the two medians, their ratio (change over parent), the
number of pairs in which the change is better (ties count for neither
side), the spread of the parent's runs (the distance between their
quartiles), whether the medians differ by more than that spread, and
whether the change's median is worse than the parent's by more than the
metric's bound.  A gain may be claimed only where the change is better in
nine pairs of ten or more and the medians differ by more than the spread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of ``tree``'s benchmark: its JSON result line."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: bench/run.py exited with {proc.returncode}\n{proc.stdout}")
    return json.loads(lines[-1])


def benchmark_difference(parent: Path, change: Path) -> str | None:
    """The first benchmark file, as a path relative to the tree, that differs
    between the two trees or is in one only, or None: ``BENCHMARK.json``,
    then ``bench/*.py`` and the files under ``bench/expected/``, each in
    sorted order."""
    names = ["BENCHMARK.json"]
    for pattern in ("bench/*.py", "bench/expected/**/*"):
        names += sorted({p.relative_to(tree).as_posix()
                         for tree in (parent, change) for p in tree.glob(pattern) if p.is_file()})
    for name in names:
        a, b = parent / name, change / name
        if a.is_file() != b.is_file() or a.is_file() and a.read_bytes() != b.read_bytes():
            return name
    return None


def refusal(result: dict) -> str | None:
    """Why a run cannot be compared, or None."""
    if result["failed"]:
        return f"{result['failed']} of {result['attempted']} operations failed"
    if not result["correct"]:
        return "the result is not correct"
    return None


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric of ``metrics`` (``BENCHMARK.json``'s end-to-end
    entries) over the paired result lines ``parent[i]``, ``change[i]``."""
    lines = []
    for spec in metrics:
        name, higher, bound = spec["name"], spec["better"] == "higher", spec["bound"]
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        wins = sum(y > x if higher else y < x for x, y in zip(a, b))
        pm, cm = statistics.median(a), statistics.median(b)
        q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (pm, pm, pm)
        worse = cm < pm * (1 - bound) if higher else cm > pm * (1 + bound)
        ratio = f"{cm / pm:.4f}" if pm else "n/a"
        lines.append(
            f"{name}: parent {pm:.6g}, change {cm:.6g} {spec['unit']}, ratio {ratio}, "
            f"change better in {wins} of {len(a)}, parent spread {q3 - q1:.6g}, medians differ by "
            + ("more" if abs(cm - pm) > q3 - q1 else "no more") + " than it, "
            + (f"worse than the bound {bound:g} allows" if worse else f"within the bound {bound:g}")
        )
    return lines


def _positive(kind):
    """An argparse type: a finite ``kind`` above 0."""
    def parse(text: str):
        value = kind(text)
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    return parse


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", dest="workloads")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=_positive(float), default=15)
    ap.add_argument("--pairs", type=_positive(int), default=10)
    args = ap.parse_args(argv)
    trees = args.parent.resolve(), args.change.resolve()
    differ = benchmark_difference(*trees)
    if differ:
        ap.error(f"the two trees run different benchmarks: {differ} differs")
    bench = json.loads((trees[1] / "BENCHMARK.json").read_text())
    valid = [w["name"] for w in bench["workloads"]]
    unknown = [w for w in args.workloads or () if w not in valid]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; the workloads are {', '.join(valid)}")
    for workload in args.workloads or valid:
        runs: tuple[list, list] = ([], [])
        for i in range(args.pairs):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                tree, got = trees[side], runs[side]
                result = run_bench(tree, workload, args.seed, args.seconds)
                why = refusal(result)
                if why:
                    print(f"{tree}, {workload}, pair {i + 1}: {why}; stopped", file=sys.stderr)
                    return 1
                got.append(result)
            for name, got in zip(("parent", "change"), runs):
                print(json.dumps({"workload": workload, "pair": i + 1, "tree": name, "result": got[-1]}),
                      flush=True)
        print("\n".join([workload, *summarize(bench["end_to_end"], *runs)]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
