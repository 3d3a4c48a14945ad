#!/usr/bin/env python3
"""Compare the end-to-end benchmark metrics of two checkouts, run by run.

    python3 scripts/ab_bench.py PARENT CHANGE --workload verify-catalog \\
        --seed 1 --seconds 15 --pairs 10

Each pair runs ``bench/run.py --workload W --seed S --seconds N --trace 0``
once in each tree, PARENT first in odd pairs and CHANGE first in even ones,
so drift in the machine's speed reaches both sides alike.  The runs get
``PYTHONDONTWRITEBYTECODE=1``, which their workload processes inherit, so
neither tree gains a file.  A run with a failed operation, or one whose
result is not ``correct``, stops the comparison.

It prints each run's result line as one JSON line, as the pair ends.  Then,
for each end-to-end metric of CHANGE's ``BENCHMARK.json``, it prints the
two medians, their ratio (change over parent), the number of pairs in
which the change is better, and whether the change's median is worse than
the parent's by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
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
        worse = cm < pm * (1 - bound) if higher else cm > pm * (1 + bound)
        ratio = f"{cm / pm:.4f}" if pm else "n/a"
        lines.append(
            f"{name}: parent {pm:.6g}, change {cm:.6g} {spec['unit']}, ratio {ratio}, "
            f"change better in {wins} of {len(a)}, "
            + (f"worse than the bound {bound:g} allows" if worse else f"within the bound {bound:g}")
        )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    trees = args.parent.resolve(), args.change.resolve()
    metrics = json.loads((trees[1] / "BENCHMARK.json").read_text())["end_to_end"]
    runs: tuple[list, list] = ([], [])
    for i in range(args.pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            tree, got = trees[side], runs[side]
            result = run_bench(tree, args.workload, args.seed, args.seconds)
            why = refusal(result)
            if why:
                print(f"{tree}, pair {i + 1}: {why}; stopped", file=sys.stderr)
                return 1
            got.append(result)
        for name, got in zip(("parent", "change"), runs):
            print(json.dumps({"pair": i + 1, "tree": name, "result": got[-1]}), flush=True)
    print("\n".join(summarize(metrics, *runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
