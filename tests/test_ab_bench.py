"""scripts/ab_bench.py: its summary of paired benchmark runs, on canned
result lines, and its refusals, on small trees; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location("ab_bench", _ROOT / "scripts" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _line(ops, rss, failed=0, correct=True):
    """A result line as ``bench/run.py --trace 0`` prints it last."""
    return json.dumps({"correct": correct, "attempted": 100, "failed": failed, "metrics": {
        "ops_per_s": {"value": ops, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"},
    }})


def test_the_summary_gives_medians_ratio_wins_and_the_bound():
    parent = [json.loads(_line(ops, 25.0)) for ops in (40.0, 41.0, 39.0)]
    change = [json.loads(_line(ops, rss)) for ops, rss in ((43.0, 28.0), (40.0, 28.5), (44.0, 27.0))]
    assert _script().summarize(_METRICS, parent, change) == [
        "ops_per_s: parent 40, change 43 1/s, ratio 1.0750, change better in 2 of 3,"
        " parent spread 2, medians differ by more than it, within the bound 0.15",
        "peak_rss_mb: parent 25, change 28 MB, ratio 1.1200, change better in 0 of 3,"
        " parent spread 0, medians differ by more than it, worse than the bound 0.1 allows",
    ]


def test_ties_count_for_neither_side_and_a_median_inside_the_spread_is_no_gain():
    parent = [json.loads(_line(ops, 25.0)) for ops in (36.0, 40.0, 44.0, 40.0)]
    change = [json.loads(_line(ops, 25.0)) for ops in (37.0, 41.0, 45.0, 40.0)]
    assert _script().summarize(_METRICS, parent, change) == [
        "ops_per_s: parent 40, change 40.5 1/s, ratio 1.0125, change better in 3 of 4,"
        " parent spread 6, medians differ by no more than it, within the bound 0.15",
        "peak_rss_mb: parent 25, change 25 MB, ratio 1.0000, change better in 0 of 4,"
        " parent spread 0, medians differ by no more than it, within the bound 0.1",
    ]


def test_a_metric_at_its_bound_is_within_it_and_one_past_it_is_not():
    parent, change = [json.loads(_line(40.0, 20.0))], [json.loads(_line(34.0, 23.0))]
    lines = _script().summarize(_METRICS, parent, change)
    assert [line.endswith("within the bound 0.15") for line in lines] == [True, False]


def test_a_run_with_a_failed_operation_or_a_wrong_result_is_refused():
    refusal = _script().refusal
    assert refusal(json.loads(_line(40.0, 25.0))) is None
    assert refusal(json.loads(_line(40.0, 25.0, failed=2))) == "2 of 100 operations failed"
    assert refusal(json.loads(_line(40.0, 25.0, correct=False))) == "the result is not correct"


def _tree(root, files):
    """A tree holding ``files``, a map of relative paths to text."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


_BENCH = {"BENCHMARK.json": "{}", "bench/run.py": "run", "bench/workloads.py": "w",
          "bench/expected/verify_catalog.json": "[]", "bench/README.md": "a", "bench/tests/test_bench.py": "t"}


@pytest.mark.parametrize("edit, first", [
    ({}, None),
    ({"bench/README.md": "b", "bench/tests/test_bench.py": "u", "src/x.py": "x"}, None),
    ({"BENCHMARK.json": "[]", "bench/run.py": "run2"}, "BENCHMARK.json"),
    ({"bench/workloads.py": "w2", "bench/run.py": "run2"}, "bench/run.py"),
    ({"bench/oracle.py": "o"}, "bench/oracle.py"),
    ({"bench/expected/verify_catalog.json": "[1]"}, "bench/expected/verify_catalog.json"),
    ({"bench/expected/more/x.json": "{}"}, "bench/expected/more/x.json"),
])
def test_trees_whose_benchmarks_differ_name_the_first_differing_path(tmp_path, edit, first):
    parent = _tree(tmp_path / "parent", _BENCH)
    change = _tree(tmp_path / "change", {**_BENCH, **edit})
    script = _script()
    assert script.benchmark_difference(parent, change) == first
    assert script.benchmark_difference(change, parent) == first


def test_main_refuses_unlike_benchmarks_before_any_run(tmp_path, capsys):
    parent = _tree(tmp_path / "parent", _BENCH)
    change = _tree(tmp_path / "change", {**_BENCH, "bench/run.py": "run2"})
    with pytest.raises(SystemExit) as exit_:
        _script().main([str(parent), str(change), "--workload", "assoc-sweep"])
    assert exit_.value.code == 2
    assert "the two trees run different benchmarks: bench/run.py differs" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--pairs", "0", "argument --pairs: must be positive, got 0"),
    ("--pairs", "-3", "argument --pairs: must be positive, got -3"),
    ("--seconds", "0", "argument --seconds: must be positive, got 0"),
    ("--seconds", "-1.5", "argument --seconds: must be positive, got -1.5"),
    ("--seconds", "nan", "argument --seconds: must be positive, got nan"),
    ("--seconds", "inf", "argument --seconds: must be positive, got inf"),
])
def test_main_refuses_a_count_or_a_length_that_is_not_positive(tmp_path, capsys, option, value, message):
    tree = str(_tree(tmp_path, _BENCH))
    with pytest.raises(SystemExit) as exit_:
        _script().main([tree, tree, "--workload", "assoc-sweep", option, value])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err


def _bench_tree(root):
    """A tree whose ``BENCHMARK.json`` names three workloads and the two metrics above."""
    names = ("verify-catalog", "star-ladder", "assoc-sweep")
    bench = {"workloads": [{"name": n, "why": "w"} for n in names], "end_to_end": _METRICS}
    return _tree(root, {**_BENCH, "BENCHMARK.json": json.dumps(bench)})


def _patched(monkeypatch):
    """The script with ``run_bench`` replaced: each call is recorded and
    answers a canned result line, so no benchmark runs."""
    script, calls = _script(), []

    def run_bench(tree, workload, seed, seconds):
        calls.append((tree.name, workload))
        return json.loads(_line(40.0, 25.0))

    monkeypatch.setattr(script, "run_bench", run_bench)
    return script, calls


def _headings(out):
    """The lines of a printed summary that are neither a result line nor a metric line."""
    return [line for line in out.splitlines() if not line.startswith("{") and ":" not in line]


def test_without_a_workload_every_workload_runs_each_summary_under_its_name(tmp_path, monkeypatch, capsys):
    tree = str(_bench_tree(tmp_path / "t"))
    script, calls = _patched(monkeypatch)
    assert script.main([tree, tree, "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert [w for _, w in calls] == ["verify-catalog"] * 4 + ["star-ladder"] * 4 + ["assoc-sweep"] * 4
    assert _headings(out) == ["verify-catalog", "star-ladder", "assoc-sweep"]
    lines = out.splitlines()
    for name in _headings(out):
        at = lines.index(name)
        assert [line.split(":")[0] for line in lines[at + 1:at + 3]] == ["ops_per_s", "peak_rss_mb"]
    tagged = [json.loads(line) for line in lines if line.startswith("{")]
    assert [(r["workload"], r["pair"], r["tree"]) for r in tagged[:4]] == [
        ("verify-catalog", 1, "parent"), ("verify-catalog", 1, "change"),
        ("verify-catalog", 2, "parent"), ("verify-catalog", 2, "change"),
    ]


def test_workloads_given_twice_run_in_the_order_given(tmp_path, monkeypatch, capsys):
    root = tmp_path / "t"
    parent, change = str(_bench_tree(root / "parent")), str(_bench_tree(root / "change"))
    script, calls = _patched(monkeypatch)
    argv = [parent, change, "--workload", "assoc-sweep", "--workload", "verify-catalog", "--pairs", "2"]
    assert script.main(argv) == 0
    assert calls == [
        ("parent", "assoc-sweep"), ("change", "assoc-sweep"), ("change", "assoc-sweep"), ("parent", "assoc-sweep"),
        ("parent", "verify-catalog"), ("change", "verify-catalog"),
        ("change", "verify-catalog"), ("parent", "verify-catalog"),
    ]
    assert _headings(capsys.readouterr().out) == ["assoc-sweep", "verify-catalog"]


def test_an_unknown_workload_is_refused_with_the_valid_names_before_any_run(tmp_path, monkeypatch, capsys):
    tree = str(_bench_tree(tmp_path / "t"))
    script, calls = _patched(monkeypatch)
    with pytest.raises(SystemExit) as exit_:
        script.main([tree, tree, "--workload", "assoc-sweep", "--workload", "assoc-swep"])
    assert exit_.value.code == 2
    assert calls == []
    assert ("unknown workload 'assoc-swep'; the workloads are verify-catalog, star-ladder, assoc-sweep"
            in capsys.readouterr().err)
