"""scripts/ab_bench.py: its summary of paired benchmark runs, on canned
result lines; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

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
        " within the bound 0.15",
        "peak_rss_mb: parent 25, change 28 MB, ratio 1.1200, change better in 0 of 3,"
        " worse than the bound 0.1 allows",
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
