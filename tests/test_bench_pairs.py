"""The verdicts of ``tools/bench_pairs.py`` on made-up pairs of runs."""

import importlib.util
import os

import pytest

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "bench_pairs.py",
)

METRICS = [{"name": "answer_p50_s", "unit": "s", "better": "lower",
            "bound": 0.25}]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(value, failed=0):
    return {"returncode": 0, "result": {
        "failed": failed, "attempted": 100,
        "metrics": {"answer_p50_s": {"value": value}}}}


def _pairs(n, parent=1.0, change=0.5):
    # the parent spreads over [parent, parent + 0.009], the change well below
    return [{"first": "parent", "parent": _run(parent + 0.001 * i),
             "change": _run(change + 0.001 * i)} for i in range(n)]


def test_a_clear_win_over_complete_pairs_is_a_gain(bench_pairs):
    summary = bench_pairs.compare(_pairs(10), METRICS)
    assert summary["complete_pairs"] == 10
    assert summary["answer_p50_s"]["change_wins"] == 10
    assert summary["answer_p50_s"]["gain"]
    assert summary["answer_p50_s"]["within_bound"]


def test_a_crashed_run_is_no_gain(bench_pairs):
    runs = _pairs(10)
    runs[3]["change"] = {"returncode": 1, "wall_s": 0.1, "stderr": "boom"}
    summary = bench_pairs.compare(runs, METRICS)
    assert summary["pairs"] == 10 and summary["complete_pairs"] == 9
    # 9 wins of 9 complete pairs would pass a rule counted over them
    assert summary["answer_p50_s"]["change_wins"] == 9
    assert not summary["answer_p50_s"]["gain"]


def test_more_failed_answers_is_no_gain(bench_pairs):
    runs = _pairs(10)
    runs[0]["change"]["result"]["failed"] = 1
    summary = bench_pairs.compare(runs, METRICS)
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["answer_p50_s"]["change_wins"] == 10
    assert not summary["answer_p50_s"]["gain"]
