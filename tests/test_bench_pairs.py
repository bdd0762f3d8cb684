"""``tools/bench_pairs.py`` counts and reports incorrect benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(pair, side, correct=True, failed=0, steps=100.0):
    return {"workload": "forecast-binary", "seed": 123, "pair": pair, "side": side,
            "correct": correct, "failed": failed, "metrics": {"steps_per_s": steps}}


def test_summary_counts_incorrect_runs(bench_pairs):
    runs = [run(0, "base"), run(0, "head", correct=False), run(1, "base", failed=2),
            run(1, "head", failed=1), run(2, "base"), run(2, "head")]
    entry = bench_pairs.summarize(runs)["forecast-binary@123"]
    assert entry["base_incorrect"] == 1 and entry["head_incorrect"] == 2
    assert entry["steps_per_s"]["pairs"] == 3
    assert bench_pairs.summarize(runs[4:])["forecast-binary@123"]["head_incorrect"] == 0


def test_report_fails_on_an_incorrect_run(bench_pairs, capsys):
    runs = [run(0, "base"), run(0, "head"), run(1, "base"), run(1, "head", failed=1)]
    doc = {"runs": runs, "summary": bench_pairs.summarize(runs)}
    assert bench_pairs.report(doc) == 1
    assert "INCORRECT head run forecast-binary@123 pair 1" in capsys.readouterr().out
    doc = {"runs": runs[:2], "summary": bench_pairs.summarize(runs[:2])}
    assert bench_pairs.report(doc) == 0
