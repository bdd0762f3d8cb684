"""``tools/bench_pairs.py`` counts and reports incorrect benchmark runs,
marks the end-to-end metrics over their bounds, and records each side's
``src/`` line and code line counts with its tier-1 run."""

import importlib.util
import subprocess
import sys
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


def test_report_marks_a_metric_over_its_bound(bench_pairs, capsys):
    """The head/base ratio of each end-to-end metric is printed, marked
    where the head is worse than the bound in ``BENCHMARK.json`` allows; the
    exit code still counts incorrect runs only."""
    def side(pair, name, steps, rss):
        return {**run(pair, name), "metrics": {"steps_per_s": steps, "peak_rss_mb": rss}}

    runs = [side(p, "base", 100.0, 100.0) for p in range(3)] + \
        [side(p, "head", 70.0, 105.0) for p in range(3)]
    assert bench_pairs.BOUND["steps_per_s"] < 0.3 and bench_pairs.BOUND["peak_rss_mb"] > 0.05
    doc = {"runs": runs, "summary": bench_pairs.summarize(runs)}
    assert bench_pairs.report(doc) == 0
    lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()}
    assert "ratio 0.700" in lines["steps_per_s"] and lines["steps_per_s"].endswith("OVER BOUND")
    assert "ratio 1.050" in lines["peak_rss_mb"] and "OVER BOUND" not in lines["peak_rss_mb"]


def test_src_lines_counts_the_python_lines_under_src(bench_pairs, tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text("z = 3\n")
    (tmp_path / "src" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_c.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 3


def test_src_lines_of_the_repo_is_the_git_count(bench_pairs):
    """On a checkout, the count of ``cat $(git ls-files 'src/*.py') | wc -l``."""
    root = TOOL.parent.parent

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True).stdout.split()

    files = git("ls-files", "src/*.py")
    if not files or git("ls-files", "--others", "--exclude-standard", "src/*.py"):
        pytest.skip("not a git checkout, or src/ holds untracked .py files")
    assert bench_pairs.src_lines(root) == sum(
        (root / f).read_bytes().count(b"\n") for f in files)


def test_code_lines_skip_blanks_comments_and_docstrings(bench_pairs):
    source = ('"""Module\ndocstring."""\n\nimport os  # a comment\n    # another\n'
              'class A:\n    """Class docstring."""\n\n    def f(self):\n'
              '        """Function\n        docstring."""\n        return """not a\n'
              'docstring"""\n\n\nx = "a plain string"\n"after the first statement"\n')
    assert bench_pairs.code_lines(source) == 7


def test_tier1_records_the_src_lines(bench_pairs, tmp_path, monkeypatch):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text('"""Doc."""\n\nx = 1\n')
    done = subprocess.CompletedProcess([sys.executable], 0, "1 passed in 0.01s\n", "")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: done)
    got = bench_pairs.tier1(tmp_path)
    assert got["src_lines"] == 3 and got["src_code_lines"] == 1
    assert got["result"] == "1 passed in 0.01s"


def test_both_sides_run_from_exports(bench_pairs, tmp_path):
    """The base is its commit's files; the head is the working tree as
    committing it all would take it: edits and new files in, ignored files
    and deleted ones out.  Neither side is the working tree itself."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                       check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "src" / "a.py").write_text("old\n")
    (repo / "src" / "gone.py").write_text("x\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "src" / "a.py").write_text("new\n")
    (repo / "src" / "gone.py").unlink()
    (repo / "src" / "b.py").write_text("added\n")
    (repo / "src" / "__pycache__").mkdir()
    (repo / "src" / "__pycache__" / "a.pyc").write_text("stale\n")
    sha = bench_pairs.git("rev-parse", "HEAD", root=repo)
    trees = bench_pairs.export_sides(sha, tmp_path / "sides", root=repo)
    assert repo not in trees.values()
    base, head = trees["base"], trees["head"]
    assert (base / "src" / "a.py").read_text() == "old\n" and (base / "src" / "gone.py").exists()
    assert (head / "src" / "a.py").read_text() == "new\n" and (head / "src" / "b.py").exists()
    assert not (head / "src" / "gone.py").exists() and not (head / "src" / "__pycache__").exists()
