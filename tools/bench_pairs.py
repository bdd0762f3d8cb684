"""Alternated pairs of benchmark runs: a base commit against the working tree.

Usage::

    python3 tools/bench_pairs.py --label dfa_blocks --base <commit> \
        --workload forecast-binary --seeds 123 9001 --pairs 10
    python3 tools/bench_pairs.py --label dfa_blocks --base <commit> --tier1

Each pair runs ``perfbench/run.py --workload W --seed S --trace 0`` once on
each side, and both sides run from fresh exports in a temporary directory,
which is removed afterwards: the base commit's committed files (``git
archive``), and the working tree's files that committing them all would
take (tracked files as they are on disk, and untracked ones that are not
ignored).  So neither side runs where caches and build leftovers of
earlier runs lie.  The side that runs first alternates from pair to pair,
so a slow phase of a shared host falls on both sides alike.

The results go to ``BENCH_<label>.json`` at the repo root: both SHAs, the
Python and numpy versions, each run's ``host_slowdown``, correctness and
end-to-end metrics, and for each workload and seed the medians of both
sides, the interquartile range of the base's runs, the number of pairs
in which the working tree did better, and the number of incorrect runs of
each side (``correct`` false or ``failed`` above 0).  Runs already in the
file are kept, so several invocations (one workload each, say) add up to
one file, as long as the base commit, the committed ``src`` tree and the
sha256 of ``git diff --binary HEAD -- src`` (uncommitted edits to ``src``)
are unchanged; otherwise the old runs are dropped.

``--tier1`` also runs the tier-1 suite once on each side, base first
(``python -m pytest -q --continue-on-collection-errors --durations=5``),
and records its wall time, its result line and its five slowest tests
under ``tier1``, next to the side's ``src_lines``, the lines of the
``.py`` files under ``src/`` (what ``cat $(git ls-files 'src/*.py') | wc
-l`` counts in a checkout), and its ``src_code_lines``, those of them that
are not blank, not comments and not docstrings.

The report prints each end-to-end metric's medians and their head/base
ratio, marked ``OVER BOUND`` where the head's median is worse than the
base's by more than the metric's ``bound`` in ``BENCHMARK.json``.  Each
incorrect run in the file is printed at the end, and the exit code is 1 if
there is any, since its timings measure a wrong program; a metric over
its bound does not change the exit code.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: end-to-end metric -> True when higher is better
HIGHER = {m["name"]: m["better"] == "higher" for m in SPEC["end_to_end"]}
#: end-to-end metric -> the largest relative worsening of its median the
#: benchmark allows
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def git(*args: str, root: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha: str, into: Path, root: Path = ROOT) -> None:
    """The committed files of ``sha`` under ``into``."""
    proc = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=root,
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if proc.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")


def export_worktree(into: Path, root: Path = ROOT) -> None:
    """The working tree's files under ``into``, as committing them all would
    take them: tracked files as they are on disk (those deleted from it
    left out) and untracked ones that are not ignored."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", root=root)
    for name in dict.fromkeys(filter(None, names.split("\0"))):
        source = root / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def export_sides(base_sha: str, into: Path, root: Path = ROOT) -> dict[str, Path]:
    """Both sides' trees under ``into``: ``base``, the committed files of
    ``base_sha``, and ``head``, the working tree's (:func:`export_worktree`)."""
    trees = {"base": into / "base", "head": into / "head"}
    export(base_sha, trees["base"], root)
    export_worktree(trees["head"], root)
    return trees


def bench(tree: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """One benchmark run in ``tree``: its record line and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} printed no result:\n{proc.stderr}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"host_slowdown": record.get("host_slowdown"),
            "equivalence_max_gap": record.get("equivalence_max_gap"),
            "correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5"]


def src_lines(tree: Path) -> int:
    """The newlines of the ``.py`` files under ``tree/src``."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def code_lines(source: str) -> int:
    """The lines of Python ``source`` that are not blank, not comments and
    not docstrings (a module's, class's or function's first statement, if
    it is a string)."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


def src_code_lines(tree: Path) -> int:
    """The :func:`code_lines` of the ``.py`` files under ``tree/src``."""
    return sum(code_lines(path.read_text()) for path in (tree / "src").rglob("*.py"))


def tier1(tree: Path) -> dict:
    """One run of the tier-1 suite in ``tree``: its wall time, its result
    line and its five slowest tests (pytest's ``--durations`` lines), and
    the tree's :func:`src_lines` and :func:`src_code_lines`."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, capture_output=True, text=True,
                          timeout=3600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    slowest = []
    for line in lines[next((i for i, x in enumerate(lines) if "slowest" in x), len(lines)) + 1:]:
        seconds, _, rest = line.partition("s ")
        try:
            slowest.append({"seconds": float(seconds), "test": rest.split()[-1]})
        except (ValueError, IndexError):
            break
    return {"wall_s": wall, "src_lines": src_lines(tree),
            "src_code_lines": src_code_lines(tree), "exit_code": proc.returncode,
            "result": lines[-1] if lines else proc.stderr.strip()[-200:],
            "slowest": slowest}


def quartiles(xs: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]


def incorrect(run: dict) -> bool:
    """Whether a run's result line says it computed something wrong."""
    return not run["correct"] or run["failed"] > 0


def summarize(runs: list[dict]) -> dict:
    """Per workload and seed: the number of incorrect runs of each side
    (``base_incorrect``, ``head_incorrect``), and per metric the medians,
    the base's IQR and the working tree's wins over the pairs."""
    out: dict = {}
    keys = sorted({(r["workload"], r["seed"]) for r in runs})
    for workload, seed in keys:
        mine = [r for r in runs if (r["workload"], r["seed"]) == (workload, seed)]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["pair"], r["side"]): r["metrics"] for r in mine}
        entry = {f"{side}_incorrect": sum(incorrect(r) for r in mine if r["side"] == side)
                 for side in ("base", "head")}
        for metric, higher in HIGHER.items():
            both = [(by[p, "base"][metric], by[p, "head"][metric]) for p in pairs
                    if metric in by.get((p, "base"), {}) and metric in by.get((p, "head"), {})]
            if not both:
                continue
            base, head = [b for b, _ in both], [h for _, h in both]
            lo, hi = quartiles(base)
            wins = sum((h > b) if higher else (h < b) for b, h in both)
            entry[metric] = {
                "base_median": statistics.median(base), "head_median": statistics.median(head),
                "ratio": statistics.median(head) / statistics.median(base)
                if statistics.median(base) else None,
                "base_iqr": hi - lo, "head_wins": wins, "pairs": len(both),
                "better": "higher" if higher else "lower"}
        out[f"{workload}@{seed}"] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", type=int, nargs="+", default=[123])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: the benchmark's)")
    parser.add_argument("--tier1", action="store_true",
                        help="also time one tier-1 test run on each side")
    args = parser.parse_args(argv)
    if not (args.workload or args.tier1):
        parser.error("give --workload, --tier1 or both")

    import numpy

    path = ROOT / f"BENCH_{args.label}.json"
    base_sha, head_sha = git("rev-parse", args.base), git("rev-parse", "HEAD")
    src_tree = git("rev-parse", "HEAD:src")
    src_diff = hashlib.sha256(git("diff", "--binary", "HEAD", "--", "src").encode()).hexdigest()
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    if doc["runs"] and (doc["base"]["sha"], doc["head"]["src_tree"],
                        doc["head"].get("src_diff_sha256")) != (base_sha, src_tree, src_diff):
        doc["runs"] = []  # runs of other code are not comparable
        doc.pop("tier1", None)
    doc.update({
        "label": args.label,
        "base": {"ref": args.base, "sha": base_sha,
                 "src_tree": git("rev-parse", f"{base_sha}:src")},
        "head": {"sha": head_sha, "src_tree": src_tree,
                 "src_dirty": bool(git("status", "--porcelain", "--", "src")),
                 "src_diff_sha256": src_diff},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "protocol": "alternated pairs of perfbench/run.py --trace 0, both sides run from "
                    "exports (the base commit with git archive, the working tree's files "
                    "git sees); host-adjusted end-to-end metrics",
    })
    tmp = Path(tempfile.mkdtemp(prefix="bench-sides-"))
    try:
        trees = export_sides(base_sha, tmp)
        if args.tier1:
            doc["tier1"] = {"command": " ".join(["python", *TIER1])}
            for side in ("base", "head"):
                doc["tier1"][side] = tier1(trees[side])
                print(side, json.dumps(doc["tier1"][side]), flush=True)
                path.write_text(json.dumps(doc, indent=1) + "\n")
        for workload in args.workload:
            for seed in args.seeds:
                for pair in range(args.pairs):
                    order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                    for position, side in enumerate(order):
                        run = bench(trees[side], workload, seed, args.seconds)
                        doc["runs"] = [r for r in doc["runs"] if (
                            r["workload"], r["seed"], r["pair"], r["side"]) != (
                            workload, seed, pair, side)]
                        doc["runs"].append({"workload": workload, "seed": seed, "pair": pair,
                                            "side": side, "first": position == 0, **run})
                        print(json.dumps(doc["runs"][-1]), flush=True)
                    doc["summary"] = summarize(doc["runs"])
                    path.write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return report(doc)


def over_bound(metric: str, s: dict) -> bool:
    """Whether the head's median of ``metric`` is worse than the base's by
    more than the metric's bound in ``BENCHMARK.json``."""
    if s["ratio"] is None:
        return False
    return s["ratio"] < 1.0 - BOUND[metric] if HIGHER[metric] else s["ratio"] > 1.0 + BOUND[metric]


def report(doc: dict) -> int:
    """Print the summary's medians, the head/base ratio of each, marked
    ``OVER BOUND`` where the head is worse than the metric's bound allows,
    and each incorrect run; the exit code, 1 if any run is incorrect."""
    for key, entry in doc.get("summary", {}).items():
        for metric, s in entry.items():
            if metric in HIGHER:
                ratio = "n/a" if s["ratio"] is None else f"{s['ratio']:.3f}"
                print(f"{key:28s} {metric:24s} base {s['base_median']:.6g} head "
                      f"{s['head_median']:.6g} ratio {ratio} wins {s['head_wins']}/"
                      f"{s['pairs']}" + ("  OVER BOUND" if over_bound(metric, s) else ""))
    bad = [r for r in doc["runs"] if incorrect(r)]
    for r in bad:
        print(f"INCORRECT {r['side']} run {r['workload']}@{r['seed']} pair {r['pair']}: "
              f"correct={r['correct']} failed={r['failed']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
