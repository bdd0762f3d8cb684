"""The expertmix benchmark.

Run one workload for a measured span of wall time and print its metrics::

    python3 perfbench/run.py --workload mix-binary --seed 123 --seconds 10 --trace 0

``--workload all`` runs every workload in its own process and prints one
table.  The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics named in ``BENCHMARK.json``, with ``--trace 1`` the
per-layer metrics from a traced run (spans from ``spans.py``).  The line
before it holds provenance, the trajectory hashes and the raw samples; the
same record, and the spans of a traced run, go to ``.bench_out/``.

Every repeat runs the user's path: ``run_scenario``, ``write_outputs`` to
JSONL, then ``read_trajectory`` + ``verify_all`` on that file.  Gates, each
counted in ``attempted``/``failed``: the run's bound audit (``bound_ok``
and every margin at most 1e-7), the re-audit of the written file, an
identical JSONL sha256 on every repeat (traced and untraced alike), the
AA/DFA agreement of ``mix-binary`` and ``forecast-binary`` at the same
seed, and in a traced run the span accounting.  The exit code is nonzero
when any gate or operation fails.

The benchmark is single-process and single-threaded: BLAS threads are
pinned to 1 before numpy loads.

Host-speed adjustment.  On a shared machine the same code runs up to
twice as slow for minutes at a time while neighbours load the physical
cores, and every timing of a run moves together.  So the benchmark pins
itself (and its import children) to one CPU and brackets every timed
operation with ``REFERENCE_S`` of ``reference_work``: fixed Python, numpy
and JSON work from this file that no program change can touch.  Its mean
per-call time over the run, divided by ``REFERENCE_CALL_S``, is the host's
slowdown during the run.  The end-to-end times are divided by it and the
rates multiplied by it, so they read as on a host at nominal speed: a
change to the program moves them as it moves wall time, a busy neighbour
moves them far less.  The plain wall-clock figures and the slowdown are
kept beside them in the record line (``wall_metrics``, ``host_slowdown``).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import (DEFAULT_SEED, EQUIVALENCE_STEPS,  # noqa: E402
                       EQUIVALENCE_TOL, MARGIN_TOL, WORKLOADS, Workload)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

#: the measured seconds go to rounds that each run the workload once and
#: time set-up and one fresh import; spread over the whole run, slow phases
#: of a shared machine hit every metric alike
#: encode and verify repeat inside one sample until it lasts this long, so
#: they get a steady share of the window however short the trajectory is
MIN_OP_S = 0.15
#: set-up repeats inside one sample until it lasts this long, so a set-up of
#: a fraction of a millisecond is not timed at clock resolution
MIN_SETUP_S = 0.05
#: a traced run's span self times must add up to its wall within this share
COVERAGE_TOL = 0.05
#: a child workload process in ``--workload all`` must finish within this
CHILD_TIMEOUT_S = 600
#: seconds of reference work run just before and just after each timed
#: operation; about a tenth of the run goes to reading the host's speed
REFERENCE_S = 0.03
#: seconds one ``reference_work`` call takes on an unloaded core of a
#: 2-vCPU Xeon: the nominal speed timings are scaled to (it fixes the units
#: only; two commits are compared on one host)
REFERENCE_CALL_S = 3.3e-4

perf = time.perf_counter


class Ledger:
    """Counts operations and gate checks; a failure is recorded and
    counted, and the run goes on."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failing operation is a result, not a crash
            self._fail(f"{label}: {traceback.format_exc()}")
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self._fail(f"{label} failed {detail}".rstrip())
        return ok

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"benchmark: {message}", file=sys.stderr)


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "expertmix").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# Measurements


def import_once() -> float:
    """Seconds a fresh interpreter spends in ``import expertmix.harness``."""
    code = ("import time; t = time.perf_counter(); import expertmix.harness; "
            "dt = time.perf_counter() - t; import expertmix; "
            "print(repr(dt), expertmix.__file__)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip())
    dt, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported expertmix from {path}, not {SRC}")
    return float(dt)


def timed(fn, min_s: float) -> tuple[float, object]:
    """Per-call seconds of ``fn``, called until ``min_s`` has passed.
    A full collection first makes every sample start from the same
    garbage-collector state."""
    gc.collect()
    calls, t0 = 0, perf()
    while True:
        out = fn()
        calls += 1
        elapsed = perf() - t0
        if elapsed >= min_s:
            return elapsed / calls, out


_REF_X = [0.1 * (i + 1) for i in range(10)]


def reference_work() -> float:
    """Fixed work in the program's own mix (small numpy vectors, float
    math, records and JSON), never changed by a program change; its speed
    is the host's speed."""
    import numpy as np

    x = np.array(_REF_X)
    acc, rows = 0.0, []
    for i in range(16):
        w = np.exp(x - x.max())
        w /= w.sum()
        p = float(w @ x)
        acc += math.log1p(p) + sum(v * v for v in w.tolist())
        rows.append(json.dumps({"step": i, "p": p, "w": w.tolist()}))
    return acc + sum(json.loads(r)["p"] for r in rows)


class HostClock:
    """Readings of the host's speed: ``reference_work`` run for
    ``REFERENCE_S`` just before and just after every timed operation."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def read(self) -> None:
        gc.collect()
        calls, t0 = 0, perf()
        while perf() - t0 < REFERENCE_S:
            reference_work()
            calls += 1
        self.seconds += perf() - t0
        self.calls += calls

    def slowdown(self) -> float:
        """Mean per-call time of the reference work over the whole run,
        relative to ``REFERENCE_CALL_S``."""
        return self.seconds / self.calls / REFERENCE_CALL_S

    def timed(self, fn, min_s: float = 0.0) -> tuple[float, object]:
        self.read()
        out = timed(fn, min_s)
        self.read()
        return out


HOST = HostClock()


def audit_file(path: Path) -> tuple[int, bool]:
    from expertmix.harness.audit import read_trajectory, verify_all

    meta, steps = read_trajectory(path)
    reports = verify_all(meta, steps)
    return len(steps), bool(reports) and all(r.ok for r in reports)


def pipeline(ledger: Ledger, cfg, out_dir: Path, min_op_s: float = 0.0,
             keep_result: bool = False) -> dict | None:
    """One repeat of the user's path; returns its timings and checks."""
    from expertmix.harness.runner import run_scenario, write_outputs

    run = ledger.op("run_scenario", HOST.timed, lambda: run_scenario(cfg))
    if run is None:
        return None
    run_s, result = run
    summary = result.summary
    ledger.check("bound audit",
                 summary["bound_ok"] and float(summary["max_bound_margin"]) <= MARGIN_TOL,
                 f"(max margin {summary['max_bound_margin']!r})")
    enc = ledger.op("write_outputs", HOST.timed,
                    lambda: write_outputs(result, out_dir, "jsonl"), min_op_s)
    if enc is None:
        return None
    encode_s, paths = enc
    path = paths["jsonl"]
    data = path.read_bytes()
    ver = ledger.op("verify", HOST.timed, lambda: audit_file(path), min_op_s)
    if ver is None:
        return None
    verify_s, (n_steps, ok) = ver
    ledger.check("trajectory re-audit", ok and n_steps == cfg.horizon,
                 f"({n_steps} steps, audit ok={ok})")
    sample = {
        "run_s": run_s, "encode_s": encode_s, "verify_s": verify_s,
        "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
        "summary": summary,
        "slack_max": max((r.slack for r in result.records), default=0.0),
    }
    if keep_result:
        sample["result"] = result
    return sample


def loss_per_step(summary: dict) -> float:
    fl = summary["final_learner_loss"]
    total = statistics.fmean(map(float, fl)) if isinstance(fl, list) else float(fl)
    return total / summary["horizon"]


def regret(summary: dict) -> float:
    """max over theta of the learner's loss minus expert theta's loss, both
    under theta's own loss function."""
    fl, fe = summary["final_learner_loss"], summary["final_expert_losses"]
    fl = fl if isinstance(fl, list) else [fl] * len(fe)
    return max(float(a) - float(b) for a, b in zip(fl, fe))


def equivalence_gate(ledger: Ledger, w: Workload, seed: int, result) -> float | None:
    """The paper's claim: AA and DFA on the same advice and outcomes make
    the same predictions.  Runs the partner protocol at this seed."""
    from expertmix.harness.runner import run_scenario
    from expertmix.harness.scenarios import builtin_scenario

    steps = min(EQUIVALENCE_STEPS, w.horizon)
    partner = WORKLOADS[w.partner]
    other = ledger.op("partner run", run_scenario,
                      builtin_scenario(partner.scenario, seed=seed, horizon=steps))
    if other is None:
        return None
    mine, theirs = result.records[:steps], other.records
    same = len(mine) == len(theirs) == steps and all(
        a.advice == b.advice and a.outcome == b.outcome
        for a, b in zip(mine, theirs))
    ledger.check("AA/DFA identical advice and outcomes", same)
    gap = max(abs(u - v) for a, b in zip(mine, theirs)
              for u, v in zip(a.learner_decision, b.learner_decision))
    ledger.check("AA/DFA decision agreement", gap <= EQUIVALENCE_TOL,
                 f"(max gap {gap!r})")
    return gap


def check_hashes(ledger: Ledger, samples: list[dict]) -> list[str]:
    hashes = [s["sha256"] for s in samples]
    ledger.check("JSONL sha256 identical across repeats", len(set(hashes)) == 1,
                 f"({sorted(set(hashes))})")
    return hashes


# ---------------------------------------------------------------------------
# The two kinds of run


def warm_up(ledger: Ledger, w: Workload, seed: int, out_dir: Path) -> None:
    """Pay lazy imports and first-call costs before anything is timed."""
    from expertmix.harness.scenarios import builtin_scenario

    cfg = builtin_scenario(w.scenario, seed=seed, horizon=min(20, w.horizon))
    pipeline(ledger, cfg, out_dir / "warmup")


def end_to_end(ledger: Ledger, w: Workload, seed: int, seconds: float,
               out_dir: Path, record: dict) -> dict:
    from expertmix.harness.runner import run_scenario
    from expertmix.harness.scenarios import builtin_scenario

    ledger.op("import warm-up", import_once)  # compiles bytecode once
    warm_up(ledger, w, seed, out_dir)
    HOST.reset()
    cfg0 = builtin_scenario(w.scenario, seed=seed, horizon=0)
    cfg = builtin_scenario(w.scenario, seed=seed, horizon=w.horizon)
    n = cfg.horizon

    samples: list[dict] = []
    setups: list[float] = []
    imports: list[float] = []
    deadline = perf() + seconds
    while not samples or perf() < deadline:
        sample = pipeline(ledger, cfg, out_dir, MIN_OP_S,
                          keep_result=not samples and w.partner is not None)
        setup = ledger.op("setup run", HOST.timed, lambda: run_scenario(cfg0), MIN_SETUP_S)
        if sample is None or setup is None:
            break
        setups.append(setup[0])
        imp = ledger.op("import", HOST.timed, import_once)
        if imp is not None:
            imports.append(imp[1])
        if "result" in sample:
            record["equivalence_max_gap"] = equivalence_gate(
                ledger, w, seed, sample.pop("result"))
        samples.append(sample)
    if not samples or not setups or not imports:
        return {}
    record["hashes"] = check_hashes(ledger, samples)
    summary = samples[0]["summary"]
    record["regret"] = regret(summary)
    record["slack_allowance"] = float(summary["slack_allowance"])
    record["samples"] = [{k: v for k, v in s.items() if k != "summary"} for s in samples]
    record["setup_samples_s"] = setups
    record["import_samples_s"] = imports

    setup_s = statistics.median(setups)
    work = [s["run_s"] - setup_s for s in samples]
    ledger.check("runs outlast set-up", min(work) > 0, f"({work})")
    records = n * len(samples)
    # throughputs are work done over time spent, summed over the whole
    # window; set-up and import are latencies, reported as medians
    wall = {
        "steps_per_s": records / sum(work) if min(work) > 0 else None,
        "setup_s": setup_s,
        "import_s": statistics.median(imports),
        "encode_records_per_s": records / sum(s["encode_s"] for s in samples),
        "verify_records_per_s": records / sum(s["verify_s"] for s in samples),
    }
    slow = HOST.slowdown()
    record["wall_metrics"] = wall
    record["host_slowdown"] = slow
    nominal = {k: None if v is None else v * slow if k.endswith("_per_s") else v / slow
               for k, v in wall.items()}
    return nominal | {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loss_per_step": loss_per_step(summary),
    }


def layer_metrics(table, n: int, sample: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced repeat (``n`` steps and records).
    Per-step figures leave out session set-up, which ``setup_s`` and
    ``extensions.contract_check_s`` report."""
    t = table
    us = 1e6 / n
    rounds = t.in_rounds

    def incl(*names):
        return t.total_s(t.outermost(*names) & rounds) * us

    def calls(*names):
        return int((t.mask(*names) & rounds).sum()) / n

    def self_of(mask):
        return t.self_s(mask & rounds) * us

    solves = counters["simplex_solves"]
    q_names = [x for x in t.names if x.endswith(".q")]
    writes = max(int(t.mask("runner.write_outputs").sum()), 1)
    reads = max(int(t.mask("audit.read_trajectory").sum()), 1)
    m = {
        "strategies.advise_us_per_step": incl("strategies.advise"),
        "strategies.pick_us_per_step": incl("strategies.pick"),
        "losses.loss_calls_per_step": calls("losses.game.loss"),
        "losses.proper_calls_per_step": calls("losses.ProperLoss"),
        "core.log_sum_exp_calls_per_step": calls("core.log_sum_exp"),
        "core.hull_gap_calls_per_step": calls("core.hull_membership_gap"),
        "aggregating.mix_us_per_step": incl("aggregating.aa_mix"),
        "aggregating.substitute_us_per_step": t.total_s(
            t.mask("losses.game.substitution", "core.dominated_by")
            & t.parent_is("aggregating.aa_propose") & rounds) * us,
        "aggregating.reweigh_us_per_step": self_of(t.mask("aggregating.aa_step")),
        "aggregating.margins_us_per_step": incl(
            "aggregating.theorem_bound_margins", "aggregating.log_semi_invariant"),
        "aggregating.retraction_calls_per_step": calls("aggregating.retraction_F"),
        "aggregating.retraction_us_per_step": incl("aggregating.retraction_F"),
        "defensive.qbuild_us_per_step": incl("defensive.standard_qfun"),
        "defensive.solve_us_per_step": incl(
            "defensive.choose_forecast", "defensive.dfa_solve_binary",
            "defensive.dfa_solve_simplex", "defensive.binary_admissible_interval"),
        "defensive.q_calls_per_step": calls(*q_names),
        "defensive.q_points_per_step": counters["q_points"] / n,
        "defensive.reweigh_us_per_step": self_of(t.mask("defensive.dfa_step")),
        "defensive.margins_us_per_step": incl("defensive.dfa_bound_margins"),
        "defensive.slack_max": sample["slack_max"],
        "defensive.center_hit_ratio": counters["center_hits"] / solves if solves else 0.0,
        "defensive.slack_exceeded": counters["slack_exceeded"],
        "secondguess.fixed_point_us_per_step": incl("secondguess.sg_fixed_point"),
        "secondguess.transform_evals_per_step": calls("secondguess.transform"),
        "extensions.ml_q_evals_per_step": calls("extensions.q"),
        "extensions.ml_q_us_per_step": incl("extensions.q"),
        "extensions.simplex_step_us_per_step": incl("extensions.simplex_dfa_step"),
        "extensions.contract_check_s": t.total_s(t.outermost(
            "defensive.supermartingale_property_check",
            "extensions.check_relative_exp_convexity") & ~rounds),
        "runner.record_us_per_step": self_of(t.mask("runner.run_scenario")),
        "runner.encode_us_per_record": incl("runner.write_outputs") / writes,
        "runner.bytes_per_record": sample["bytes"] / n,
        "audit.parse_us_per_record": incl("audit.read_trajectory") / reads,
        "audit.verify_us_per_record": incl("audit.verify_all") / reads,
        "summary.regret": regret(sample["summary"]),
        "summary.slack_allowance": float(sample["summary"]["slack_allowance"]),
    }
    for layer in ("core", "losses", "aggregating", "defensive", "secondguess",
                  "extensions", "strategies", "runner", "audit"):
        m[f"{layer}.self_us_per_step"] = self_of(t.layer == layer)
    return m


def traced(ledger: Ledger, w: Workload, seed: int, seconds: float,
           out_dir: Path, record: dict) -> dict:
    import numpy as np
    from expertmix.harness.scenarios import builtin_scenario
    from spans import SpanTable, Tracer

    warm_up(ledger, w, seed, out_dir)
    cfg = builtin_scenario(w.scenario, seed=seed, horizon=w.horizon)
    n = cfg.horizon

    def wall(s):
        return s["run_s"] + s["encode_s"] + s["verify_s"]

    # untraced and traced repeats alternate, so each overhead ratio compares
    # two runs made at nearly the same time on a shared machine
    tracer = Tracer()
    plain: list[dict] = []
    traced_samples: list[dict] = []
    per_repeat: list[dict] = []
    step_us = []
    deadline = perf() + seconds
    while not traced_samples or perf() < deadline:
        base = pipeline(ledger, cfg, out_dir)
        tracer.run = len(traced_samples)
        tracer.counters.update(dict.fromkeys(tracer.counters, 0))
        lo = len(tracer)
        tracer.install()
        try:
            sample = pipeline(ledger, cfg, out_dir)
        finally:
            tracer.uninstall()
        if base is None or sample is None:
            break
        table = SpanTable(tracer, lo, len(tracer))
        metrics = layer_metrics(table, n, sample, tracer.counters)
        covered = float(table.self_ns.sum()) * 1e-9 / wall(sample)
        ledger.check("span self times cover the traced wall",
                     abs(covered - 1.0) <= COVERAGE_TOL, f"({covered!r})")
        metrics["trace.coverage_ratio"] = covered
        metrics["trace.overhead_ratio"] = wall(sample) / wall(base)
        step_us.append(table.step_us())
        per_repeat.append(metrics)
        plain.append(base)
        traced_samples.append(sample)
    tracer.save(out_dir / "spans.npz")
    if not traced_samples:
        return {}
    record["hashes"] = check_hashes(ledger, plain + traced_samples)
    out = {k: statistics.median(r[k] for r in per_repeat) for k in per_repeat[0]}
    steps = np.concatenate(step_us)
    out["step.us_p50"] = float(np.percentile(steps, 50)) if len(steps) else 0.0
    out["step.us_p99"] = float(np.percentile(steps, 99)) if len(steps) else 0.0
    out["step.samples"] = len(steps)
    record["traced_walls_s"] = [wall(s) for s in traced_samples]
    record["untraced_walls_s"] = [wall(s) for s in plain]
    record["spans"] = len(tracer)
    return out


# ---------------------------------------------------------------------------
# Entry points


def run_one(args, spec: dict) -> int:
    w = WORKLOADS[args.workload]
    # one CPU for the benchmark and its import children, so the reference
    # work reads the speed of the same core the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    ledger = Ledger()
    record = {"workload": w.name, "scenario": w.scenario, "horizon": w.horizon,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args.seed)}
    measure = traced if args.trace else end_to_end
    values = measure(ledger, w, args.seed, args.seconds, out_dir, record)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            ledger.check(f"metric {m['name']} measured", False)
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    extra = sorted(set(values) - {m["name"] for m in declared})
    ledger.check("every measured metric is declared", not extra, f"({extra})")
    record["errors"] = ledger.errors
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record["result"] = result
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Each workload in its own process (so peak RSS is its own), then one
    table of every metric by name and unit."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(f"{'workload':<18}{'metric':<40}{'value':>16}  unit")
    for wl, r in results.items():
        for m in names:
            if m in r["metrics"]:
                v = r["metrics"][m]
                print(f"{wl:<18}{m:<40}{v['value']:>16.6g}  {v['unit']}")
        print(f"{wl:<18}{'correct':<40}{str(r['correct']):>16}  "
              f"({r['failed']} of {r['attempted']} failed)")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured wall time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "expertmix" / "__init__.py").is_file():
        print(f"benchmark: no expertmix sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    sys.path.insert(0, str(SRC))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
