"""Cross-check the spans of one traced run against one ``cProfile`` pass.

    python3 perfbench/profile_check.py --workload forecast-binary --seed 123

Runs ``run_scenario`` at the workload's horizon once under ``cProfile``
with tracing off, and once traced.  For the span names with the largest
inclusive time it prints the span count and inclusive seconds beside
``cProfile``'s call count and cumulative seconds for the same code.  The
counts must match exactly: a mismatch means a wrapper missed calls made
through some other reference.  The one allowed exception is a ``Game``
closure that another closure of the same game calls directly (the log
game's substitution calls its ``feasible_interval``): the span count is
then lower, and that time is inside the calling ``losses.game`` span.
``cProfile`` charges every Python call,
so its times run higher than the spans'; the ranking is what should agree.
Exits nonzero on a count mismatch.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

import run  # pins BLAS threads before numpy loads
from workloads import DEFAULT_SEED, WORKLOADS

TOP = 15


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from expertmix.harness import runner
    from expertmix.harness.scenarios import builtin_scenario
    from spans import SpanTable, Tracer

    w = WORKLOADS[args.workload]
    cfg = builtin_scenario(w.scenario, seed=args.seed, horizon=w.horizon)
    runner.run_scenario(builtin_scenario(w.scenario, seed=args.seed, horizon=2))

    profiler = cProfile.Profile()
    profiler.runcall(runner.run_scenario, cfg)
    stats = pstats.Stats(profiler).stats  # key -> (cc, nc, tt, ct, callers)

    tracer = Tracer()
    tracer.install()
    try:
        runner.run_scenario(cfg)  # looked up after install, so it is traced
    finally:
        tracer.uninstall()
    table = SpanTable(tracer, 0, len(tracer))

    rows = []
    for name in tracer.names:
        outer = table.outermost(name)
        keys = tracer.code_keys.get(name, set())
        prof = [stats[k] for k in keys if k in stats]
        rows.append((table.total_s(outer), name, int(table.mask(name).sum()),
                     sum(p[1] for p in prof), sum(p[3] for p in prof)))
    rows.sort(reverse=True)
    print(f"{args.workload} seed {args.seed}, {cfg.horizon} steps")
    print(f"{'span':<42}{'calls':>9}{'cProfile':>10}{'span s':>10}{'cProfile s':>12}")
    mismatched = []
    for total, name, calls, pcalls, ptime in rows[:TOP]:
        flag = "" if calls == pcalls else "  MISMATCH"
        print(f"{name:<42}{calls:>9}{pcalls:>10}{total:>10.4f}{ptime:>12.4f}{flag}")
    for total, name, calls, pcalls, ptime in rows:
        # a game's closures may call each other directly, past the wrapped
        # Game fields; those calls are timed inside the caller's span
        direct_ok = name.startswith("losses.game.") and calls <= pcalls
        if calls != pcalls and not direct_ok:
            mismatched.append(name)
    span_rank = [r[1] for r in rows[:5]]
    prof_rank = [r[1] for r in sorted(rows, key=lambda r: -r[4])[:5]]
    print(f"top 5 by span time:     {span_rank}")
    print(f"top 5 by cProfile time: {prof_rank}")
    print(f"call counts differ for: {mismatched or 'none'}")
    print("(span counts below cProfile's for: "
          f"{[r[1] for r in rows if r[2] != r[3] and r[1] not in mismatched] or 'none'})")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
