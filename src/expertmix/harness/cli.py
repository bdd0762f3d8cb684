"""Command-line entry point.

Subcommands: ``run`` executes a scenario and writes its trajectory,
``verify`` re-audits a recorded trajectory, ``check`` runs the property
suites for a game, ``sweep`` grids a parameter and emits a CSV.  The exit
code is nonzero iff an audited bound fails (expected-failure demos exempt),
or, for ``check``, iff a suite with a verdict (mixability, the
supermartingale property, relative exp-convexity) fails.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from ..defensive import default_proper_loss, supermartingale_property_check
from ..extensions import SIMPLEX_GAMES, absolute_simplex, check_relative_exp_convexity
from ..losses import builtin_game, check_mixability, check_proper
from .audit import read_trajectory, verify_all, verify_run
from .config import load_config, parse_config
from .runner import run_scenario, write_outputs
from .scenarios import SCENARIOS, builtin_scenario, run_disconnected_flip


def _cmd_run(args) -> int:
    if args.builtin:
        if args.builtin == "disconnected-flip":
            result = run_disconnected_flip(args.horizon or 300)
            print(f"[disconnected-flip] regret {result.summary['regret']:.1f} over "
                  f"{result.summary['horizon']} steps (expected failure)")
            write_outputs(result, args.out, args.format)
            return 0  # the failure is the documented outcome
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.horizon is not None:
            overrides["horizon"] = args.horizon
        config = builtin_scenario(args.builtin, **overrides)
    else:
        if not args.config:
            print("run needs --config PATH or --builtin NAME", file=sys.stderr)
            return 2
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.horizon is not None:
            config.horizon = args.horizon
    result = run_scenario(config)
    paths = write_outputs(result, args.out, args.format)
    reports = verify_run(result, strict=args.strict)
    ok = True
    for rep in reports:
        status = "ok" if rep.ok else "VIOLATED"
        print(f"[{config.name}] expert {rep.theta}: worst margin "
              f"{rep.worst_margin:.3e} at step {rep.worst_step} -> {status}")
        ok &= rep.ok
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")
    return 0 if ok else 2


def _cmd_verify(args) -> int:
    meta, steps = read_trajectory(args.trajectory)
    if not meta:
        print("trajectory has no meta line; cannot recover bound constants",
              file=sys.stderr)
        return 2
    reports = verify_all(meta, steps, strict=args.strict)
    ok = True
    for rep in reports:
        status = "ok" if rep.ok else "VIOLATED"
        print(f"expert {rep.theta}: worst margin {rep.worst_margin:.3e} "
              f"at step {rep.worst_step} -> {status}")
        ok &= rep.ok
    return 0 if ok else 2


def _cmd_check(args) -> int:
    which = args.which.split(",") if args.which else [
        "proper", "mixability", "supermartingale"]
    if set(which) - {"proper", "mixability", "supermartingale", "expconvexity"}:
        print(f"check: unknown suite in --which {args.which!r}", file=sys.stderr)
        return 2
    try:
        game = builtin_game(args.game, args.m)
    except ValueError as exc:
        print(f"check: {exc}", file=sys.stderr)
        return 2
    eta, c = args.eta, args.c
    rc = 0
    if "proper" in which:
        proper = default_proper_loss(game, c, eta)
        rep = check_proper(proper, grid_density=args.grid)
        print(f"proper[{game.name}]: max_violation {rep.max_violation:.3e} "
              f"strict={rep.strictness}")
    if "mixability" in which:
        rep = check_mixability(game, eta, samples=args.samples, seed=args.seed)
        print(f"mixability[{game.name}, eta={eta}]: mixable={rep.mixable} "
              f"worst_gap {rep.worst_gap:.3e}")
        if not rep.mixable:
            rc = 2
    if "supermartingale" in which:
        proper = default_proper_loss(game, c, eta)
        rep = supermartingale_property_check(proper, c, eta, game,
                                             samples=args.samples, seed=args.seed)
        print(f"supermartingale[{game.name}, c={c}, eta={eta}]: holds={rep.holds} "
              f"max_excess {rep.max_excess:.3e}")
        if not rep.holds:
            rc = 2
    if "expconvexity" in which:
        sg = SIMPLEX_GAMES.get(args.game)
        sgame = sg(args.m) if sg else absolute_simplex()
        rep = check_relative_exp_convexity(sgame, c, eta, samples=args.samples,
                                           seed=args.seed)
        print(f"exp-convexity[{sgame.name}, c={c}, eta={eta}]: holds={rep.holds} "
              f"worst {rep.worst_violation:.3e}")
        if not rep.holds:
            rc = 2
    return rc


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    values = [float(v) for v in args.values.split(",")]
    rows = []
    for v in values:
        doc = config.to_jsonable()
        if args.param == "eta":
            doc["eta"] = v
        elif args.param == "seed":
            doc["seed"] = int(v)
        elif args.param == "horizon":
            doc["horizon"] = int(v)
        else:
            print(f"unknown sweep parameter {args.param!r}", file=sys.stderr)
            return 2
        doc["name"] = f"{config.name}-{args.param}{v:g}"
        result = run_scenario(parse_config(doc))
        s = result.summary
        fl = s["final_learner_loss"]
        fe = s["final_expert_losses"]
        best = min(fe) if isinstance(fl, (int, float)) else None
        rows.append([v, fl if not isinstance(fl, list) else max(fl), best,
                     s["max_bound_margin"], s["bound_ok"]])
        print(f"{args.param}={v:g}: max margin {s['max_bound_margin']} "
              f"ok={s['bound_ok']}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.param, "learner_loss", "best_expert_loss",
                         "max_bound_margin", "bound_ok"])
        writer.writerows(rows)
    print(f"wrote sweep: {out}")
    return 0 if all(r[-1] for r in rows) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expertmix",
        description="prediction with expert advice: scenario runner and audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("--config", type=str, default=None, help="JSON scenario file")
    p_run.add_argument("--builtin", type=str, default=None,
                       choices=sorted(SCENARIOS) + ["disconnected-flip"],
                       help="run a shipped scenario by name")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--horizon", type=int, default=None, help="override the horizon")
    p_run.add_argument("--out", type=str, default="out", help="output directory")
    p_run.add_argument("--format", choices=["jsonl", "csv", "both"], default="both")
    p_run.add_argument("--strict", action="store_true",
                       help="audit with zero slack allowance")
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify", help="re-audit a recorded trajectory")
    p_ver.add_argument("--trajectory", type=str, required=True)
    p_ver.add_argument("--strict", action="store_true")
    p_ver.set_defaults(fn=_cmd_verify)

    p_chk = sub.add_parser("check", help="run property suites for a game")
    p_chk.add_argument("--game", type=str, required=True)
    p_chk.add_argument("--m", type=int, default=2)
    p_chk.add_argument("--eta", type=float, default=1.0)
    p_chk.add_argument("--c", type=float, default=1.0)
    p_chk.add_argument("--samples", type=int, default=1000)
    p_chk.add_argument("--grid", type=int, default=50)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--which", type=str, default=None,
                       help="comma list: proper,mixability,supermartingale,expconvexity")
    p_chk.set_defaults(fn=_cmd_check)

    p_swp = sub.add_parser("sweep", help="grid a parameter, emit CSV")
    p_swp.add_argument("--config", type=str, required=True)
    p_swp.add_argument("--param", type=str, required=True)
    p_swp.add_argument("--values", type=str, required=True)
    p_swp.add_argument("--out", type=str, default="out/sweep.csv")
    p_swp.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
