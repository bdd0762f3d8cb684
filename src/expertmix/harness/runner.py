"""Scenario execution with the protocol move order (experts, Learner,
Reality, loss updates), JSONL trajectory logging, and CSV summaries.

Every run is a pure function of its config: randomness flows from one
``SeedSequence`` (child 0 -> experts, one grandchild each; child 1 ->
reality), and records are serialized with a fixed key order, so identical
configs produce byte-identical JSONL.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from ..aggregating import aa_proposal, aa_start, log_semi_invariant
from ..core import Game
from ..defensive import default_proper_loss, dfa_proposal, dfa_start
from ..errors import ConfigError
from ..extensions import (
    SIMPLEX_GAMES,
    duplicate_evaluators,
    ml_dfa_proposal,
    ml_dfa_start,
    simplex_dfa_proposal,
    simplex_dfa_start,
    tile_advice,
)
from ..losses import builtin_game
from ..secondguess import sg_aa_proposal, sg_dfa_proposal
from .config import ScenarioConfig
from .strategies import build_reality, build_sg_expert, build_standard_expert

def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (float, np.floating)):
        return ("inf" if x > 0 else "-inf") if math.isinf(x) else float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


@dataclass
class StepRecord:
    step: int
    advice: list
    learner_pi: list | None
    learner_decision: list
    outcome: object
    learner_loss: object
    expert_losses: list
    cumulative_learner_loss: object
    cumulative_expert_losses: list
    log_supermartingale: float
    slack: float
    slack_total: float
    bound_margins: list

    def to_obj(self) -> dict:
        data = {"type": "step"}
        for key in RECORD_KEYS:
            data[key] = _jsonable(getattr(self, key))
        return data


#: the step record's keys in their serialized order
RECORD_KEYS = tuple(f.name for f in fields(StepRecord))


@dataclass
class RunResult:
    config: ScenarioConfig
    records: list[StepRecord]
    summary: dict

    @property
    def bound_ok(self) -> bool:
        return bool(self.summary.get("bound_ok", False))


def _spawn_rngs(seed: int, k: int):
    root = np.random.SeedSequence(seed)
    ss_experts, ss_reality = root.spawn(2)
    expert_rngs = [np.random.Generator(np.random.PCG64(s))
                   for s in ss_experts.spawn(k)] if k else []
    reality_rng = np.random.Generator(np.random.PCG64(ss_reality))
    return expert_rngs, reality_rng


def _binary_pi_from_decision(game: Game, decision: np.ndarray) -> list | None:
    if game.m == 2 and game.decision_kind == "box":
        p = float(decision[0])
        return [1.0 - p, p]
    if game.decision_kind == "simplex":
        return [float(v) for v in decision]
    return None


# ---------------------------------------------------------------------------
# Protocols.  Each opener starts the session and returns it with a ``play``
# function for one round's first moves: the experts advise and Learner
# proposes.  ``play(state, n, outcomes)`` returns the proposal, the advice
# as recorded, and the recorded ``learner_pi``.


def _standard_experts(config: ScenarioConfig, game: Game, rngs):
    strategies = [build_standard_expert(game, s, r)
                  for s, r in zip(config.experts, rngs)]
    return lambda n, outcomes: [s.advise(n, outcomes) for s in strategies]


def _open_fixed_advice(start, propose):
    def open_protocol(config: ScenarioConfig, rngs, eps: float, tol: float):
        game = builtin_game(config.game, config.m)
        advise = _standard_experts(config, game, rngs)
        state = start(game, eta=config.eta, c=config.c, prior=config.prior,
                      n_experts=len(config.experts))

        def play(state, n, outcomes):
            decisions = advise(n, outcomes)
            A = np.asarray(game.loss(np.stack(decisions)), dtype=float)
            p = propose(state, A, eps, tol)
            return p, decisions, _binary_pi_from_decision(game, p.decision)

        return state, play

    return open_protocol


def _open_second_guess(start, propose, records_pi: bool):
    def open_protocol(config: ScenarioConfig, rngs, eps: float, tol: float):
        game = builtin_game(config.game, config.m)
        experts = [build_sg_expert(game, s) for s in config.experts]
        state = start(game, eta=config.eta, c=config.c, prior=config.prior,
                      n_experts=len(experts))

        def play(state, n, outcomes):
            p = propose(state, experts, eps, tol)
            gamma = p.decision
            pi = _binary_pi_from_decision(
                game, np.asarray(game.substitution(gamma), dtype=float)
            ) if records_pi else None
            return p, [ex(gamma) for ex in experts], pi

        return state, play

    return open_protocol


def _open_evaluators(config: ScenarioConfig, rngs, eps: float, tol: float):
    game = builtin_game(config.game, config.m)  # the base experts' game
    advise = _standard_experts(config, game, rngs)
    specs = []
    for ev in config.evaluators:
        c, eta = float(ev.get("c", 1.0)), float(ev.get("eta", 1.0))
        specs.append((default_proper_loss(builtin_game(ev["loss"], config.m), c, eta),
                      c, eta))
    state = ml_dfa_start(duplicate_evaluators(specs, len(config.experts)),
                         config.m, verify=True)

    def play(state, n, outcomes):
        base = [np.array([1.0 - d[0], d[0]]) if game.decision_kind == "box"
                else np.asarray(d, dtype=float) for d in advise(n, outcomes)]
        advice = tile_advice(np.stack(base), len(specs))
        p = ml_dfa_proposal(state, advice, epsilon=eps, tol=tol)
        return p, advice, [float(v) for v in p.decision]

    return state, play


def _open_simplex(config: ScenarioConfig, rngs, eps: float, tol: float):
    sg = SIMPLEX_GAMES[config.game](config.m)
    advise = _standard_experts(config, sg.base, rngs)
    state = simplex_dfa_start(sg, eta=config.eta, c=config.c, prior=config.prior,
                              n_experts=len(config.experts), verify=True)

    def play(state, n, outcomes):
        decisions = advise(n, outcomes)
        p = simplex_dfa_proposal(state, decisions, epsilon=eps, tol=tol)
        return p, decisions, [float(v) for v in p.decision]

    return state, play


#: algorithm -> (opener, reading of the log supermartingale); mixing
#: sessions report the semi-invariant, which is the same quantity
PROTOCOLS = {
    "aa": (_open_fixed_advice(
        aa_start, lambda s, A, eps, tol: aa_proposal(s, A)), log_semi_invariant),
    "dfa": (_open_fixed_advice(
        dfa_start, lambda s, A, eps, tol: dfa_proposal(s, A, epsilon=eps, tol=tol)),
        attrgetter("log_value")),
    "sg-dfa": (_open_second_guess(
        dfa_start, lambda s, ex, eps, tol: sg_dfa_proposal(s, ex, epsilon=eps, tol=tol),
        records_pi=True), attrgetter("log_value")),
    "sg-aa": (_open_second_guess(
        aa_start, lambda s, ex, eps, tol: sg_aa_proposal(s, ex, tol=tol),
        records_pi=False), log_semi_invariant),
    "ml-dfa": (_open_evaluators, attrgetter("log_value")),
    "simplex-dfa": (_open_simplex, attrgetter("log_value")),
}


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute a scenario and return its trajectory plus summary.

    Each round follows the protocol's move order: the experts advise,
    Learner proposes, Reality picks the outcome (seeing the proposal's loss
    vector only when it depends on the prediction), and the session
    advances once.
    """
    if config.algorithm not in PROTOCOLS:
        raise ConfigError(f"unknown algorithm {config.algorithm!r}")
    open_protocol, log_supermartingale = PROTOCOLS[config.algorithm]
    expert_rngs, reality_rng = _spawn_rngs(config.seed, len(config.experts))
    reality = build_reality(config.reality, config.m, reality_rng)
    state, play = open_protocol(config, expert_rngs, float(config.solver["epsilon"]),
                                float(config.solver["tol"]))

    records: list[StepRecord] = []
    outcomes: list = []
    max_margin = -np.inf
    worst_step = -1
    for n in range(config.horizon):
        p, advice, learner_pi = play(state, n, outcomes)
        w = reality.pick(n, p.loss_vector if reality.depends_on_prediction else None)
        learner_term, learner_loss, expert_losses = p.score(w)
        state = state.advance(learner_term, learner_loss, expert_losses, p.slack)
        outcomes.append(w)
        margins = list(state.bound_margins())
        worst = max(margins) if margins else -np.inf
        if worst > max_margin:
            max_margin, worst_step = worst, n
        cum_learner = state.cumulative_loss
        records.append(StepRecord(
            step=n,
            advice=[[float(v) for v in row] for row in advice],
            learner_pi=learner_pi,
            learner_decision=[float(v) for v in p.decision],
            outcome=[float(v) for v in w] if isinstance(w, np.ndarray) else w,
            learner_loss=learner_loss.tolist()
            if isinstance(learner_loss, np.ndarray) else learner_loss,
            expert_losses=expert_losses.tolist(),
            cumulative_learner_loss=list(cum_learner)
            if isinstance(cum_learner, np.ndarray) else cum_learner,
            cumulative_expert_losses=list(state.per_expert_loss),
            log_supermartingale=log_supermartingale(state),
            slack=p.slack,
            slack_total=state.slack_log_total,
            bound_margins=margins,
        ))

    k = state.n_experts
    evaluators = isinstance(state.c, np.ndarray)  # per-expert (c, eta)
    cs, etas = (state.c, state.eta) if evaluators else ([state.c] * k, [state.eta] * k)
    summary = {
        "name": config.name,
        "algorithm": config.algorithm,
        "game": config.game,
        "m": config.m,
        "horizon": config.horizon,
        "seed": config.seed,
        "final_learner_loss": _jsonable(
            list(state.cumulative_loss) if evaluators else state.cumulative_loss),
        "final_expert_losses": _jsonable(list(state.per_expert_loss)),
        "bound_constants": [{"c": float(c), "eta": float(eta), "prior": float(p0)}
                            for c, eta, p0 in zip(cs, etas, state.prior)],
        # evaluators' allowances differ; their summary carries the raw total
        "slack_allowance": _jsonable(
            (1.0 if evaluators else state.c / state.eta) * state.slack_log_total),
        "max_bound_margin": _jsonable(max_margin if records else 0.0),
        "worst_margin_step": worst_step,
        "bound_ok": bool((max_margin if records else 0.0) <= 1e-7),
        "expected_failure": False,
    }
    return RunResult(config=config, records=records, summary=summary)


# ---------------------------------------------------------------------------
# Serialization


def trajectory_lines(result: RunResult) -> list[str]:
    meta = {"type": "meta", "format_version": 1,
            "config": result.config.to_jsonable()}
    lines = [json.dumps(meta, separators=(",", ":"))]
    for rec in result.records:
        lines.append(json.dumps(rec.to_obj(), separators=(",", ":")))
    return lines


def write_outputs(result: RunResult, out_dir: str | Path,
                  fmt: str = "both") -> dict[str, Path]:
    """Write the JSONL trajectory and/or CSV summary; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    name = result.config.name
    if fmt in ("jsonl", "both"):
        path = out / f"{name}.jsonl"
        path.write_text("\n".join(trajectory_lines(result)) + "\n")
        paths["jsonl"] = path
    if fmt in ("csv", "both"):
        path = out / f"{name}_summary.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta", "prior", "c", "eta", "final_expert_loss",
                             "final_learner_loss", "slack_allowance",
                             "max_bound_margin", "bound_ok"])
            consts = result.summary["bound_constants"]
            fl = result.summary["final_learner_loss"]
            fe = result.summary["final_expert_losses"]
            for t, cst in enumerate(consts):
                learner_t = fl[t] if isinstance(fl, list) else fl
                writer.writerow([
                    t, cst["prior"], cst["c"], cst["eta"], fe[t], learner_t,
                    result.summary["slack_allowance"],
                    result.summary["max_bound_margin"],
                    result.summary["bound_ok"],
                ])
        paths["csv"] = path
    return paths
