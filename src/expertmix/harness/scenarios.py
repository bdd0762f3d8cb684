"""Named builtin scenarios (the shipped experiment suite) and the
discontinuous-adversary demonstration.
"""

from __future__ import annotations

import numpy as np

from ..losses import realizability_constant
from .config import ScenarioConfig, parse_config
from .runner import COLUMN_KEYS, RunResult


def builtin_scenario(name: str, **overrides) -> ScenarioConfig:
    """Look up a shipped scenario by name; keyword overrides are applied on
    top of the stored document (e.g. ``seed=...``, ``horizon=...``)."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    doc = dict(SCENARIOS[name])
    doc.update(overrides)
    return parse_config(doc)


def _iid_experts(k: int) -> list[dict]:
    return [{"kind": "iid-random"} for _ in range(k)]


_C_ABS = realizability_constant("absolute", 1.0)

SCENARIOS: dict[str, dict] = {
    "aa-log-k10": {
        "name": "aa-log-k10",
        "game": {"name": "log", "m": 2},
        "algorithm": "aa",
        "c": 1.0,
        "eta": 1.0,
        "experts": _iid_experts(10),
        "reality": {"kind": "iid", "probs": [0.5, 0.5]},
        "horizon": 10_000,
        "seed": 42,
    },
    "dfa-log-k10": {
        "name": "dfa-log-k10",
        "game": {"name": "log", "m": 2},
        "algorithm": "dfa",
        "c": 1.0,
        "eta": 1.0,
        "experts": _iid_experts(10),
        "reality": {"kind": "iid", "probs": [0.5, 0.5]},
        "horizon": 10_000,
        "seed": 42,
    },
    "absolute-aa": {
        "name": "absolute-aa",
        "game": {"name": "absolute", "m": 2},
        "algorithm": "aa",
        "c": _C_ABS,
        "eta": 1.0,
        "experts": [{"kind": "constant", "value": 0.0},
                    {"kind": "constant", "value": 1.0}],
        "reality": {"kind": "adversarial"},
        "horizon": 1000,
        "seed": 7,
    },
    "absolute-dfa": {
        "name": "absolute-dfa",
        "game": {"name": "absolute", "m": 2},
        "algorithm": "dfa",
        "c": _C_ABS,
        "eta": 1.0,
        "experts": [{"kind": "constant", "value": 0.0},
                    {"kind": "constant", "value": 1.0}],
        "reality": {"kind": "adversarial"},
        "horizon": 1000,
        "seed": 7,
    },
    "sg-contrarian-log": {
        "name": "sg-contrarian-log",
        "game": {"name": "log", "m": 2},
        "algorithm": "sg-dfa",
        "c": 1.0,
        "eta": 1.0,
        "experts": [{"kind": "sg-contrarian"},
                    {"kind": "sg-constant", "value": 0.5}],
        "reality": {"kind": "iid", "probs": [0.5, 0.5]},
        "horizon": 300,
        "seed": 11,
    },
    "sg-contrarian-log-aa": {
        "name": "sg-contrarian-log-aa",
        "game": {"name": "log", "m": 2},
        "algorithm": "sg-aa",
        "c": 1.0,
        "eta": 1.0,
        "experts": [{"kind": "sg-contrarian"},
                    {"kind": "sg-constant", "value": 0.5}],
        "reality": {"kind": "iid", "probs": [0.5, 0.5]},
        "horizon": 300,
        "seed": 11,
    },
    "ml-log-square-k4": {
        "name": "ml-log-square-k4",
        "game": {"name": "log", "m": 2},
        "algorithm": "ml-dfa",
        "experts": _iid_experts(4),
        "evaluators": [{"loss": "log", "eta": 1.0, "c": 1.0},
                       {"loss": "square", "eta": 2.0, "c": 1.0}],
        "reality": {"kind": "iid", "probs": [0.5, 0.5]},
        "horizon": 2000,
        "seed": 5,
    },
    "brier-simplex": {
        "name": "brier-simplex",
        "game": {"name": "brier", "m": 3},
        "algorithm": "simplex-dfa",
        "c": 1.0,
        "eta": 1.0,
        "experts": [{"kind": "constant", "value": [1 / 3, 1 / 3, 1 / 3]},
                    {"kind": "constant", "value": [1.0, 0.0, 0.0]}],
        "reality": {"kind": "dirichlet", "alpha": 1.0},
        "horizon": 500,
        "seed": 13,
    },
    "kl-simplex": {
        "name": "kl-simplex",
        "game": {"name": "kl", "m": 3},
        "algorithm": "simplex-dfa",
        "c": 1.0,
        "eta": 1.0,
        "experts": [{"kind": "constant", "value": [1 / 3, 1 / 3, 1 / 3]}],
        "reality": {"kind": "dirichlet", "alpha": 1.0},
        "horizon": 300,
        "seed": 17,
    },
}


def run_disconnected_flip(horizon: int) -> RunResult:
    """The negative control for second-guessing without continuity.

    The game's prediction set is the two isolated points of the simple
    prediction game.  A discontinuous conditional expert maps Learner's
    prediction to the opposite point and Reality agrees with the expert, so
    Learner (here: follow-the-leader over the two points, which is as good
    as any deterministic rule) loses one unit per round while the expert
    loses nothing.  Regret grows linearly; the run is recorded as an
    expected failure, demonstrating that the continuity hypothesis cannot
    be dropped.
    """
    points = np.array([[0.0, 1.0], [1.0, 0.0]])  # "predict 0" / "predict 1"
    totals = np.zeros(2)  # cumulative loss of each fixed point
    picks = np.zeros(horizon, dtype=int)
    for n in range(horizon):
        picks[n] = np.argmin(totals)  # follow the leader, ties to 0
        totals += points[:, 1 - picks[n]]
    w = 1 - picks  # Reality agrees with the expert, who flips Learner's point
    gamma, flip = points[picks], points[w]
    rows = np.arange(horizon)
    learner_loss, expert_loss = gamma[rows, w], flip[rows, w][:, None]
    learner_cum, expert_cum = np.cumsum(learner_loss), np.cumsum(expert_loss, axis=0)
    zeros = np.zeros(horizon)
    columns = dict(zip(COLUMN_KEYS, (
        flip[:, None], None, gamma, w, learner_loss, expert_loss, learner_cum, expert_cum,
        zeros, zeros, zeros, learner_cum[:, None] - expert_cum)))
    learner_cum = float(learner_cum[-1]) if horizon else 0.0
    expert_cum = float(expert_cum[-1, 0]) if horizon else 0.0
    config = parse_config({
        "name": "disconnected-flip",
        "game": {"name": "absolute", "m": 2},  # placeholder; the run is bespoke
        "algorithm": "sg-dfa",
        "experts": [{"kind": "sg-identity"}],
        "reality": {"kind": "fixed", "sequence": [0]},
        "horizon": horizon,
        "seed": 0,
    })
    summary = {
        "name": "disconnected-flip",
        "algorithm": "sg-flt-demo",
        "game": "simple-prediction",
        "m": 2,
        "horizon": horizon,
        "seed": 0,
        "final_learner_loss": learner_cum,
        "final_expert_losses": [expert_cum],
        "bound_constants": [{"c": 1.0, "eta": 1.0, "prior": 1.0}],
        "slack_allowance": 0.0,
        "max_bound_margin": learner_cum - expert_cum,
        "worst_margin_step": horizon - 1,
        "bound_ok": False,
        "expected_failure": True,
        "regret": learner_cum - expert_cum,
    }
    return RunResult(config=config, columns=columns, summary=summary)
