"""Scenario configuration: a JSON document with a documented schema.

Top-level keys (see README for the full schema):

    game        {"name": str, "m": int}
    algorithm   "aa" | "dfa" | "sg-dfa" | "sg-aa" | "ml-dfa" | "simplex-dfa"
    c, eta      floats (ml-dfa uses per-evaluator values instead)
    prior       probability vector, one entry per expert, or "uniform"
                (default; the only choice for ml-dfa)
    experts     non-empty list of strategy specs, e.g.
                {"kind": "constant", "value": 0.3}
    evaluators  (ml-dfa only) list of {"loss": str, "eta": float, "c": float}
    reality     outcome spec, e.g. {"kind": "iid", "probs": [0.5, 0.5]};
                the kinds each algorithm takes are in SUPPORTED_REALITIES
    horizon     int
    seed        int (64-bit); fully determines the run
    solver      {"epsilon": float, "tol": float}

Seeds derive from one master ``numpy.random.SeedSequence(seed)``: child 0
feeds the expert strategies (one grandchild per expert), child 1 feeds
reality.  The generator is PCG64, so identical configs reproduce byte
identical trajectories on any platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError

#: algorithm -> the reality kinds its runner serves; every other pair is
#: refused at parse time
SUPPORTED_REALITIES = {
    "aa": ("iid", "fixed", "adversarial"),
    "dfa": ("iid", "fixed", "adversarial"),
    "sg-dfa": ("iid", "fixed"),
    "sg-aa": ("iid", "fixed"),
    "ml-dfa": ("iid", "fixed"),
    "simplex-dfa": ("dirichlet",),
}

ALGORITHMS = tuple(SUPPORTED_REALITIES)

EXPERT_KINDS = (
    "constant",
    "iid-random",
    "trailing-average",
    "sg-contrarian",
    "sg-identity",
    "sg-constant",
    "callback",
)

REALITY_KINDS = ("iid", "adversarial", "fixed", "dirichlet")


@dataclass
class ScenarioConfig:
    game: str
    m: int
    algorithm: str
    horizon: int
    seed: int
    experts: list[dict]
    reality: dict
    c: float = 1.0
    eta: float = 1.0
    prior: list[float] | None = None
    evaluators: list[dict] | None = None
    solver: dict = field(default_factory=lambda: {"epsilon": 1e-6, "tol": 1e-9})
    name: str = "scenario"

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "game": {"name": self.game, "m": self.m},
            "algorithm": self.algorithm,
            "c": self.c,
            "eta": self.eta,
            "prior": self.prior,
            "experts": self.experts,
            "evaluators": self.evaluators,
            "reality": self.reality,
            "horizon": self.horizon,
            "seed": self.seed,
            "solver": self.solver,
        }


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def parse_config(doc: dict) -> ScenarioConfig:
    _require(isinstance(doc, dict), "config document must be a JSON object")
    game = doc.get("game")
    _require(isinstance(game, dict) and "name" in game and "m" in game,
             'config needs game: {"name": ..., "m": ...}')
    algorithm = doc.get("algorithm")
    _require(algorithm in ALGORITHMS,
             f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    horizon = doc.get("horizon")
    _require(isinstance(horizon, int) and horizon >= 0,
             "horizon must be a nonnegative integer")
    seed = doc.get("seed")
    _require(isinstance(seed, int), "seed must be an integer")
    experts = doc.get("experts", [])
    _require(isinstance(experts, list) and all(isinstance(e, dict) for e in experts),
             "experts must be a list of strategy objects")
    for e in experts:
        _require(e.get("kind") in EXPERT_KINDS,
                 f"unknown expert kind {e.get('kind')!r}; choose from {EXPERT_KINDS}")
    _require(len(experts) > 0, "scenario needs at least one expert")
    reality = doc.get("reality")
    _require(isinstance(reality, dict) and reality.get("kind") in REALITY_KINDS,
             f"reality.kind must be one of {REALITY_KINDS}")
    served = SUPPORTED_REALITIES[algorithm]
    _require(reality["kind"] in served,
             f"{algorithm} runs with reality {' | '.join(served)}, "
             f"not {reality['kind']!r}")
    prior = doc.get("prior")
    if prior == "uniform":
        prior = None
    if prior is not None:
        _require(algorithm != "ml-dfa",
                 "ml-dfa gives every evaluator copy the same prior; "
                 "drop 'prior' or set it to 'uniform'")
        _require(isinstance(prior, list) and len(prior) == len(experts)
                 and all(isinstance(p, (int, float)) and p >= 0 for p in prior)
                 and abs(sum(prior) - 1.0) <= 1e-9,
                 f"prior must be 'uniform' or a probability vector with one "
                 f"entry per expert ({len(experts)}), got {prior!r}")
    solver = dict(doc.get("solver", {}))
    solver.setdefault("epsilon", 1e-6)
    solver.setdefault("tol", 1e-9)
    cfg = ScenarioConfig(
        game=str(game["name"]),
        m=int(game["m"]),
        algorithm=str(algorithm),
        horizon=int(horizon),
        seed=int(seed),
        experts=experts,
        reality=reality,
        c=float(doc.get("c", 1.0)),
        eta=float(doc.get("eta", 1.0)),
        prior=prior,
        evaluators=doc.get("evaluators"),
        solver=solver,
        name=str(doc.get("name", "scenario")),
    )
    if cfg.algorithm == "ml-dfa":
        _require(isinstance(cfg.evaluators, list) and len(cfg.evaluators) > 0,
                 "ml-dfa needs a non-empty evaluators list")
    return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc)
