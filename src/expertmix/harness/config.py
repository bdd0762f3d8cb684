"""Scenario configuration: a JSON document with a documented schema.

Top-level keys (see README for the full schema):

    game        {"name": str, "m": int}
    algorithm   "aa" | "dfa" | "sg-dfa" | "sg-aa" | "ml-dfa" | "simplex-dfa"
    c, eta      finite, c >= 1 and eta > 0 (ml-dfa uses per-evaluator values)
    prior       probability vector, one entry per expert, or "uniform"
                (default; the only choice for ml-dfa)
    experts     non-empty list of strategy specs, e.g.
                {"kind": "constant", "value": 0.3}
    evaluators  (ml-dfa only) list of {"loss": str, "eta": float, "c": float}
    reality     outcome spec, e.g. {"kind": "iid", "probs": [0.5, 0.5]};
                the kinds each algorithm takes are in SUPPORTED_REALITIES
    horizon     int
    seed        int (64-bit); fully determines the run
    solver      {"epsilon": float >= 0, "tol": float >= 2**-52}

Seeds derive from one master ``numpy.random.SeedSequence(seed)``: child 0
feeds the expert strategies (one grandchild per expert), child 1 feeds
reality.  The generator is PCG64, so identical configs reproduce byte
identical trajectories on any platform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError
from ..extensions import SIMPLEX_GAMES
from ..losses import builtin_game

#: algorithm -> the reality kinds its runner serves; every other pair is
#: refused at parse time
SUPPORTED_REALITIES = {
    "aa": ("iid", "fixed", "adversarial"),
    "dfa": ("iid", "fixed", "adversarial"),
    "sg-dfa": ("iid", "fixed", "adversarial"),
    "sg-aa": ("iid", "fixed", "adversarial"),
    "ml-dfa": ("iid", "fixed"),
    "simplex-dfa": ("dirichlet",),
}

ALGORITHMS = tuple(SUPPORTED_REALITIES)

#: expert kinds the fixed-advice algorithms build, and those the
#: second-guessing ones (``sg-*``) build
STANDARD_KINDS = ("constant", "iid-random", "trailing-average", "callback")
SG_KINDS = ("sg-contrarian", "sg-identity", "sg-constant", "constant", "callback")

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


def _require_game(name, m: int, what: str):
    try:
        return builtin_game(name, m)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _finite_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:  # an int past the float range overflows
        return math.isfinite(x)
    except OverflowError:
        return False


def _is_distribution(values, m: int) -> bool:
    return isinstance(values, list) and len(values) == m and \
        all(_finite_number(v) and v >= 0 for v in values) and abs(sum(values) - 1.0) <= 1e-9


def _require_proper_loss(game, c, what: str) -> None:
    """A forecasting session at ``c != 1`` scores with the game's hull
    proper loss pushed to the boundary
    (:func:`expertmix.defensive.default_proper_loss`); refuse a game that
    supplies none."""
    _require(c == 1.0 or game.boundary_proper_loss is not None
             or game.hull_proper_loss is not None,
             f"{what} at c={c!r} needs a hull proper loss, "
             f"which game {game.name!r} does not supply")


def _require_reality(reality: dict, m: int) -> None:
    if reality["kind"] == "fixed":
        seq = reality.get("sequence")
        _require(isinstance(seq, list) and len(seq) > 0 and all(
            isinstance(w, int) and not isinstance(w, bool) and 0 <= w < m for w in seq),
            f"reality.sequence must be a non-empty list of outcomes in [0, {m}), got {seq!r}")
    elif reality["kind"] == "iid" and "probs" in reality:
        _require(_is_distribution(reality["probs"], m),
                 f"reality.probs must be a probability vector over {m} outcomes, "
                 f"got {reality['probs']!r}")


def _require_expert(spec: dict, game) -> None:
    kind = spec["kind"]
    if kind in ("constant", "sg-constant"):
        value = spec.get("value")
        d = game.decision_dim
        values = [value] if d == 1 and not isinstance(value, list) else value
        if game.decision_kind == "box":
            ok = isinstance(values, list) and len(values) == d and \
                all(_finite_number(v) and 0 <= v <= 1 for v in values)
            domain = f"[0, 1]^{d}"
        else:
            ok = _is_distribution(values, d)
            domain = f"a probability vector over {d} outcomes"
        _require(ok, f"a {kind} expert's value must be a decision in {domain}, got {value!r}")
    elif kind == "trailing-average":
        smoothing = spec.get("smoothing", 1.0)
        _require(_finite_number(smoothing) and smoothing > 0,
                 f"trailing-average smoothing must be a finite number > 0, got {smoothing!r}")


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
    kinds = SG_KINDS if algorithm.startswith("sg-") else STANDARD_KINDS
    for e in experts:
        _require(e.get("kind") in kinds,
                 f"{algorithm} cannot build {e.get('kind')!r} experts; "
                 f"choose from {kinds}")
    _require(len(experts) > 0, "scenario needs at least one expert")
    reality = doc.get("reality")
    _require(isinstance(reality, dict) and reality.get("kind") in REALITY_KINDS,
             f"reality.kind must be one of {REALITY_KINDS}")
    served = SUPPORTED_REALITIES[algorithm]
    _require(reality["kind"] in served,
             f"{algorithm} runs with reality {' | '.join(served)}, "
             f"not {reality['kind']!r}")
    m = game["m"]
    _require(isinstance(m, int) and m >= 2,
             f"game.m must be an integer of at least 2, got {m!r}")
    base = _require_game(game["name"], m, "game")  # the experts' decisions live in it
    _require_reality(reality, m)
    for e in experts:
        _require_expert(e, base)
    _require(m == 2 or all(e["kind"] != "sg-contrarian" for e in experts),
             "sg-contrarian is a binary strategy (m = 2)")
    if algorithm == "simplex-dfa":
        _require(game["name"] in SIMPLEX_GAMES,
                 f"no simplex extension for game {game['name']!r}; "
                 f"choose from {tuple(SIMPLEX_GAMES)}")
    c, eta = doc.get("c", 1.0), doc.get("eta", 1.0)
    _require(_finite_number(c) and _finite_number(eta),
             f"c and eta must be finite numbers, got c={c!r}, eta={eta!r}")
    _require(algorithm == "ml-dfa" or (c >= 1.0 and eta > 0.0),
             f"{algorithm} needs c >= 1 and eta > 0, got c={c!r}, eta={eta!r}")
    evaluators = doc.get("evaluators")
    if algorithm == "ml-dfa":
        _require(isinstance(evaluators, list) and len(evaluators) > 0
                 and all(isinstance(ev, dict) for ev in evaluators),
                 "ml-dfa needs a non-empty evaluators list")
        for ev in evaluators:
            loss = _require_game(ev.get("loss"), m, "evaluator loss")
            ev_c, ev_eta = ev.get("c", 1.0), ev.get("eta", 1.0)
            _require(_finite_number(ev_c) and _finite_number(ev_eta)
                     and ev_c >= 1.0 and ev_eta > 0.0,
                     f"evaluator c and eta must be finite numbers with c >= 1 and "
                     f"eta > 0, got {ev!r}")
            _require_proper_loss(loss, ev_c, f"the {ev['loss']} evaluator")
    elif algorithm in ("dfa", "sg-dfa", "simplex-dfa"):
        _require_proper_loss(base, c, algorithm)
    elif algorithm == "sg-aa":
        _require(base.mixable_at(eta) or base.hull_membership_gap is not None,
                 f"sg-aa needs a retraction rule: game {base.name!r} is not mixable at "
                 f"eta={eta!r} and supplies no hull membership rule")
    prior = doc.get("prior")
    if prior == "uniform":
        prior = None
    if prior is not None:
        _require(algorithm != "ml-dfa",
                 "ml-dfa gives every evaluator copy the same prior; "
                 "drop 'prior' or set it to 'uniform'")
        _require(_is_distribution(prior, len(experts)),
                 f"prior must be 'uniform' or a probability vector with one "
                 f"entry per expert ({len(experts)}), got {prior!r}")
    solver = doc.get("solver", {})
    _require(isinstance(solver, dict) and set(solver) <= {"epsilon", "tol"},
             f"solver takes only epsilon and tol, got {solver!r}")
    solver = dict(solver)
    for key, default in (("epsilon", 1e-6), ("tol", 1e-9)):
        value = solver.setdefault(key, default)
        _require(_finite_number(value), f"solver.{key} must be a finite number, got {value!r}")
    _require(solver["epsilon"] >= 0 and solver["tol"] >= 2.0 ** -52,
             f"solver needs epsilon >= 0 and tol >= 2**-52, got {solver!r}")
    return ScenarioConfig(
        game=str(game["name"]),
        m=m,
        algorithm=str(algorithm),
        horizon=int(horizon),
        seed=int(seed),
        experts=experts,
        reality=reality,
        c=float(c),
        eta=float(eta),
        prior=prior,
        evaluators=evaluators,
        solver=solver,
        name=str(doc.get("name", "scenario")),
    )


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc)
