"""Scenario execution with the protocol move order (experts, Learner,
Reality, loss updates), JSONL trajectory logging, and CSV summaries.

Every run is a pure function of its config: randomness flows from one
``SeedSequence`` (child 0 -> experts, one grandchild each; child 1 ->
reality), and records are serialized with a fixed key order, so identical
configs produce byte-identical JSONL.

A run keeps its step records as numpy columns, one row per step
(:attr:`RunResult.columns`).  Serialization encodes from them, and
:attr:`RunResult.records` builds :class:`StepRecord` objects from them only
when they are read.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from ..aggregating import aa_rounds, aa_start
from ..core import Game
from ..defensive import default_proper_loss, dfa_rounds, dfa_start
from ..errors import ConfigError
from ..extensions import (
    SIMPLEX_GAMES,
    EvaluatedExpert,
    ml_dfa_rounds,
    ml_dfa_start,
    simplex_dfa_rounds,
    simplex_dfa_start,
)
from ..losses import builtin_game
from ..secondguess import sg_aa_rounds, sg_dfa_rounds
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
#: the keys a run keeps a column for: every key but ``step``, the row's index
COLUMN_KEYS = RECORD_KEYS[1:]


class _Records(Sequence):
    """A run's step records, read-only: each :class:`StepRecord` is built
    from the run's columns when it is read, holding Python numbers, lists
    and None.  A slice is a list of records."""

    def __init__(self, columns: dict) -> None:
        self._columns = columns
        self._n = len(columns["advice"])

    def __len__(self) -> int:
        return self._n

    def _build(self, lo: int, hi: int) -> list[StepRecord]:
        """The records of steps ``lo .. hi - 1``, one ``tolist`` a column."""
        lists = [repeat(None) if column is None else column[lo:hi].tolist()
                 for column in map(self._columns.get, COLUMN_KEYS)]
        return [StepRecord(*row) for row in zip(range(lo, hi), *lists)]

    def __getitem__(self, i):
        rows = range(self._n)[i]  # the steps of a slice, or one step
        if isinstance(rows, int):
            return self._build(rows, rows + 1)[0]
        return self._build(rows.start, rows.stop) if rows.step == 1 else [self[j] for j in rows]

    def __iter__(self):
        for lo in range(0, self._n, BLOCK_ROUNDS):
            yield from self._build(lo, min(lo + BLOCK_ROUNDS, self._n))

    def __eq__(self, other) -> bool:
        if isinstance(other, (_Records, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{self._n} step records>"


@dataclass(eq=False)
class RunResult:
    config: ScenarioConfig
    #: the step records' fields by key (``COLUMN_KEYS``), one row per step;
    #: ``learner_pi`` is None for a run that records no forecast
    columns: dict
    summary: dict

    @property
    def records(self) -> Sequence[StepRecord]:
        return _Records(self.columns)

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


def _learner_pi(game: Game, decisions: np.ndarray) -> np.ndarray | None:
    """The recorded forecast of each decision row: ``[1 - p, p]`` for a
    binary box game, the decision for a simplex game, else None."""
    if game.m == 2 and game.decision_kind == "box":
        return np.concatenate([1.0 - decisions, decisions], axis=1)
    if game.decision_kind == "simplex":
        return decisions
    return None


#: rounds per block of a run with Reality that does not look at the
#: prediction and no callback experts, and rows per encoded chunk of a
#: trajectory and per batch of built records.  Its arrays stay in the tens
#: of kilobytes.
BLOCK_ROUNDS = 256


def block_rounds(config: ScenarioConfig) -> int:
    """Rounds per block: ``BLOCK_ROUNDS`` when Reality does not look at the
    prediction and every expert is a built-in strategy, else one.  Every
    protocol plays its rounds in blocks through one loop
    (:func:`_block_play`), whose draws, running sums, margins and records
    are batched.  Mixing (``aa``) and forecasting (``dfa``, and
    ``simplex-dfa`` on Dirichlet outcomes) batch their posteriors too, one
    cumulative sum (a forecasting session's weights are AA's); evaluator
    sessions (``ml-dfa``) and the second-guessing protocols (``sg-aa``,
    ``sg-dfa``, whose experts' advice depends on Learner's move) play each
    round's posterior-dependent chain in turn.  A round that Reality or an
    expert must see before it is decided is a block of one: adversarial
    Reality and callback experts."""
    return BLOCK_ROUNDS if config.reality["kind"] != "adversarial" \
        and all(e["kind"] != "callback" for e in config.experts) else 1


# ---------------------------------------------------------------------------
# Protocols.  Each opener starts the session and returns it with a ``play``
# function for a block of rounds, made by :func:`_block_play`:
# ``play(state, n, size, outcomes)`` plays rounds ``n .. n + size - 1``,
# appends their outcomes, and returns the session after them and the
# columns of their step records in ``COLUMN_KEYS`` order, one row per
# round, the bound margins last, shape (size, k).  A protocol's
# block function takes the outcomes of the block's rounds before the last
# and ``pick(loss_vector)``, which gives the last round's once Learner has
# moved; the second-guessing protocols solve each round's fixed point or
# root in turn, and their blocks are as long as the others' under
# Reality that does not look at the prediction.


def _standard_experts(config: ScenarioConfig, game: Game, rngs):
    """The experts' decisions for rounds ``n .. n + size - 1``, shape
    (size, k, decision_dim), from the outcomes before the last of them."""
    strategies = [build_standard_expert(game, s, r)
                  for s, r in zip(config.experts, rngs)]

    def advise(n, size, outcomes):
        if size == 1:  # any strategy, callbacks too, advises round by round
            return np.array([s.advise(n, outcomes) for s in strategies], dtype=float)[None]
        return np.stack([s.advise(n, outcomes, size) for s in strategies], axis=1)

    return advise


def _listed(w: np.ndarray) -> list:
    """Outcomes as the experts see them: ints, or points as arrays."""
    return list(w) if w.ndim > 1 else w.tolist()


def _block_play(reality, advise, rounds, learner_pi):
    """``play`` for a block of rounds: ``advise(n, size, outcomes)`` gives
    the block's advice, and ``rounds(state, advice, outcomes, pick)`` its
    moves, Learner's and the experts' losses, the slack, the
    :class:`~expertmix.core.Rounds` and the advice as recorded, from the
    outcomes of the rounds before the last and ``pick(loss_vector)``, the
    last round's.  Reality that does not look at the prediction draws the
    block's outcomes in one call, and ``pick`` gives the last of them;
    Reality that does plays blocks of one (:func:`block_rounds`) and picks
    from Learner's loss vector.  ``learner_pi(moves)`` gives the recorded
    forecasts."""
    def play(state, n, size, outcomes):
        if reality.depends_on_prediction:  # a block of one
            w = np.zeros(1, dtype=int)

            def pick(lv):
                w[-1] = reality.pick(n, lv)
                return w[-1]
        else:
            w = reality.pick(n, None, size)
            pick = lambda lv: w[-1]  # noqa: E731
        outcomes.extend(_listed(w[:-1]))
        moves, learner_losses, expert_losses, slack, played, advice = rounds(
            state, advise(n, size, outcomes), w[:-1], pick)
        outcomes.extend(_listed(w[-1:]))
        columns = (advice, learner_pi(moves), moves, w, learner_losses, expert_losses,
                   played.cumulative_loss, played.per_expert_loss, played.log_supermartingale,
                   slack, played.slack_log_total, state.bound_margins(played))
        return state.after(played), columns

    return play


def _open_fixed_advice(start, rounds, scored=builtin_game):
    """An opener for experts that advise before Learner moves, in the game
    ``scored(name, m)`` that the session scores or, for a simplex game, in
    its base game: ``rounds(state, advice, outcomes, pick, eps, tol)``
    plays a block (:func:`_block_play`), whose advice is recorded as the
    experts gave it."""
    def open_protocol(config: ScenarioConfig, rngs, reality, eps: float, tol: float):
        state = start(scored(config.game, config.m), eta=config.eta, c=config.c,
                      prior=config.prior, n_experts=len(config.experts))
        game = getattr(state.game, "base", state.game)  # a simplex game's base game
        return state, _block_play(
            reality, _standard_experts(config, game, rngs),
            lambda state, advice, w, pick: (*rounds(state, advice, w, pick, eps, tol), advice),
            lambda decisions: _learner_pi(game, decisions))

    return open_protocol


def _open_second_guess(start, rounds, records_pi: bool):
    """An opener for second-guessing experts, whose blocks
    ``rounds(state, experts, outcomes, pick, eps, tol)`` plays round by
    round and records with the advice it scored; ``records_pi`` records the
    forecast of the decision substituted for each announced loss vector."""
    def open_protocol(config: ScenarioConfig, rngs, reality, eps: float, tol: float):
        game = builtin_game(config.game, config.m)
        experts = [build_sg_expert(game, s) for s in config.experts]
        state = start(game, eta=config.eta, c=config.c, prior=config.prior,
                      n_experts=len(experts))

        return state, _block_play(
            reality, lambda n, size, outcomes: None,
            lambda state, _, w, pick: rounds(state, experts, w, pick, eps, tol),
            lambda gammas: _learner_pi(game, np.asarray(game.substitution(gammas), dtype=float))
            if records_pi else None)

    return open_protocol


def _open_evaluators(config: ScenarioConfig, rngs, reality, eps: float, tol: float):
    """The evaluator opener, the several-losses reduction: each base
    expert's decision, as a distribution, is entered once per evaluator
    (spec-major, copy ``{label}[s]#k``), with equal priors over all copies,
    and a block is played by :func:`~expertmix.extensions.ml_dfa_rounds`;
    its records carry the entered advice and the forecasts.  The config
    serves it only Reality that does not look at the prediction."""
    game = builtin_game(config.game, config.m)  # the base experts' game
    decide = _standard_experts(config, game, rngs)
    n_specs, n_base = len(config.evaluators), len(config.experts)
    experts = []
    for s, ev in enumerate(config.evaluators):
        c, eta = float(ev.get("c", 1.0)), float(ev.get("eta", 1.0))
        proper = default_proper_loss(builtin_game(ev["loss"], config.m), c, eta)
        experts += [EvaluatedExpert(proper, c, eta, 1.0 / (n_specs * n_base),
                                    f"{proper.label or proper.game.name}[{s}]#{k}")
                    for k in range(n_base)]
    state = ml_dfa_start(experts, config.m, verify=True)

    def advise(n, size, outcomes):
        d = decide(n, size, outcomes)
        base = np.concatenate([1.0 - d, d], axis=-1) if game.decision_kind == "box" else d
        return np.tile(base, (n_specs, 1))

    return state, _block_play(
        reality, advise,
        lambda state, advice, w, pick: (*ml_dfa_rounds(state, advice, w, pick, epsilon=eps,
                                                       tol=tol), advice),
        lambda pi: pi)


#: algorithm -> opener
PROTOCOLS = {
    "aa": _open_fixed_advice(
        aa_start,
        lambda s, advice, w, pick, eps, tol: aa_rounds(s, s.game.loss_rows(advice), w, pick)),
    "dfa": _open_fixed_advice(
        dfa_start,
        lambda s, advice, w, pick, eps, tol: dfa_rounds(s, s.game.loss_rows(advice), w, pick,
                                                        epsilon=eps, tol=tol)),
    "sg-dfa": _open_second_guess(
        dfa_start,
        lambda s, ex, w, pick, eps, tol: sg_dfa_rounds(s, ex, w, pick, epsilon=eps, tol=tol),
        records_pi=True),
    "sg-aa": _open_second_guess(
        aa_start, lambda s, ex, w, pick, eps, tol: sg_aa_rounds(s, ex, w, pick, tol=tol),
        records_pi=False),
    "ml-dfa": _open_evaluators,
    "simplex-dfa": _open_fixed_advice(
        simplex_dfa_start,
        lambda s, advice, w, pick, eps, tol: simplex_dfa_rounds(s, advice, w, pick,
                                                                epsilon=eps, tol=tol),
        scored=lambda name, m: SIMPLEX_GAMES[name](m)),
}


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute a scenario and return its trajectory plus summary.

    Each round follows the protocol's move order: the experts advise,
    Learner moves, Reality picks the outcome (seeing Learner's loss vector
    only when it depends on the prediction), and the session reweighs.
    Rounds are played in blocks of :func:`block_rounds`, each through one
    loop (:func:`_block_play`); a round that Reality or an expert must see
    before it is decided is a block of one.  A longer block's draws,
    advice losses, reweighs, substitutions and records are each one batch,
    and so are AA's mixes and DFA's forecasts where AA's point serves them
    (every binary midpoint round under the game's canonical proper loss)
    and, for three or more outcomes and simplex outcomes, one q call at
    the barycentre of every round; DFA's weights are AA's posterior, and a
    round that no batch serves (a binary admissible interval under any
    other proper loss, the root, the labelled-grid search) is solved one
    at a time.  Every session reads its log supermartingale from
    :meth:`~expertmix.core.Session.rounds`.  An evaluator block
    batches its draws, advice check, advice losses and records; its q,
    root, learner losses and reweigh run round by round, since each
    expert's learner term differs.  A second-guessing block batches its
    draws and records; its fixed point or root, advice and reweigh run
    round by round, since the advice depends on Learner's move.  All give
    the bytes of one round at a time.
    """
    if config.algorithm not in PROTOCOLS:
        raise ConfigError(f"unknown algorithm {config.algorithm!r}")
    expert_rngs, reality_rng = _spawn_rngs(config.seed, len(config.experts))
    reality = build_reality(config.reality, config.m, reality_rng)
    state, play = PROTOCOLS[config.algorithm](
        config, expert_rngs, reality, float(config.solver["epsilon"]),
        float(config.solver["tol"]))

    blocks: list[tuple] = []
    outcomes: list = []
    max_margin = -np.inf
    worst_step = -1
    block = block_rounds(config)
    for n in range(0, config.horizon, block):
        size = min(block, config.horizon - n)
        state, columns = play(state, n, size, outcomes)
        worst = columns[-1].max(axis=1)
        i = int(worst.argmax())
        if worst[i] > max_margin:
            max_margin, worst_step = worst[i], n + i
        blocks.append(columns)

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
        "max_bound_margin": _jsonable(max_margin if blocks else 0.0),
        "worst_margin_step": worst_step,
        "bound_ok": bool((max_margin if blocks else 0.0) <= 1e-7),
        "expected_failure": False,
    }
    if blocks:
        columns = {key: None if col[0] is None else np.concatenate(col)
                   for key, col in zip(COLUMN_KEYS, zip(*blocks))}
    else:
        columns = dict.fromkeys(COLUMN_KEYS, np.empty(0))
    return RunResult(config=config, columns=columns, summary=summary)


# ---------------------------------------------------------------------------
# Serialization


_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
#: a step line, each field's JSON in ``RECORD_KEYS`` order
_STEP_LINE = '{"type":"step",' + ",".join(f'"{key}":%s' for key in RECORD_KEYS) + "}"


def _rows_json(column: np.ndarray | None, lo: int, hi: int) -> list[str]:
    """The JSON of rows ``lo .. hi - 1`` of a column, one string per row,
    from one encoder call on them: in an array with ``d + 1`` axes, only
    the end of a row puts a comma after ``d`` closing brackets.  A column
    holds numbers, never a string, so the encoder's ``Infinity`` can only
    be an infinite value, which ``to_obj`` writes as ``"inf"``."""
    if column is None:
        return ["null"] * (hi - lo)
    text = _encode(column[lo:hi].tolist())[1:-1]
    if "Infinity" in text:
        text = text.replace("-Infinity", '"-inf"').replace("Infinity", '"inf"')
    d = column.ndim - 1
    if d == 0:
        return text.split(",")
    return text.replace("]" * d + ",[", "]" * d + "\n[").split("\n")


def trajectory_lines(result: RunResult) -> list[str]:
    """The meta line and one line per step record, each ``to_obj``'s JSON.
    The steps are encoded from the run's columns ``BLOCK_ROUNDS`` rows at
    a time, with one encoder call per column, whatever blocks the run
    played."""
    meta = {"type": "meta", "format_version": 1,
            "config": result.config.to_jsonable()}
    lines = [json.dumps(meta, separators=(",", ":"))]
    columns, n = result.columns, len(result.records)
    for lo in range(0, n, BLOCK_ROUNDS):
        hi = min(lo + BLOCK_ROUNDS, n)
        lines += [_STEP_LINE % row for row in zip(
            range(lo, hi), *(_rows_json(columns[key], lo, hi) for key in COLUMN_KEYS))]
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
