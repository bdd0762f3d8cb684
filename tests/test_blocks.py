"""Rounds played in blocks replay rounds played one at a time.

``reference_run`` is a per-round loop of every protocol, built from the
library's primitives rather than from its block functions: each round the
experts advise, Learner moves (AA mixes and substitutes; DFA and simplex
DFA solve for the forecast, with three or more outcomes trying the
barycentre, then AA's substituted mix in forecast coordinates, before the
simplex search, and substitute; evaluators solve for the root;
second-guessing solves its fixed point one transform call per level, or
the root of its per-expert q),
Reality picks (seeing Learner's loss vector when it looks at the
prediction), and the session takes one round's reweigh.  The runner plays
the same configs in blocks of rounds (AA: one cumulative sum for the
posterior path and one batched mix; DFA: the same posterior path and one
batched solve of the binary admissible intervals, or with three or more
outcomes one q call at the barycentre of every round and one batched
substitution and q call at AA's point of the rounds it misses, and the
other rounds one at a time; evaluators: one proper-loss call per evaluator
group for the block's advice, and the posterior-dependent chain round by
round; second-guessing: each round's fixed point or root, its advice and
its reweigh in turn; all: one block's running sums, and records from
columns), and a round that Reality or an expert must see first
(adversarial Reality, callback experts) as a block of one; its JSONL and
summary must be byte-identical, and it must raise the same error at the
same round.  The block draws of the experts and of Reality must be
the single-round draws.
"""

import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expertmix import aggregating, defensive, extensions
from expertmix.aggregating import aa_mix, aa_start, log_semi_invariant, substitute
from expertmix.core import log_sum_exp, pair_exponent
from expertmix.defensive import choose_forecast, default_proper_loss, dfa_start, evaluator_groups
from expertmix.errors import (AllExpertsDead, ContractViolation, ExpertmixError,
                              InvalidDistribution, NotRealizable, SlackExceeded,
                              SubstitutionFailure)
from expertmix.extensions import (SIMPLEX_GAMES, EvaluatedExpert, ml_dfa_start, ml_dfa_step,
                                  simplex_dfa_start)
from expertmix.harness import runner
from expertmix.harness.config import parse_config
from expertmix.harness.runner import (BLOCK_ROUNDS, StepRecord, _jsonable, _spawn_rngs,
                                      block_rounds, run_scenario, trajectory_lines)
from expertmix.harness.strategies import (CALLBACK_REGISTRY, DirichletReality, FixedReality,
                                          IidRandomExpert, IidReality, TrailingAverageExpert,
                                          build_reality, build_sg_expert,
                                          build_standard_expert)
from expertmix.harness.scenarios import builtin_scenario
from expertmix.losses import ProperLoss, builtin_game, realizability_constant
from oracles import advance_reference, reference_fixed_point


def evaluated_experts(config):
    """The experts of an ``ml-dfa`` config: each base expert entered once
    per evaluator, spec-major, with equal priors over all copies."""
    k = len(config.experts)
    experts = []
    for s, ev in enumerate(config.evaluators):
        c, eta = float(ev.get("c", 1.0)), float(ev.get("eta", 1.0))
        proper = default_proper_loss(builtin_game(ev["loss"], config.m), c, eta)
        experts += [EvaluatedExpert(proper, c, eta, 1.0 / (len(config.evaluators) * k),
                                    f"{proper.label or proper.game.name}[{s}]#{i}")
                    for i in range(k)]
    return experts


def reference_forecast(state, game, q, A, eps, tol, select):
    """A round's forecast, its slack and ``q(pi, .)``.  With three or more
    outcomes, the first point that keeps q under the solve's target: the
    barycentre, then AA's substituted mix in ``game``, mapped to forecast
    coordinates; otherwise, and for binary games, the solve."""
    if game.m > 2:
        def aa_point():
            return game.forecast_of(game.substitution(aa_mix(state, A)[None]))[0]

        for point in (lambda: np.full(game.m, 1.0 / game.m), aa_point):
            pi = point()
            qpi = q(pi[None])[0]
            if float(np.max(qpi)) <= 1.0 + eps + tol:
                return pi, max(0.0, float(np.max(qpi)) - 1.0), qpi
    return choose_forecast(q, game.m, epsilon=eps, tol=tol, select=select, full_output=True)


def reference_move(config, state, game, sg, experts, outcomes, n, eps, tol):
    """Learner's move in round ``n``: the decision, its loss vector (None
    where there is no single one), the slack, the advice as recorded and
    ``score(w)``, which gives the learner term, Learner's loss, the
    experts' losses and the log factor (None for mixing and evaluators)."""
    algorithm = config.algorithm
    if algorithm in ("sg-aa", "sg-dfa"):
        if algorithm == "sg-aa":
            gamma, slack, log_q = reference_fixed_point(state, experts, tol=tol), 0.0, None
        else:  # the root of the per-expert q, whose advice depends on lambda
            wbar = np.exp(state.log_posterior())

            def q(P):
                L = state.proper(P)
                G = np.stack([[ex(lam) for lam in L] for ex in experts], axis=1)
                return np.sum(np.where(wbar[:, None] > 0, wbar[:, None] * np.exp(
                    pair_exponent(L[:, None, :], G, state.c, state.eta)), 0.0), axis=1)

            pi, slack, qpi = choose_forecast(q, 2, tol=tol, select="root", full_output=True)
            gamma = state.proper(pi)
            with np.errstate(divide="ignore"):
                log_q = np.log(qpi)
        advice = np.stack([ex(gamma) for ex in experts])
        return gamma, gamma, slack, advice, lambda w: (
            0.0 if log_q is None else gamma[w], float(gamma[w]), advice[:, w],
            None if log_q is None else log_q[w])
    decisions = [s.advise(n, outcomes) for s in experts]
    if algorithm == "ml-dfa":
        base = [np.array([1.0 - d[0], d[0]]) if game.decision_kind == "box" else d
                for d in decisions]
        advice = np.concatenate([np.stack(base)] * len(config.evaluators))
        G = np.stack([proper(a) for proper, a in zip(state.proper, advice)])
        # the evaluator q as the evaluator module finds it
        pi, slack = choose_forecast(extensions.fixed_advice_q(state, G), config.m,
                                    epsilon=eps, tol=tol, select="root")
        lam = np.empty(G.shape)
        for proper, _, _, idx in evaluator_groups(state):
            lam[idx] = proper(pi)
        return pi, None, slack, advice, lambda w: (lam[:, w], lam[:, w], G[:, w], None)
    A = np.asarray(game.loss(np.stack(decisions)), dtype=float)
    if algorithm == "aa":
        decision, lv = substitute(state, aa_mix(state, A), 1e-7)
        return decision, lv, 0.0, decisions, lambda w: (0.0, float(lv[w]), A[:, w], None)
    q = defensive.fixed_advice_q(state, A)
    pi, slack, qpi = reference_forecast(state, game, q, A, eps, tol, "midpoint")
    with np.errstate(divide="ignore"):
        log_q = np.log(qpi)
    if algorithm == "simplex-dfa":
        # the decision extended to a point of the simplex, with every expert's
        decision = np.asarray(game.substitution(state.proper(pi)), dtype=float)

        def score(point):
            learner = sg.loss_on_simplex(decision, point)
            g = np.array([sg.loss_on_simplex(d, point) for d in decisions])
            factor = log_sum_exp(state.log_posterior() + state._log_factors(learner, g))
            return learner, float(learner), g, factor

        return decision, None, slack, decisions, score
    lam = state.proper(pi)
    decision, lv = substitute(state, lam, 1e-7)
    return decision, lv, slack, decisions, lambda w: (lam[w], float(lv[w]), A[:, w], log_q[w])


def reference_run(config, records=None):
    """The run round by round: its JSONL lines and its summary as JSON.
    Every protocol reweighs one round at a time with
    :func:`oracles.advance_reference`; each round's :class:`StepRecord`
    is appended to ``records`` when it is given.  A library error raised in
    a round carries that round as ``step``; one raised opening the session
    carries None."""
    algorithm = config.algorithm
    simplex, evaluators = algorithm == "simplex-dfa", algorithm == "ml-dfa"
    second_guess = algorithm in ("sg-aa", "sg-dfa")
    mixing = algorithm in ("aa", "sg-aa")
    eps, tol = float(config.solver["epsilon"]), float(config.solver["tol"])
    expert_rngs, reality_rng = _spawn_rngs(config.seed, len(config.experts))
    reality = build_reality(config.reality, config.m, reality_rng)
    sg = SIMPLEX_GAMES[config.game](config.m) if simplex else None
    game = sg.base if simplex else builtin_game(config.game, config.m)
    experts = [build_sg_expert(game, s) for s in config.experts] if second_guess else \
        [build_standard_expert(game, s, r) for s, r in zip(config.experts, expert_rngs)]
    n = None
    try:
        if evaluators:
            state = ml_dfa_start(evaluated_experts(config), config.m)
        else:
            start = simplex_dfa_start if simplex else aa_start if mixing else dfa_start
            state = start(sg if simplex else game, eta=config.eta, c=config.c,
                          prior=config.prior, n_experts=len(experts))
        meta = {"type": "meta", "format_version": 1, "config": config.to_jsonable()}
        lines = [json.dumps(meta, separators=(",", ":"))]
        outcomes = []
        max_margin, worst_step = -np.inf, -1
        for n in range(config.horizon):
            d, lv, slack, advice, score = reference_move(config, state, game, sg, experts,
                                                         outcomes, n, eps, tol)
            w = reality.pick(n, lv if reality.depends_on_prediction else None)
            learner_term, learner_loss, expert_losses, log_factor = score(w)
            state = advance_reference(state, learner_term, learner_loss, expert_losses,
                                      log_factor, slack)
            outcomes.append(w)
            margins = list(state.bound_margins())
            if max(margins) > max_margin:
                max_margin, worst_step = max(margins), n
            if algorithm == "sg-aa":
                pi = None
            elif algorithm == "sg-dfa":
                p = float(game.substitution(d)[0])
                pi = [1.0 - p, p]
            elif game.decision_kind == "box" and not evaluators:
                pi = [1.0 - float(d[0]), float(d[0])]
            else:
                pi = [float(v) for v in d]
            rec = StepRecord(
                step=n, advice=[[float(v) for v in row] for row in advice], learner_pi=pi,
                learner_decision=[float(v) for v in d],
                outcome=[float(v) for v in w] if simplex else w, learner_loss=learner_loss,
                expert_losses=expert_losses.tolist(),
                cumulative_learner_loss=state.cumulative_loss,
                cumulative_expert_losses=list(state.per_expert_loss),
                log_supermartingale=(state.log_value if evaluators
                                     else log_semi_invariant(state) if mixing
                                     else state.log_supermartingale),
                slack=slack, slack_total=state.slack_log_total, bound_margins=margins)
            lines.append(json.dumps(rec.to_obj(), separators=(",", ":")))
            if records is not None:
                records.append(rec)
    except ExpertmixError as exc:
        exc.step = n
        raise
    top = max_margin if config.horizon else 0.0
    k = state.n_experts
    cs, etas = (state.c, state.eta) if evaluators else ([state.c] * k, [state.eta] * k)
    summary = {
        "name": config.name, "algorithm": config.algorithm, "game": config.game,
        "m": config.m, "horizon": config.horizon, "seed": config.seed,
        "final_learner_loss": _jsonable(state.cumulative_loss),
        "final_expert_losses": _jsonable(list(state.per_expert_loss)),
        "bound_constants": [{"c": float(c), "eta": float(eta), "prior": float(p0)}
                            for c, eta, p0 in zip(cs, etas, state.prior)],
        "slack_allowance": _jsonable((1.0 if evaluators else state.c / state.eta)
                                     * state.slack_log_total),
        "max_bound_margin": _jsonable(top), "worst_margin_step": worst_step,
        "bound_ok": bool(top <= 1e-7), "expected_failure": False,
    }
    return lines, json.dumps(summary)


def blocked_run(config):
    res = run_scenario(config)
    return trajectory_lines(res), json.dumps(res.summary)


GAMES = [("log", 2), ("square", 2), ("absolute", 2), ("log", 3), ("brier", 3)]
BOX_VALUES = [0.0, 0.3, 0.5, 1.0]  # log experts at 0 or 1 lose inf
SIMPLEX_VALUES = [[1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [0.0, 0.5, 0.5]]


def _normalized(weights):
    return [w / sum(weights) for w in weights]


@st.composite
def configs(draw, algorithm="aa"):
    name, m = draw(st.sampled_from(GAMES))
    if name == "absolute":  # c = 1 is not realizable: SubstitutionFailure
        # (DFA at c = 1 meets that failure in its first round too, a case
        # the AA draws already cover, so DFA runs absolute at its constant only)
        c, eta = draw(st.sampled_from([realizability_constant("absolute", 1.0)]
                                      + [1.0] * (algorithm == "aa"))), 1.0
    else:  # DFA refuses log and square at c > 1 when it opens the session
        c = draw(st.sampled_from([1.0] if algorithm == "dfa" else [1.0, 1.5]))
        eta = draw(st.sampled_from([0.5, 1.0, 2.0] if name == "square" else [0.5, 1.0]))
    values = BOX_VALUES if m == 2 else SIMPLEX_VALUES
    expert = st.one_of(
        st.sampled_from(values).map(lambda v: {"kind": "constant", "value": v}),
        st.just({"kind": "iid-random"}),
        st.sampled_from([0.1, 0.5, 1.0, 2.5]).map(
            lambda s: {"kind": "trailing-average", "smoothing": s}))
    experts = draw(st.lists(expert, min_size=1, max_size=4))
    weights = st.lists(st.sampled_from([0, 1, 2, 5]), min_size=len(experts),
                       max_size=len(experts)).filter(any)
    prior = draw(st.one_of(st.just("uniform"), weights.map(_normalized)))
    reality = draw(st.one_of(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=6).map(
            lambda seq: {"kind": "fixed", "sequence": seq}),
        st.lists(st.sampled_from([0, 1, 3]), min_size=m, max_size=m).filter(any).map(
            lambda w: {"kind": "iid", "probs": _normalized(w)})))
    # DFA's m = 3 runs stay shorter, still past the edge of a block of 256:
    # a round that reaches the labelled-grid search takes ~1-2 ms
    longest = 300 if algorithm == "dfa" and m == 3 else 600
    return parse_config({
        "name": "blocks", "game": {"name": name, "m": m}, "algorithm": algorithm, "c": c,
        "eta": eta, "prior": prior, "experts": experts, "reality": reality,
        "horizon": draw(st.integers(0, longest)), "seed": draw(st.integers(0, 2 ** 32))})


def assert_blocks_replay_rounds(config, block, want=None):
    """The run in blocks of ``block`` rounds gives the bytes of the
    per-round run, ``want`` when it is already at hand, or raises its
    error in its round."""
    with mock.patch.object(runner, "BLOCK_ROUNDS", block):
        assert block_rounds(config) == block
        if want is None:
            try:
                want = reference_run(config)
            except ExpertmixError as exc:
                # the same error, in the same round: a run through it raises,
                # and every round before it plays through
                opening = exc.step is None
                for horizon in (config.horizon,) if opening else (config.horizon, exc.step + 1):
                    with pytest.raises(type(exc)) as got:
                        blocked_run(replace(config, horizon=horizon))
                    assert str(got.value) == str(exc)
                if not opening:
                    before = replace(config, horizon=exc.step)
                    assert blocked_run(before) == reference_run(before)
                return
        assert blocked_run(config) == want


def chunk_edge_config(horizon):
    """Log-loss mixing whose trajectory is encoded in chunks of
    ``BLOCK_ROUNDS`` rows: at these horizons a run has no chunk, one, one
    full one, or two and one row, and in blocks of 7 rounds a chunk ends
    inside a block."""
    return parse_config({
        "game": {"name": "log", "m": 2}, "algorithm": "aa", "horizon": horizon, "seed": 3,
        "experts": [{"kind": "iid-random"}, {"kind": "constant", "value": 0.3},
                    {"kind": "trailing-average"}], "reality": {"kind": "iid"}})


@settings(max_examples=40, deadline=None)
@given(config=configs(), block=st.sampled_from([1, 2, 7, 64, BLOCK_ROUNDS]))
@example(config=chunk_edge_config(0), block=7)
@example(config=chunk_edge_config(1), block=7)
@example(config=chunk_edge_config(BLOCK_ROUNDS), block=7)
@example(config=chunk_edge_config(2 * BLOCK_ROUNDS + 1), block=7)
@example(config=chunk_edge_config(2 * BLOCK_ROUNDS + 1), block=BLOCK_ROUNDS)
def test_blocks_replay_rounds(config, block):
    assert_blocks_replay_rounds(config, block)


@settings(max_examples=30, deadline=None)
@given(config=configs("dfa"), block=st.sampled_from([1, 2, 7, 64, BLOCK_ROUNDS]))
def test_dfa_blocks_replay_rounds(config, block):
    assert_blocks_replay_rounds(config, block)


@st.composite
def simplex_configs(draw):
    """Simplex-outcome DFA on brier or kl at m = 3 with Dirichlet outcomes,
    and a block size: kl experts at a vertex or on a face lose inf wherever
    the outcome gives their zeros mass, and priors may hold zeros.  A round
    that misses both the barycentre and AA's point costs a labelled-grid
    search of ~1-2 ms, so the runs stay short, except that blocks of 256 run
    past their first edge."""
    expert = st.one_of(
        st.sampled_from(SIMPLEX_VALUES).map(lambda v: {"kind": "constant", "value": v}),
        st.just({"kind": "iid-random"}),
        st.sampled_from([0.1, 1.0, 2.5]).map(
            lambda s: {"kind": "trailing-average", "smoothing": s}))
    experts = draw(st.lists(expert, min_size=1, max_size=4))
    weights = st.lists(st.sampled_from([0, 1, 2, 5]), min_size=len(experts),
                       max_size=len(experts)).filter(any)
    block = draw(st.sampled_from([1, 2, 7, BLOCK_ROUNDS]))
    config = parse_config({
        "name": "simplex-blocks", "game": {"name": draw(st.sampled_from(["brier", "kl"])),
                                           "m": 3},
        "algorithm": "simplex-dfa", "experts": experts,
        "prior": draw(st.one_of(st.just("uniform"), weights.map(_normalized))),
        "reality": {"kind": "dirichlet", "alpha": draw(st.sampled_from([0.3, 1.0, 5.0]))},
        "horizon": draw(st.integers(BLOCK_ROUNDS + 1, BLOCK_ROUNDS + 8)
                        if block == BLOCK_ROUNDS else st.integers(0, 40)),
        "seed": draw(st.integers(0, 2 ** 32))})
    return config, block


@settings(max_examples=8, deadline=None)
@given(case=simplex_configs())
@example(case=(parse_config({  # simplex outcomes across a chunk edge inside a block of 7
    "game": {"name": "brier", "m": 3}, "algorithm": "simplex-dfa", "horizon": BLOCK_ROUNDS + 4,
    "seed": 2, "experts": [{"kind": "constant", "value": [0.2, 0.3, 0.5]},
                           {"kind": "trailing-average"}],
    "reality": {"kind": "dirichlet", "alpha": 1.0}}), 7))
def test_simplex_blocks_replay_rounds(case):
    assert_blocks_replay_rounds(*case)


#: evaluators by outcome count: binary log and square at two constants each
#: (a spec drawn twice is a duplicate group), and kl at m = 3
EVALUATORS = {2: [{"loss": "log", "eta": 1.0, "c": 1.0}, {"loss": "log", "eta": 0.5, "c": 1.0},
                  {"loss": "square", "eta": 2.0, "c": 1.0}, {"loss": "square", "eta": 1.0}],
              3: [{"loss": "kl", "eta": 1.0}, {"loss": "kl", "eta": 0.5}]}


@st.composite
def ml_configs(draw):
    """Evaluator runs and a block size: binary log and square evaluators,
    or kl at m = 3, whose rounds run the simplex search (~1-2 ms a round)
    when the barycentre misses, since an evaluator session has no single
    mix to take AA's point from, so those runs stay short and take the
    short blocks; binary runs go past the edge of a block of 256."""
    m = draw(st.sampled_from([2, 2, 3]))
    values = BOX_VALUES if m == 2 else SIMPLEX_VALUES
    expert = st.one_of(
        st.sampled_from(values).map(lambda v: {"kind": "constant", "value": v}),
        st.just({"kind": "iid-random"}),
        st.sampled_from([0.1, 1.0, 2.5]).map(
            lambda s: {"kind": "trailing-average", "smoothing": s}))
    reality = draw(st.one_of(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=6).map(
            lambda seq: {"kind": "fixed", "sequence": seq}),
        st.lists(st.sampled_from([0, 1, 3]), min_size=m, max_size=m).filter(any).map(
            lambda w: {"kind": "iid", "probs": _normalized(w)})))
    block = draw(st.sampled_from([1, 2, 7] + [BLOCK_ROUNDS] * (m == 2)))
    config = parse_config({
        "name": "ml-blocks", "game": {"name": "log" if m == 2 else "kl", "m": m},
        "algorithm": "ml-dfa", "experts": draw(st.lists(expert, min_size=1, max_size=4)),
        "evaluators": draw(st.lists(st.sampled_from(EVALUATORS[m]), min_size=1, max_size=3)),
        "reality": reality, "seed": draw(st.integers(0, 2 ** 32)),
        "horizon": draw(st.integers(0, 300 if m == 2 else 30))})
    return config, block


@settings(max_examples=20, deadline=None)
@given(case=ml_configs())
def test_ml_blocks_replay_rounds(case):
    assert_blocks_replay_rounds(*case)


@pytest.mark.parametrize("evaluators", [["log", "brier"], ["hellinger"]])
@pytest.mark.parametrize("block", [7, BLOCK_ROUNDS])
def test_ml_blocks_replay_the_simplex_search(evaluators, block):
    """Evaluators at m = 3 whose rounds miss the barycentre, with no AA-mix
    point to take (there is none for evaluators): the simplex search
    serves every round, the run keeps its bound, and blocks replay it."""
    config = parse_config({
        "game": {"name": "log", "m": 3}, "algorithm": "ml-dfa", "horizon": 40, "seed": 3,
        "experts": [{"kind": "iid-random"}, {"kind": "iid-random"}],
        "evaluators": [{"loss": loss} for loss in evaluators], "reality": {"kind": "iid"}})
    assert run_scenario(config).bound_ok
    assert_blocks_replay_rounds(config, block)


class _Tilted:
    """A callback expert: a point that moves with the last outcome."""

    def advise(self, step, past_outcomes):
        last = np.asarray(past_outcomes[-1]) if past_outcomes else np.full(3, 1 / 3)
        return 0.5 * last + 0.5 * np.array([0.2, 0.3, 0.5])


def test_simplex_callback_experts_play_blocks_of_one():
    config = parse_config({
        "game": {"name": "kl", "m": 3}, "algorithm": "simplex-dfa", "horizon": 20, "seed": 4,
        "experts": [{"kind": "callback", "name": "tilted"}, {"kind": "iid-random"}],
        "reality": {"kind": "dirichlet", "alpha": 2.0}})
    with mock.patch.dict(CALLBACK_REGISTRY, {"tilted": _Tilted()}):
        assert_blocks_replay_rounds(config, 1)


def test_ml_rounds_check_each_rounds_advice():
    """A block's advice is checked as ``ml_dfa_step`` checks a round's: a
    row off the simplex raises its error in its round."""
    log = default_proper_loss(builtin_game("log", 2), 1.0, 1.0)
    state = ml_dfa_start([EvaluatedExpert(log, 1.0, 1.0, 0.5)] * 2, 2)
    advice, outcomes = np.full((5, 2, 2), 0.5), np.zeros(5, dtype=int)
    advice[3, 1] = [0.7, 0.4]
    with pytest.raises(InvalidDistribution) as want:
        ml_dfa_step(state, advice[3], 0)
    with pytest.raises(InvalidDistribution) as got:
        extensions.ml_dfa_rounds(state, advice, outcomes[:-1], lambda _: outcomes[-1])
    assert str(got.value) == str(want.value)
    assert len(extensions.ml_dfa_rounds(state, advice[:3], outcomes[:2],
                                        lambda _: outcomes[2])[0]) == 3


class _Leaning:
    """A binary callback expert: leans towards the last outcome."""

    def advise(self, step, past_outcomes):
        return np.array([0.3 + 0.4 * past_outcomes[-1] if past_outcomes else 0.5])


def test_ml_callback_experts_play_blocks_of_one():
    config = parse_config({
        "game": {"name": "log", "m": 2}, "algorithm": "ml-dfa", "horizon": 20, "seed": 4,
        "experts": [{"kind": "callback", "name": "leaning"}, {"kind": "iid-random"}],
        "evaluators": [{"loss": "log"}, {"loss": "square", "eta": 2.0}],
        "reality": {"kind": "iid"}})
    with mock.patch.dict(CALLBACK_REGISTRY, {"leaning": _Leaning()}):
        assert_blocks_replay_rounds(config, 1)


def simplex_stall(seed):
    """A simplex-outcome brier run whose barycentre misses in some of its
    300 rounds (a vertex search there stalls in 1 to 4 at seeds 1-4)."""
    return parse_config({
        "game": {"name": "brier", "m": 3}, "algorithm": "simplex-dfa", "horizon": 300,
        "seed": seed, "experts": [{"kind": "iid-random"}, {"kind": "trailing-average"}],
        "reality": {"kind": "dirichlet", "alpha": 1.0}})


@pytest.mark.parametrize("seed", range(1, 5))
def test_simplex_stalls_take_the_aa_mix_fallback(seed):
    """A round whose barycentre misses takes AA's substituted mix, as
    ``dfa``'s rounds do, and the run keeps its bound."""
    assert run_scenario(simplex_stall(seed)).bound_ok


def test_simplex_blocks_replay_the_aa_mix_fallback():
    assert_blocks_replay_rounds(simplex_stall(1), BLOCK_ROUNDS)


@pytest.mark.parametrize("seed", range(1, 7))
def test_dfa_blocks_replay_the_aa_mix_fallback(seed):
    """Brier DFA at m = 3 whose barycentre misses in some rounds, which
    then take AA's substituted mix, across the edges of blocks of 7."""
    config = parse_config({
        "game": {"name": "brier", "m": 3}, "algorithm": "dfa", "horizon": 30, "seed": seed,
        "experts": [{"kind": "iid-random"}, {"kind": "trailing-average"}],
        "reality": {"kind": "iid", "probs": [0.2, 0.3, 0.5]}})
    assert_blocks_replay_rounds(config, 7)


@pytest.mark.parametrize("eta", [1.0, 0.5])
@pytest.mark.parametrize("seed", range(1, 4))
def test_hellinger_dfa_takes_aa_point_in_forecast_coordinates(seed, eta):
    """Hellinger's decisions are not its forecasts: AA's substituted mix
    ``d`` is served as the forecast ``pi`` proportional to ``sqrt(d)``,
    whose proper loss is ``d``'s loss, so every barycentre miss keeps q
    under target and the run keeps its bound (taking ``d`` itself as the
    forecast leaves q up to ~1e-2 over it within 600 rounds); a block
    batch serves each round with the bits of a block of one."""
    config = parse_config({
        "game": {"name": "hellinger", "m": 3}, "algorithm": "dfa", "eta": eta,
        "horizon": 600, "seed": seed,
        "experts": [{"kind": "constant", "value": [0.6, 0.3, 0.1]},
                    {"kind": "constant", "value": [0.1, 0.2, 0.7]},
                    {"kind": "trailing-average"}],
        "reality": {"kind": "iid", "probs": [0.5, 0.3, 0.2]}})
    assert run_scenario(config).bound_ok
    assert_blocks_replay_rounds(config, BLOCK_ROUNDS)


@pytest.mark.parametrize("block", [7, BLOCK_ROUNDS])
def test_dfa_blocks_replay_a_stall_past_the_fallback(block):
    """Brier DFA above its mixable eta: in round 23 neither AA's mix nor
    the simplex search keeps q under target, so SlackExceeded ends the
    run inside a block."""
    config = parse_config({
        "game": {"name": "brier", "m": 3}, "algorithm": "dfa", "eta": 1.3, "horizon": 150,
        "seed": 2, "experts": [{"kind": "iid-random"}, {"kind": "trailing-average"},
                               {"kind": "constant", "value": [0.2, 0.3, 0.5]}],
        "reality": {"kind": "iid"}})
    with pytest.raises(SlackExceeded) as err:
        reference_run(config)
    assert err.value.step == 23
    assert_blocks_replay_rounds(config, block)


@pytest.mark.parametrize("sequence", [[0, 0, 1], [1, 1, 0], [0, 1]])
def test_dfa_blocks_keep_a_weight_dead(sequence):
    """Log experts certain of 1 and of 0: the first outcome kills one, and
    the forecast follows the other to a certain 0 or 1, so a later outcome
    gives the dead expert an infinite factor, which must leave its weight
    zero inside a block as across rounds."""
    config = parse_config({
        "game": {"name": "log", "m": 2}, "algorithm": "dfa", "horizon": 20, "seed": 1,
        "prior": [0.5, 0.5, 0.0], "reality": {"kind": "fixed", "sequence": sequence},
        "experts": [{"kind": "constant", "value": 1.0}, {"kind": "constant", "value": 0.0},
                    {"kind": "trailing-average"}]})
    for block in (7, BLOCK_ROUNDS):
        assert_blocks_replay_rounds(config, block)


def round_advice(config, at):
    """The advice losses of round ``at`` of a fixed-advice run, (k, m); on
    simplex outcomes, the losses at the vertices; for evaluators, the first
    evaluator's losses of the base experts' distributions (the advice of
    its group)."""
    expert_rngs, reality_rng = _spawn_rngs(config.seed, len(config.experts))
    reality = build_reality(config.reality, config.m, reality_rng)
    game = SIMPLEX_GAMES[config.game](config.m).base if config.algorithm == "simplex-dfa" \
        else builtin_game(config.game, config.m)
    experts = [build_standard_expert(game, s, r) for s, r in zip(config.experts, expert_rngs)]
    outcomes = []
    for n in range(at + 1):
        decisions = [s.advise(n, outcomes) for s in experts]
        outcomes.append(reality.pick(n, None))
    if config.algorithm == "ml-dfa":
        d = np.stack(decisions)
        return evaluated_experts(config)[0].proper(np.concatenate([1.0 - d, d], axis=1))
    return np.asarray(game.loss(np.stack(decisions)), dtype=float)


def poisoned_log_mix(target, raises=None, by=10.0):
    """``log_mix`` whose result for the advice ``target`` (one round's,
    found in a block too) is raised by ``by``: by 10, the expectation bound
    fails at ``p = 0`` and that round's solve raises
    :class:`ContractViolation`, as a NaN does at the root's endpoints; or
    that raises ``raises`` there."""
    log_mix = defensive.log_mix

    def poisoned(lwn, eta, A):
        hit = np.all(A == target, axis=(-2, -1))
        if raises is not None and np.any(hit):
            raise raises
        return log_mix(lwn, eta, A) + np.where(hit, by, 0.0)[..., None]

    return mock.patch.object(defensive, "log_mix", poisoned)


@pytest.mark.parametrize("at", [0, 100, 255, 256, 299])
def test_dfa_error_in_the_chain_comes_at_its_round(at):
    """A ContractViolation in one round's solve ends a blocked run at that
    round, after the rounds before it, as round by round."""
    config = parse_config({
        "game": {"name": "log", "m": 2}, "algorithm": "dfa", "horizon": 300, "seed": 3,
        "experts": [{"kind": "iid-random"}, {"kind": "trailing-average"}],
        "reality": {"kind": "iid"}})

    def run(play, horizon):
        with poisoned_log_mix(round_advice(config, at)):
            return play(replace(config, horizon=horizon))

    with pytest.raises(ContractViolation, match="endpoint") as want:
        run(reference_run, config.horizon)
    assert want.value.step == at
    for horizon in (at + 1, config.horizon):
        with pytest.raises(ContractViolation, match=str(want.value)):
            run(blocked_run, horizon)
    assert run(blocked_run, at) == run(reference_run, at)


@pytest.mark.parametrize("at", [0, 100, 255, 256])
def test_ml_error_in_the_chain_comes_at_its_round(at):
    """An evaluator round whose q is NaN fails the root's endpoint
    analysis: the ContractViolation ends a blocked run at that round, after
    the rounds before it, as round by round."""
    config = parse_config({
        "game": {"name": "log", "m": 2}, "algorithm": "ml-dfa", "horizon": 300, "seed": 3,
        "experts": [{"kind": "iid-random"}, {"kind": "trailing-average"}],
        "evaluators": [{"loss": "log"}, {"loss": "square", "eta": 2.0}],
        "reality": {"kind": "iid"}})

    def run(play, horizon):
        with poisoned_log_mix(round_advice(config, at), by=np.nan):
            return play(replace(config, horizon=horizon))

    with pytest.raises(ContractViolation, match="endpoint") as want:
        run(reference_run, config.horizon)
    assert want.value.step == at
    for horizon in (at + 1, config.horizon):
        with pytest.raises(ContractViolation) as got:
            run(blocked_run, horizon)
        assert str(got.value) == str(want.value)
    assert run(blocked_run, at) == run(reference_run, at)


@pytest.mark.parametrize("at", [0, 100, 255, 256])
def test_simplex_error_comes_at_its_round(at):
    """A simplex round whose q is raised by e^10 misses the barycentre, AA's
    mix misses the target too and its vertex search stalls: SlackExceeded
    ends a blocked run at that round, after the rounds before it, with the
    message of the run round by round."""
    config = parse_config({
        "game": {"name": "brier", "m": 3}, "algorithm": "simplex-dfa", "horizon": 300,
        "seed": 3, "prior": [0.2, 0.8], "reality": {"kind": "dirichlet"},
        "experts": [{"kind": "iid-random"}, {"kind": "constant", "value": [1 / 3] * 3}]})

    def run(play, horizon):
        with poisoned_log_mix(round_advice(config, at)):
            return play(replace(config, horizon=horizon))

    with pytest.raises(SlackExceeded, match="stalled") as want:
        run(reference_run, config.horizon)
    assert want.value.step == at
    for horizon in (at + 1, config.horizon):
        with pytest.raises(SlackExceeded) as got:
            run(blocked_run, horizon)
        assert str(got.value) == str(want.value)
    assert run(blocked_run, at) == run(reference_run, at)


def test_dfa_blocks_substitute_before_a_later_chain_error():
    """A round whose substitution fails comes before a chain error of any
    type in a later round of the block, as round by round."""
    config = parse_config({
        "game": {"name": "log", "m": 2}, "algorithm": "dfa", "horizon": 20, "seed": 3,
        "experts": [{"kind": "iid-random"}, {"kind": "trailing-average"}],
        "reality": {"kind": "iid"}})
    substitute = aggregating.substitute

    def failing_substitute(state, forecasts, tol):
        if len(forecasts) > 3:
            raise SubstitutionFailure("round 3")
        return substitute(state, forecasts, tol)

    with poisoned_log_mix(round_advice(config, 10), ValueError("round 10")):
        with pytest.raises(ValueError, match="round 10$"):
            blocked_run(config)
        with mock.patch.object(aggregating, "substitute", failing_substitute), \
                pytest.raises(SubstitutionFailure, match="round 3$"):
            blocked_run(config)


#: runs at the edges of the interval solve: name -> (config, the edge seen
#: in some row's endpoints ``lo, hi``)
SOLVER_EDGES = {
    # all weight on a log expert certain of 1: q(1, 0) holds (hi = 1), the
    # forecast is p = 1, and each outcome 0 is a round whose lambda is
    # infinite there, inside the block
    "certain-of-one": (
        {"experts": [{"kind": "constant", "value": 1.0}, {"kind": "iid-random"}],
         "prior": [1.0, 0.0], "reality": {"kind": "fixed", "sequence": [1, 1, 0, 1, 0, 0, 1]}},
        lambda lo, hi: np.any(hi == 1.0) and np.any(0.5 * (lo + hi) == 1.0)),
    "certain-of-zero": (
        {"experts": [{"kind": "constant", "value": 0.0}, {"kind": "trailing-average"}],
         "prior": [1.0, 0.0], "reality": {"kind": "fixed", "sequence": [0, 1, 1, 0]}},
        lambda lo, hi: np.any(lo == 0.0) and np.any(0.5 * (lo + hi) == 0.0)),
    # one log expert: the admissible interval is its point, and the two
    # crossings pass each other
    "collapsed": (
        {"experts": [{"kind": "constant", "value": 0.3}], "reality": {"kind": "iid"}},
        lambda lo, hi: np.any((lo == hi) & (lo > 0.0) & (hi < 1.0))),
}


@pytest.mark.parametrize("name", sorted(SOLVER_EDGES))
def test_dfa_blocks_replay_the_solver_edges(name):
    """Each edge, in blocks of 7 and of ``BLOCK_ROUNDS`` rounds, past the
    first chunk of the encoded trajectory."""
    spec, seen = SOLVER_EDGES[name]
    config = parse_config({"game": {"name": "log", "m": 2}, "algorithm": "dfa",
                           "horizon": BLOCK_ROUNDS + 4, "seed": 5, **spec})
    intervals, endpoints = defensive.admissible_intervals, []

    def recorded(*args):
        endpoints.append(intervals(*args))
        return endpoints[-1]

    with mock.patch.object(defensive, "admissible_intervals", recorded):
        result = run_scenario(config)
    lo, hi = (np.concatenate(col) for col in zip(*endpoints))
    assert seen(lo, hi)
    if name.startswith("certain"):  # an infinite lambda inside the block
        assert any(np.isinf(r.learner_loss) for r in result.records[1:-1])
        # and infinities on both sides of the first chunk's end
        edge = result.columns["cumulative_learner_loss"][BLOCK_ROUNDS - 1:BLOCK_ROUNDS + 1]
        assert np.isinf(edge).all()
    want = reference_run(config)
    for block in (7, BLOCK_ROUNDS):
        assert_blocks_replay_rounds(config, block, want)


def test_dfa_blocks_replay_rounds_the_hint_misleads():
    """One square expert at 0: ``q(p, 1) = exp(eta p^2)`` rounds to 1.0
    for ``p`` below ~1e-8, so the real crossing is not AA's feasible
    interval's end, and every row of every block is bisected again with
    no hint, with the same bytes."""
    config = parse_config({
        "game": {"name": "square", "m": 2}, "algorithm": "dfa", "eta": 2.0, "horizon": 300,
        "seed": 5, "experts": [{"kind": "constant", "value": 0.0}],
        "reality": {"kind": "iid"}})
    walked, bisected = defensive._walked_intervals, defensive._bisected_intervals
    hinted, again = [], []

    def walked_rows(q, C, levels, hint):
        hinted.append(len(hint))
        return walked(q, C, levels, hint)

    def bisected_rows(q, C, levels, rows):
        again.append(rows)
        return bisected(q, C, levels, rows)

    with mock.patch.object(defensive, "_walked_intervals", walked_rows), \
            mock.patch.object(defensive, "_bisected_intervals", bisected_rows):
        run_scenario(config)
    assert hinted == again == [BLOCK_ROUNDS, config.horizon - BLOCK_ROUNDS]
    assert_blocks_replay_rounds(config, BLOCK_ROUNDS)


def test_forecast_binary_blocks_cost_few_q_calls():
    """A block of 256 ``dfa-log-k10`` rounds (the ``forecast-binary``
    workload) makes at most 2 q calls (one holds every midpoint that the
    walk against AA's feasible interval visits, one the forecasts), and
    passes the proper loss no more rows than the same rounds played one at
    a time."""
    config = builtin_scenario("dfa-log-k10", horizon=2 * BLOCK_ROUNDS)
    fixed_advice_q, proper_call = defensive.fixed_advice_q, ProperLoss.__call__
    calls, rows = [], []

    def counting_q(*args):
        q = fixed_advice_q(*args)

        def counted(P, *block_rows):
            calls.append(len(P))
            return q(P, *block_rows)
        return counted

    def counting_proper(self, P):
        rows.append(len(P) if np.ndim(P) == 2 else 1)
        return proper_call(self, P)

    def work(play):
        calls.clear()
        rows.clear()
        with mock.patch.object(defensive, "fixed_advice_q", counting_q), \
                mock.patch.object(ProperLoss, "__call__", counting_proper):
            out = play(config)
        return out, len(calls), sum(rows)

    (blocked, q_calls, blocked_rows), (want, _, round_rows) = work(blocked_run), \
        work(reference_run)
    assert blocked == want
    assert q_calls <= 2 * 2
    assert blocked_rows <= round_rows


def test_evaluator_blocks_cost_few_proper_calls():
    """``ml-log-square-k4`` enters 4 base experts under 2 evaluators: 8
    experts in 2 groups.  A round's root reads its first batch, every
    dyadic node of the first ten levels, from the groups' tables (a q call
    with no proper-loss call), then makes about one real q call, at most
    1.5 a round on average where six levels a call took 6, each with one
    proper-loss call per group; the forecast is scored with one call per
    group.  A block scores its advice with one call per group, and the
    session builds each group's table once, with one call per group."""
    config = builtin_scenario("ml-log-square-k4", horizon=2 * BLOCK_ROUNDS)
    fixed_advice_q, proper_call = extensions.fixed_advice_q, ProperLoss.__call__
    table_calls, q_calls, proper_calls = [0], [0], [0]

    def counting_q(*args):
        q = fixed_advice_q(*args)

        def counted(P):
            if P is defensive._FIRST_FORECASTS:
                table_calls[0] += 1
            else:
                q_calls[0] += 1
            return q(P)
        return counted

    def counting_proper(self, P):
        proper_calls[0] += 1
        return proper_call(self, P)

    def work(play):
        table_calls[0] = q_calls[0] = proper_calls[0] = 0
        with mock.patch.object(extensions, "fixed_advice_q", counting_q), \
                mock.patch.object(ProperLoss, "__call__", counting_proper):
            out = play(config)
        return out, table_calls[0], q_calls[0], proper_calls[0]

    setup = work(lambda c: blocked_run(replace(c, horizon=0)))[3]  # the contract check
    blocked, tables, real, proper = work(blocked_run)
    n, blocks, groups = config.horizon, 2, 2
    assert blocked == reference_run(config)
    assert tables == n and n <= real <= 1.5 * n
    assert proper - setup == groups * (1 + blocks + real + n)


def test_rounds_of_one_row_take_the_scalar_interval():
    """All prior weight on a log expert certain of 1, and Reality always 0:
    every round's lambda is infinite on its outcome and AA's path loses the
    expert after it, so each batch is one row, which the scalar
    ``admissible_interval`` solves (no batched replay), with the same
    bytes."""
    config = parse_config({
        "game": {"name": "log", "m": 2}, "algorithm": "dfa", "horizon": BLOCK_ROUNDS,
        "seed": 1, "prior": [1.0, 0.0], "reality": {"kind": "fixed", "sequence": [0]},
        "experts": [{"kind": "constant", "value": 1.0}, {"kind": "iid-random"}]})
    replay, replays = defensive._replay, []

    def counting_replay(*args):
        replays.append(len(args[0]))
        return replay(*args)

    with mock.patch.object(defensive, "_replay", counting_replay):
        blocked = blocked_run(config)
    assert replays == []
    assert blocked == reference_run(config)


def test_dead_and_unrealizable_runs_fail_at_their_round():
    dead = parse_config({
        "game": {"name": "log", "m": 2}, "algorithm": "aa", "horizon": 300, "seed": 1,
        "prior": [1.0, 0.0], "experts": [{"kind": "constant", "value": 1.0},
                                         {"kind": "iid-random"}],
        "reality": {"kind": "fixed", "sequence": [1] * 99 + [0]}})
    unrealizable = parse_config({
        "game": {"name": "absolute", "m": 2}, "algorithm": "aa", "horizon": 300, "seed": 1,
        "experts": [{"kind": "constant", "value": 0.0}, {"kind": "constant", "value": 1.0}],
        "reality": {"kind": "iid"}})
    for config, error, step in ((dead, AllExpertsDead, 100), (unrealizable, SubstitutionFailure, 0)):
        assert block_rounds(config) == BLOCK_ROUNDS
        for horizon in (step + 1, config.horizon):
            with pytest.raises(error):
                blocked_run(replace(config, horizon=horizon))
        assert blocked_run(replace(config, horizon=step)) == \
            reference_run(replace(config, horizon=step))


#: binary games for adversarial Reality: name -> (c, eta), each realizable
ADVERSARIAL_GAMES = {"log": (1.0, 1.0), "square": (1.0, 2.0),
                     "absolute": (realizability_constant("absolute", 1.0), 1.0)}


@pytest.mark.parametrize("name, algorithm", [
    *((name, algorithm) for name in sorted(ADVERSARIAL_GAMES) for algorithm in ("aa", "dfa")),
    ("log", "sg-aa"), ("log", "sg-dfa")])
def test_adversarial_rounds_play_blocks_of_one(name, algorithm):
    """Reality that picks from Learner's loss vector: every round is a block
    of one, with the bytes of the per-round oracle (second-guessing: a
    contrarian and a constant 0.4), also when the trajectory is encoded in
    chunks of ``BLOCK_ROUNDS`` rows over those blocks."""
    c, eta = ADVERSARIAL_GAMES[name]
    experts = [{"kind": "sg-contrarian"}, {"kind": "sg-constant", "value": 0.4}] \
        if algorithm.startswith("sg-") else \
        [{"kind": "constant", "value": 0.3}, {"kind": "iid-random"}, {"kind": "trailing-average"}]
    config = parse_config({
        "game": {"name": name, "m": 2}, "algorithm": algorithm, "c": c, "eta": eta,
        "horizon": BLOCK_ROUNDS + 4, "seed": 7, "reality": {"kind": "adversarial"},
        "experts": experts})
    want = reference_run(config)
    assert_blocks_replay_rounds(config, 1, want)
    assert blocked_run(config) == want


@pytest.mark.parametrize("name, values, error, step", [
    # the only expert is certain of 1, so Reality's 0 leaves no weight
    ("log", [1.0], AllExpertsDead, 1),
    # c = 1 is below absolute loss's realizability constant
    ("absolute", [0.0, 1.0], SubstitutionFailure, 0)])
def test_adversarial_errors_come_at_their_round(name, values, error, step):
    config = parse_config({
        "game": {"name": name, "m": 2}, "algorithm": "aa", "horizon": 5, "seed": 1,
        "reality": {"kind": "adversarial"},
        "experts": [{"kind": "constant", "value": v} for v in values]})
    with pytest.raises(error) as err:
        reference_run(config)
    assert err.value.step == step
    assert_blocks_replay_rounds(config, 1)


@pytest.mark.parametrize("algorithm", ["sg-aa", "sg-dfa"])
@pytest.mark.parametrize("reality", [{"kind": "iid"}, {"kind": "fixed", "sequence": [0, 1, 1]}])
def test_second_guessing_blocks_replay_rounds(algorithm, reality):
    """A contrarian and a constant 0.4, whose fixed point and root lie away
    from 1/2, past the edge of a block of ``BLOCK_ROUNDS``: blocks of 1, 7
    and ``BLOCK_ROUNDS`` rounds give the bytes of the per-round oracle."""
    config = parse_config({
        "game": {"name": "log", "m": 2}, "algorithm": algorithm, "horizon": BLOCK_ROUNDS + 4,
        "seed": 5, "experts": [{"kind": "sg-contrarian"}, {"kind": "sg-constant", "value": 0.4}],
        "reality": reality})
    want = reference_run(config)
    steps = [json.loads(line) for line in want[0][1:]]
    assert any(abs(r["learner_decision"][0] - 0.5) > 0.01 for r in steps) \
        if algorithm == "sg-aa" else any(abs(r["learner_pi"][1] - 0.5) > 0.01 for r in steps)
    for block in (1, 7, BLOCK_ROUNDS):
        assert_blocks_replay_rounds(config, block, want)


@pytest.mark.parametrize("block", [1, 7, BLOCK_ROUNDS])
def test_second_guessing_error_comes_at_its_round(block):
    """A lone expert certain of 1 under log loss: Reality's 0 leaves no
    weight, and the next round raises inside its block, as round by
    round."""
    config = parse_config({
        "game": {"name": "log", "m": 2}, "algorithm": "sg-aa", "horizon": 12, "seed": 1,
        "experts": [{"kind": "sg-constant", "value": 1.0}],
        "reality": {"kind": "fixed", "sequence": [1, 1, 1, 0]}})
    with pytest.raises(AllExpertsDead) as err:
        reference_run(config)
    assert err.value.step == 4
    assert_blocks_replay_rounds(config, block)


@pytest.mark.parametrize("block", [1, 7, BLOCK_ROUNDS])
def test_second_guessing_below_the_constant_raises_in_round_0(block):
    """``sg-aa`` on absolute at ``c = 1``, below its realizability
    constant: the hull retraction's point is no superprediction, so the
    projection raises in round 0 in every block size, rather than the run
    ending with its bound broken."""
    config = parse_config({
        "game": {"name": "absolute", "m": 2}, "algorithm": "sg-aa", "c": 1.0, "horizon": 12,
        "seed": 3, "experts": [{"kind": "sg-contrarian"}, {"kind": "sg-constant", "value": 0.4}],
        "reality": {"kind": "iid"}})
    with pytest.raises(NotRealizable) as err:
        reference_run(config)
    assert err.value.step == 0
    assert_blocks_replay_rounds(config, block)


def test_rounds_that_look_at_learner_play_one_at_a_time():
    base = {"game": {"name": "log", "m": 2}, "horizon": 5, "seed": 1,
            "experts": [{"kind": "iid-random"}], "reality": {"kind": "iid"}}
    for algorithm in ("aa", "dfa"):
        fixed = base | {"algorithm": algorithm}
        assert block_rounds(parse_config(fixed)) == BLOCK_ROUNDS
        for change in ({"reality": {"kind": "adversarial"}},
                       {"experts": [{"kind": "callback", "name": "x"}]}):
            assert block_rounds(parse_config(fixed | change)) == 1
    simplex = base | {"algorithm": "simplex-dfa", "game": {"name": "brier", "m": 3},
                      "reality": {"kind": "dirichlet"}}
    assert block_rounds(parse_config(simplex)) == BLOCK_ROUNDS
    assert block_rounds(parse_config(
        simplex | {"experts": [{"kind": "callback", "name": "x"}]})) == 1
    evaluators = base | {"algorithm": "ml-dfa", "evaluators": [{"loss": "log"}]}
    assert block_rounds(parse_config(evaluators)) == BLOCK_ROUNDS
    assert block_rounds(parse_config(
        evaluators | {"experts": [{"kind": "callback", "name": "x"}]})) == 1
    for algorithm in ("sg-aa", "sg-dfa"):
        second_guess = base | {"algorithm": algorithm, "experts": [{"kind": "sg-identity"}]}
        assert block_rounds(parse_config(second_guess)) == BLOCK_ROUNDS
        for change in ({"reality": {"kind": "adversarial"}},
                       {"experts": [{"kind": "callback", "name": "x"}]}):
            assert block_rounds(parse_config(second_guess | change)) == 1


# ---------------------------------------------------------------------------
# Block draws


def twin_rngs(seed: int):
    return [np.random.Generator(np.random.PCG64(seed)) for _ in range(2)]


def test_iid_random_block_is_the_single_round_draws():
    for game in (builtin_game("log", 2), builtin_game("log", 3)):  # random, dirichlet
        a, b = twin_rngs(3)
        block = IidRandomExpert(game, a).advise(0, [], size=64)
        one = IidRandomExpert(game, b)
        assert block.shape == (64, game.decision_dim)
        assert np.array_equal(block, np.stack([one.advise(n, []) for n in range(64)]))


def test_iid_reality_block_is_the_single_round_draws():
    for probs in ([0.5, 0.5], [0.0, 1.0], [0.2, 0.0, 0.8], [0.1, 0.3, 0.6]):
        a, b = twin_rngs(5)
        block = IidReality(probs, a).pick(0, None, size=64)
        one = IidReality(probs, b)
        assert block.tolist() == [one.pick(n, None) for n in range(64)]


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 5.0])
def test_dirichlet_reality_block_is_the_single_round_draws(alpha):
    a, b = twin_rngs(11)
    block = DirichletReality(alpha, 3, a).pick(0, None, size=64)
    one = DirichletReality(alpha, 3, b)
    assert block.shape == (64, 3)
    assert np.array_equal(block, np.stack([one.pick(n, None) for n in range(64)]))


def test_fixed_reality_block_is_the_single_round_picks():
    reality = FixedReality([2, 0, 1, 1])
    assert reality.pick(3, None, size=9).tolist() == [reality.pick(n, None) for n in range(3, 12)]


def reference_trailing_average(game, smoothing, outcomes):
    """The round-by-round update: each outcome added to the counts in turn."""
    counts, rows = np.full(game.m, float(smoothing)), []
    for n in range(len(outcomes)):
        if n and np.ndim(outcomes[n - 1]) == 0:
            counts[int(outcomes[n - 1])] += 1.0
        elif n:
            counts += outcomes[n - 1]
        freq = counts / counts.sum()
        rows.append(freq[1:] if game.decision_kind == "box" else freq.copy())
    return np.stack(rows)


def test_trailing_average_block_is_the_round_by_round_counts():
    rng = np.random.default_rng(0)
    for game, outcomes in ((builtin_game("log", 2), rng.integers(0, 2, 200).tolist()),
                           (builtin_game("brier", 3), list(rng.dirichlet(np.ones(3), 200)))):
        one, blocks = TrailingAverageExpert(game, 0.1), TrailingAverageExpert(game, 0.1)
        want = reference_trailing_average(game, 0.1, outcomes)
        assert np.array_equal(np.stack([one.advise(n, outcomes[:n]) for n in range(200)]), want)
        got, n = [], 0
        for size in (1, 5, 64, 1, 100, 29):
            got.append(blocks.advise(n, outcomes[:n + size - 1], size=size))
            n += size
        assert np.array_equal(np.concatenate(got), want)
