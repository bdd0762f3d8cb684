"""Property tests for the update every protocol shares: the extended-real
table of ``pair_exponent``, the log-sum-exp fast path, the grouped
fixed-advice q, the all-experts-dead error, the guarantee margins of
sessions run on random advice under priors that include zeros, the
binary AA/DFA agreement on random advice with infinite entries, and the
AA/DFA agreement with three outcomes where AA's point serves a round."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expertmix import defensive
from expertmix.aggregating import aa_mix, aa_start, aa_step
from expertmix.core import Session, log_sum_exp, pair_exponent, start_session
from expertmix.defensive import default_proper_loss, dfa_start, dfa_step, fixed_advice_q
from expertmix.errors import AllExpertsDead, ExpertmixError, SubstitutionFailure
from expertmix.harness import runner
from expertmix.harness.config import parse_config
from expertmix.harness.runner import run_scenario
from expertmix.harness.scenarios import builtin_scenario
from expertmix.losses import builtin_game, realizability_constant
from expertmix.secondguess import SecondGuessExpert, sg_aa_step
from oracles import advance_reference

INF = np.inf

losses = st.one_of(st.just(INF), st.floats(0.0, 50.0))
cs = st.floats(1.0, 5.0)
etas = st.floats(0.1, 5.0)


def table(lam: float, g: float, c: float, eta: float) -> float:
    if np.isinf(lam) and np.isinf(g):
        return 0.0
    if np.isinf(g):
        return -INF
    if np.isinf(lam):
        return INF
    return eta * (lam / c - g)


@given(lam=losses, g=losses, c=cs, eta=etas)
def test_pair_exponent_scalar_constants(lam, g, c, eta):
    assert float(pair_exponent(np.array(lam), np.array(g), c, eta)) == table(lam, g, c, eta)


@given(rows=st.lists(st.tuples(losses, losses, cs, etas), min_size=1, max_size=8))
def test_pair_exponent_per_expert_constants(rows):
    lam, g, c, eta = (np.array(col) for col in zip(*rows))
    assert pair_exponent(lam, g, c, eta).tolist() == [table(*row) for row in rows]


@given(lam=losses, rows=st.lists(st.tuples(losses, cs, etas), min_size=1, max_size=8))
def test_pair_exponent_broadcasts_one_learner_term(lam, rows):
    g, c, eta = (np.array(col) for col in zip(*rows))
    assert pair_exponent(lam, g, c, eta).tolist() == \
        [table(lam, *row) for row in rows]


@given(st.lists(st.one_of(st.just(-INF), st.floats(-700.0, 700.0)), min_size=1, max_size=40))
def test_log_sum_exp_fast_path_matches_general_path(xs):
    a = np.array(xs)
    # a column reduced along axis 0 takes the general path
    assert log_sum_exp(a) == float(log_sum_exp(a[:, None], axis=0)[0])


GAMES = {
    "log": (1.0, 1.0),
    "square": (1.0, 2.0),
    "absolute": (realizability_constant("absolute", 1.0), 1.0),
}

priors = st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                  min_size=2, max_size=5).filter(lambda xs: sum(xs) > 0)


@settings(max_examples=30, deadline=None)
@given(weights=priors, name=st.sampled_from(sorted(GAMES)),
       seed=st.integers(0, 2**32 - 1))
def test_margins_stay_nonpositive_with_zero_priors(weights, name, seed):
    game = builtin_game(name, 2)
    c, eta = GAMES[name]
    prior = np.array(weights) / sum(weights)
    mix = aa_start(game, eta=eta, c=c, prior=prior)
    forecast = dfa_start(game, eta=eta, c=c, prior=prior)
    rng = np.random.default_rng(seed)
    for _ in range(25):
        advice = np.stack([game.loss_vector([p]) for p in rng.random(len(prior))])
        w = int(rng.integers(0, 2))
        _, mix = aa_step(mix, advice, w)
        _, forecast, _ = dfa_step(forecast, advice, w)
        assert np.all(mix.bound_margins() <= 1e-7)
        assert np.all(forecast.bound_margins() <= 1e-7)
    # a zero-prior expert carries no guarantee, so its margin is -inf
    assert np.all(np.isneginf(forecast.bound_margins()[prior == 0]))


@st.composite
def binary_runs(draw):
    """A mixable binary game at c = 1, a prior with zeros, and rounds of
    (advice decisions, outcome); log advice at decision 0 or 1 has an
    infinite entry."""
    name = draw(st.sampled_from(["log", "square"]))
    weights = draw(priors)
    decisions = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                         min_size=len(weights), max_size=len(weights))
    rounds = draw(st.lists(st.tuples(decisions, st.integers(0, 1)),
                           min_size=1, max_size=30))
    return name, weights, rounds


@settings(max_examples=60, deadline=None)
@given(run=binary_runs())
def test_aa_and_dfa_predict_alike_on_random_advice(run):
    name, weights, rounds = run
    game = builtin_game(name, 2)
    eta = GAMES[name][1]
    prior = np.array(weights) / sum(weights)
    mix = aa_start(game, eta=eta, prior=prior)
    forecast = dfa_start(game, eta=eta, prior=prior)
    for decisions, w in rounds:
        advice = np.stack([game.loss_vector([p]) for p in decisions])
        if mix.log_value == -INF:
            # every weighted expert is dead.  DFA's own session kept its
            # weights (its forecast gave the outcome no mass, so the
            # infinite losses cancelled); on the same weights it raises too
            with pytest.raises(AllExpertsDead):
                aa_step(mix, advice, w)
            with pytest.raises(AllExpertsDead):
                dfa_step(replace(forecast, log_weights=mix.log_weights,
                                 log_value=None), advice, w)
            return
        # AA's log mix gives some outcome a probability in (0, 1e-8)
        g = aa_mix(mix, advice)
        if name == "log" and np.any(np.isfinite(g) & (g > np.log(1e8))):
            return  # where log_mix can round a loss of ~1e-17 away (ROADMAP item 15)
        (aa, mix), (dfa, forecast, _) = aa_step(mix, advice, w), dfa_step(forecast, advice, w)
        assert abs(float(aa[0]) - float(dfa[0])) <= 1e-15


@st.composite
def simplex_runs(draw):
    """A DFA run with three outcomes at c = 1 under the game's proper loss:
    constant experts (log and kl ones at a vertex lose inf), iid-random
    ones, whose advice misses the barycentre, and trailing averages."""
    experts = draw(st.lists(st.one_of(
        st.sampled_from([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]).map(
            lambda v: {"kind": "constant", "value": v}),
        st.just({"kind": "iid-random"}), st.just({"kind": "trailing-average"})),
        min_size=1, max_size=4))
    weights = st.lists(st.sampled_from([0, 1, 2, 5]), min_size=len(experts),
                       max_size=len(experts)).filter(any)
    return parse_config({
        "game": {"name": draw(st.sampled_from(["brier", "kl", "log", "hellinger"])), "m": 3},
        "algorithm": "dfa", "eta": draw(st.sampled_from([0.5, 1.0])), "experts": experts,
        "prior": draw(st.one_of(st.just("uniform"),
                                weights.map(lambda ws: [w / sum(ws) for w in ws]))),
        "reality": draw(st.one_of(st.just({"kind": "iid"}),
                                  st.just({"kind": "iid", "probs": [0.5, 0.3, 0.2]}))),
        "horizon": draw(st.integers(1, 300)), "seed": draw(st.integers(0, 2 ** 32))})


@settings(max_examples=40, deadline=None)
@given(config=simplex_runs())
def test_aa_and_dfa_predict_alike_with_three_outcomes(config):
    """Every round that misses the barycentre takes AA's point, so the
    vertex search never runs, and there DFA's decision is AA's up to
    rounding (the largest gap seen is 3.3e-16)."""
    game = builtin_game(config.game, 3)
    proper = default_proper_loss(game, 1.0, config.eta)
    centre = game.substitution(proper(np.full((1, 3), 1.0 / 3.0)))[0]
    search = mock.Mock(side_effect=AssertionError("the vertex search ran"))
    while True:
        try:
            with mock.patch.object(defensive, "dfa_solve_simplex", search):
                forecast = run_scenario(config)
            mix = run_scenario(replace(config, algorithm="aa"))
            break
        except ExpertmixError:  # a run that fails (every expert dead, say)
            config = replace(config, horizon=config.horizon // 2)  # is checked before
    dfa = np.array([rec.learner_decision for rec in forecast.records]).reshape(-1, 3)
    aa = np.array([rec.learner_decision for rec in mix.records]).reshape(-1, 3)
    served = ~np.all(dfa == centre, axis=1)  # by AA's point
    assert np.all(np.abs(dfa - aa)[served] <= 1e-6)


@settings(max_examples=60, deadline=None)
@given(run=binary_runs(), absolute=st.booleans())
def test_dfa_posterior_is_aa_posterior(run, absolute):
    """With scalar (c, eta) the learner term adds the same amount to every
    expert's log weight, so a forecasting session's posterior is AA's, bit
    for bit (``-inf`` included), in every round of a fixed-advice run while
    AA's is defined."""
    name, weights, rounds = run
    if absolute:
        name = "absolute"
    game = builtin_game(name, 2)
    c, eta = GAMES[name]
    prior = np.array(weights) / sum(weights)
    mix = aa_start(game, eta=eta, c=c, prior=prior)
    forecast = dfa_start(game, eta=eta, c=c, prior=prior)
    for decisions, w in rounds:
        assert np.array_equal(forecast.log_weights, mix.log_weights)
        if mix.log_value == -INF:
            return  # AA lost every expert: its posterior is undefined
        assert np.array_equal(forecast.log_posterior(), mix.log_posterior())
        advice = np.stack([game.loss_vector([p]) for p in decisions])
        _, forecast, _ = dfa_step(forecast, advice, w)
        if np.isinf(forecast.cumulative_loss):
            return  # its forecast gave w no mass: each weight infinite there is kept
        mix = advance_reference(mix, 0.0, 0.0, advice[:, w])


@pytest.mark.parametrize("fields", [{"prior": [np.nan, 1.0]}, {"c": np.nan}, {"c": INF},
                                    {"eta": np.nan}, {"eta": INF}])
def test_start_session_refuses_nan_and_infinite_inputs(fields):
    with pytest.raises(ValueError):
        start_session(builtin_game("log", 2), **{"prior": [0.5, 0.5]} | fields)


#: DFA games with the c at which they are realizable and their etas
NONINCREASE_GAMES = [("log", 2, 1.0, [0.5, 1.0]), ("square", 2, 1.0, [0.5, 1.0, 2.0]),
                     ("absolute", 2, realizability_constant("absolute", 1.0), [1.0]),
                     ("log", 3, 1.0, [0.5, 1.0]), ("brier", 3, 1.0, [0.5, 1.0])]


@st.composite
def dfa_configs(draw):
    """A DFA run played in blocks (``iid`` or ``fixed`` Reality) or round
    by round (adversarial Reality, or blocks of one round)."""
    name, m, c, etas = draw(st.sampled_from(NONINCREASE_GAMES))
    values = ([0.0, 0.3, 0.5, 1.0] if m == 2
              else [[1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [0.0, 0.5, 0.5]])
    expert = st.one_of(st.sampled_from(values).map(lambda v: {"kind": "constant", "value": v}),
                       st.just({"kind": "iid-random"}), st.just({"kind": "trailing-average"}))
    experts = draw(st.lists(expert, min_size=1, max_size=4))
    weights = st.lists(st.sampled_from([0, 1, 2, 5]), min_size=len(experts),
                       max_size=len(experts)).filter(any)
    reality = draw(st.one_of(
        st.just({"kind": "adversarial"}),
        st.lists(st.integers(0, m - 1), min_size=1, max_size=6).map(
            lambda seq: {"kind": "fixed", "sequence": seq}),
        st.just({"kind": "iid"})))
    return parse_config({
        "game": {"name": name, "m": m}, "algorithm": "dfa", "c": c,
        "eta": draw(st.sampled_from(etas)), "experts": experts,
        "prior": draw(st.one_of(st.just("uniform"),
                                weights.map(lambda ws: [w / sum(ws) for w in ws]))),
        "reality": reality, "horizon": draw(st.integers(1, 300 if m == 2 else 40)),
        "seed": draw(st.integers(0, 2 ** 32))})


def assert_never_increases(config):
    """Each step of the log supermartingale is at most ``ln(1 + slack_n)``."""
    game = builtin_game(config.game, config.m)
    prev = dfa_start(game, eta=config.eta, c=config.c, prior=config.prior,
                     n_experts=len(config.experts)).log_supermartingale
    for rec in run_scenario(config).records:
        if prev == -INF:
            assert rec.log_supermartingale == -INF
        else:
            assert rec.log_supermartingale - prev <= np.log1p(rec.slack) + 1e-12
        prev = rec.log_supermartingale


@settings(max_examples=40, deadline=None)
@given(config=dfa_configs(), block=st.sampled_from([1, 256]))
def test_log_supermartingale_never_increases_past_its_slack(config, block):
    with mock.patch.object(runner, "BLOCK_ROUNDS", block):
        while config.horizon:
            try:
                return assert_never_increases(config)
            except ExpertmixError:  # a run that fails (every expert dead, say)
                config = replace(config, horizon=config.horizon // 2)  # is checked before


def test_log_supermartingale_never_increases_along_dfa_log_k10():
    assert_never_increases(builtin_scenario("dfa-log-k10", horizon=10_000))


def test_aa_substitutes_a_log_expert_near_the_boundary():
    g = builtin_game("log", 2)
    advice = np.stack([g.loss_vector([1e-12])])
    dfa = dfa_step(dfa_start(g, eta=1.0, n_experts=1), advice, 0)[0]
    aa = aa_step(aa_start(g, eta=1.0, n_experts=1), advice, 0)[0]
    assert abs(float(aa[0]) - float(dfa[0])) <= 1e-6


@pytest.mark.parametrize("p", [1e-8, 5.8e-10, 1e-12])
@pytest.mark.parametrize("w", [0, 1])
def test_one_log_expert_near_zero_is_followed(p, w):
    """With all weight on one log expert at decision ``p``, DFA's and AA's
    decisions are ``p`` up to the precision the expert's loss ``-ln p``
    keeps as a float (``-ln 1e-8`` is off by 1.8e-15, so ``exp`` of it is
    off by a relative 1.8e-15), and DFA's step has no slack."""
    g = builtin_game("log", 2)
    advice = np.stack([g.loss_vector([p])])
    dfa, _, slack = dfa_step(dfa_start(g, eta=1.0, n_experts=1), advice, w)
    aa = aa_step(aa_start(g, eta=1.0, n_experts=1), advice, w)[0]
    assert abs(float(dfa[0]) - p) <= 2e-15 * p and slack == 0.0
    assert abs(float(aa[0]) - p) <= 1e-15 * p


@pytest.mark.parametrize("name,eta", [("log", 1.0), ("square", 2.0)])
@pytest.mark.parametrize("block", [1, runner.BLOCK_ROUNDS])
def test_dfa_forecasts_are_aa_decisions(name, eta, block):
    """The source paper's identity: at c = 1 under the canonical proper
    loss, DFA's forecast in every round of a seeded run is AA's decision,
    bit for bit, in blocks of rounds and one round at a time, and DFA's
    decision is AA's within 1e-15."""
    spec = {"game": {"name": name, "m": 2}, "c": 1.0, "eta": eta, "horizon": 600, "seed": 11,
            "experts": [{"kind": "iid-random"}] * 6 + [{"kind": "trailing-average"},
                                                        {"kind": "constant", "value": 0.3}],
            "reality": {"kind": "iid"}}
    solve, forecasts = defensive.forecast_rounds, []

    def recorded(*args, **kwargs):
        out = solve(*args, **kwargs)
        forecasts.append(out[0])
        return out

    with mock.patch.object(runner, "BLOCK_ROUNDS", block), \
            mock.patch.object(defensive, "forecast_rounds", recorded):
        aa, dfa = (run_scenario(parse_config({**spec, "algorithm": algorithm})).columns
                   for algorithm in ("aa", "dfa"))
    decisions = np.asarray(aa["learner_decision"], dtype=float)[:, 0]
    pi = np.concatenate(forecasts)
    assert pi[:, 1].tobytes() == decisions.tobytes()
    assert pi[:, 0].tobytes() == (1.0 - decisions).tobytes()
    dfa_decisions = np.asarray(dfa["learner_decision"], dtype=float)[:, 0]
    assert np.max(np.abs(dfa_decisions - decisions)) <= 1e-15


#: evaluator (loss, c, eta) triples; log's proper loss is infinite on the
#: boundary of the simplex
TRIPLES = [("log", 1.0, 1.0), ("square", 1.0, 2.0), ("log", 1.0, 0.5),
           ("absolute", realizability_constant("absolute", 1.0), 1.0)]
PROPERS = [default_proper_loss(builtin_game(name, 2), c, eta) for name, c, eta in TRIPLES]
experts = st.tuples(st.integers(0, len(TRIPLES) - 1),
                    st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                    st.floats(-20.0, 20.0), losses, losses)


def direct_q(state: Session, G: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """sum_t w_t exp(pair_exponent(lambda_t(pi), g_t, c_t, eta_t))."""
    w = np.exp(state.log_weights - state.log_value)
    total = np.zeros(2)
    for t in np.flatnonzero(w):
        total += w[t] * np.exp(pair_exponent(state.proper[t](pi), G[t],
                                             state.c[t], state.eta[t]))
    return total


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(experts, min_size=2, max_size=8).filter(
           lambda rows: len({r[0] for r in rows}) >= 2 and sum(r[1] for r in rows) > 0),
       dead_outcome=st.one_of(st.none(), st.integers(0, 1)),
       ps=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 1 - 1e-3)),
                   min_size=1, max_size=5))
def test_grouped_q_matches_the_per_expert_sum(rows, dead_outcome, ps):
    spec, weight, offset, g0, g1 = (np.array(col) for col in zip(*rows))
    prior = weight / weight.sum()
    with np.errstate(divide="ignore"):
        log_weights = np.log(prior) + offset
    state = Session(game=None, c=np.array([TRIPLES[i][1] for i in spec]),
                    eta=np.array([TRIPLES[i][2] for i in spec]), prior=prior,
                    log_weights=log_weights, proper=tuple(PROPERS[i] for i in spec),
                    cumulative_loss=np.zeros(len(rows)))
    G = np.column_stack([g0, g1])
    if dead_outcome is not None:  # one group's experts all infinite there
        G[spec == spec[0], dead_outcome] = INF
    P = np.column_stack([1.0 - np.array(ps), ps])
    q = fixed_advice_q(state, G)
    want = np.stack([direct_q(state, G, pi) for pi in P])
    np.testing.assert_allclose(q(P), want, rtol=1e-9)
    np.testing.assert_allclose(q(P[0]), want[0], rtol=1e-9)


def test_one_group_dead_outcome_gives_exactly_one():
    g = builtin_game("log", 2)
    q = fixed_advice_q(dfa_start(g, eta=1.0, n_experts=1),
                       np.stack([g.loss_vector([1.0])]))
    assert q(np.array([0.0, 1.0]))[0] == 1.0


def test_zero_prior_expert_keeps_zero_weight():
    # the forecast gives outcome 0 no mass, so the learner and both weighted
    # experts lose inf there, and the zero-prior expert's factor is infinite
    g = builtin_game("log", 2)
    state = dfa_start(g, eta=1.0, prior=[0.5, 0.5, 0.0])
    _, state, _ = dfa_step(state, np.stack([g.loss_vector([d]) for d in (1.0, 1.0, 0.3)]), 0)
    assert state.log_weights[2] == -INF and np.isfinite(state.log_value)
    advice = np.stack([g.loss_vector([d]) for d in (0.2, 0.2, 0.9)])
    assert float(dfa_step(state, advice, 0)[0][0]) == pytest.approx(0.2, abs=1e-6)


def test_all_dead_sessions_raise_the_named_error():
    g = builtin_game("log", 2)
    advice = np.stack([g.loss_vector([0.2]), g.loss_vector([0.5])])
    for start in (aa_start, dfa_start):
        dead = replace(start(g, eta=1.0, n_experts=2), log_value=None,
                       log_weights=np.array([-INF, -INF]))
        with pytest.raises(AllExpertsDead):
            aa_mix(dead, advice)
        with pytest.raises(AllExpertsDead):
            fixed_advice_q(dead, advice)
    with pytest.raises(AllExpertsDead):
        sg_aa_step(dead, [SecondGuessExpert.identity(),
                          SecondGuessExpert.coordinate_swap()], 0)


@pytest.mark.parametrize("block", [1, 5])
@pytest.mark.parametrize("seed", range(6))
def test_evaluator_reweigh_is_the_one_round_reference(seed, block):
    """An evaluator session's learner terms differ by expert and stay in
    its weights: ``Session.reweigh`` over blocks of ``block`` rounds gives
    each row the bits of ``advance_reference`` round by round, an expert
    killed inside a block included."""
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(2, 7)), 20
    prior = rng.dirichlet(np.ones(k))
    prior[0] = 0.0
    state = start_session(None, prior / prior.sum(), c=rng.uniform(1.0, 2.0, k),
                          eta=rng.uniform(0.2, 2.0, k), cumulative_loss=np.zeros(k))
    expert_losses = rng.exponential(1.0, (n, k))
    expert_losses[rng.random((n, k)) < 0.05] = INF
    learner_terms = rng.exponential(1.0, (n, k))
    ref, lw = state, state.log_weights
    for lo in range(0, n, block):
        rows, values, posteriors = state.reweigh(expert_losses[lo:lo + block],
                                                 learner_terms[lo:lo + block], lw)
        for i in range(len(rows)):
            ref = advance_reference(ref, learner_terms[lo + i], learner_terms[lo + i],
                                    expert_losses[lo + i])
            assert rows[i].tobytes() == ref.log_weights.tobytes()
            assert values[i] == ref.log_value
            if np.isfinite(ref.log_value):
                assert posteriors[i].tobytes() == ref.log_posterior().tobytes()
        lw = rows[-1]


def test_rounds_read_the_log_product_of_every_kind():
    """``Rounds.log_supermartingale`` after each round of a block is the
    semi-invariant of the session after it for mixing (``aa``, ``sg-aa``)
    and its ``log_value`` for evaluators (``ml-dfa``)."""
    from expertmix.aggregating import aa_rounds, log_semi_invariant
    from expertmix.core import Rounds
    from expertmix.extensions import EvaluatedExpert, ml_dfa_rounds, ml_dfa_start
    from expertmix.secondguess import sg_aa_rounds

    rng = np.random.default_rng(7)
    g, n = builtin_game("log", 2), 12
    outcomes = rng.integers(0, 2, n)
    advice = g.loss_rows(rng.uniform(0.05, 0.95, (n, 3, 1)))
    square = default_proper_loss(builtin_game("square", 2), 1.0, 2.0)
    log = default_proper_loss(g, 1.0, 1.0)
    evaluators = ml_dfa_start([EvaluatedExpert(log, 1.0, 1.0, 0.5),
                               EvaluatedExpert(square, 1.0, 2.0, 0.5)], 2, verify=False)
    p = rng.uniform(0.05, 0.95, (n, 1))
    plays = {
        "aa": (aa_start(g, eta=1.0, n_experts=3),
               lambda s: aa_rounds(s, advice, outcomes[:-1], lambda lv: outcomes[-1])[-1],
               log_semi_invariant),
        "sg-aa": (aa_start(g, eta=1.0, n_experts=2),
                  lambda s: sg_aa_rounds(s, [SecondGuessExpert.identity(),
                                             SecondGuessExpert.coordinate_swap()],
                                         outcomes[:-1], lambda gamma: outcomes[-1])[-2],
                  log_semi_invariant),
        "ml-dfa": (evaluators,
                   lambda s: ml_dfa_rounds(s, np.stack([np.hstack([1 - p, p])] * 2, axis=1),
                                           outcomes[:-1], lambda _: outcomes[-1])[-1],
                   lambda s: s.log_value),
    }
    for name, (state, play, read) in plays.items():
        rounds = play(state)
        assert len(rounds.log_supermartingale) == n, name
        for i in range(n):
            after = state.after(Rounds(*(field[:i + 1] for field in rounds)))
            assert rounds.log_supermartingale[i] == read(after), (name, i)
            assert after.log_supermartingale is None, name


def test_posterior_sums_to_one_far_from_the_start():
    """The posterior is normalised in centred coordinates, so on 2,000 log
    sessions of 2 to 11 experts whose log weights lie near -3e5 it sums to
    one within 4 ulps, from the session and from each reweigh row alike
    (``log_weights - log_value`` misses by up to half an ulp of 3e5)."""
    rng = np.random.default_rng(15)
    g, worst = builtin_game("log", 2), 0.0
    for _ in range(2000):
        k = int(rng.integers(2, 12))
        state = aa_start(g, eta=1.0, prior=rng.dirichlet(np.ones(k)))
        far = replace(state, log_value=None,
                      log_weights=state.log_weights - 3e5 - rng.exponential(3.0, k))
        for posterior in (far.log_posterior(), *far.reweigh(rng.exponential(1.0, (2, k)))[2]):
            worst = max(worst, abs(np.exp(posterior).sum() - 1.0))
    assert worst <= 4 * np.finfo(float).eps


def test_aa_log_k10_margin_at_ten_thousand_rounds():
    summary = run_scenario(builtin_scenario("aa-log-k10", horizon=10_000)).summary
    assert summary["max_bound_margin"] <= 1e-10


def test_aa_log_k10_runs_past_half_a_million_rounds():
    """``aa-log-k10`` played 501,000 rounds keeps its bound.  Normalised as
    ``log_weights - log_value``, its posterior drifted by half an ulp of
    the leading log weight, and the block from round 500,224 raised
    :class:`SubstitutionFailure` on a log decision 4.7e-7 above its mix.
    The blocks' records are not kept."""
    config = builtin_scenario("aa-log-k10", horizon=501_000)
    rngs, reality_rng = runner._spawn_rngs(config.seed, len(config.experts))
    reality = runner.build_reality(config.reality, config.m, reality_rng)
    state, play = runner.PROTOCOLS["aa"](config, rngs, reality, 1e-6, 1e-9)
    outcomes, worst = [], -INF
    for n in range(0, config.horizon, runner.BLOCK_ROUNDS):
        state, columns = play(state, n, min(runner.BLOCK_ROUNDS, config.horizon - n), outcomes)
        worst = max(worst, float(columns[-1].max()))
    assert state.step_count == config.horizon and worst <= 1e-7
