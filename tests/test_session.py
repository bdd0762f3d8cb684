"""Property tests for the update every protocol shares: the extended-real
table of ``pair_exponent``, the log-sum-exp fast path, and the guarantee
margins of sessions run on random advice under priors that include zeros."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from expertmix.aggregating import aa_start, aa_step
from expertmix.core import log_sum_exp, pair_exponent
from expertmix.defensive import dfa_start, dfa_step
from expertmix.losses import builtin_game, realizability_constant

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
