import contextlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from expertmix import defensive, secondguess
from expertmix.aggregating import aa_start
from expertmix.core import domination_gap, exp_mix, is_superprediction
from expertmix.defensive import dfa_start, dfa_step
from expertmix.errors import DomainError, InvalidLossVector, NotRealizable
from expertmix.harness.config import parse_config
from expertmix.harness.runner import run_scenario
from expertmix.losses import builtin_game, realizability_constant
from expertmix.secondguess import (
    SecondGuessExpert,
    _sg_transform,
    sg_aa_step,
    sg_dfa_step,
    sg_fixed_point,
    sg_fixed_point_residual,
)
from oracles import recording, reference_fixed_point
from test_defensive import sabotaged, six_levels_a_call

LN2 = np.log(2.0)


def game_log():
    return builtin_game("log", 2)


class TestExperts:
    def test_constant_ignores_argument(self):
        g = game_log()
        ex = SecondGuessExpert.constant(g.loss_vector([0.3]))
        assert np.allclose(ex(np.array([1.0, 1.0])), g.loss_vector([0.3]))

    def test_swap_is_the_binary_contrarian(self):
        g = game_log()
        gamma = g.loss_vector([0.7])
        assert np.allclose(SecondGuessExpert.coordinate_swap()(gamma),
                           g.loss_vector([0.3]))

    def test_continuity_probe(self):
        # finite-difference spot check of the declared Lipschitz behavior
        g = game_log()
        ex = SecondGuessExpert.coordinate_swap()
        rng = np.random.default_rng(0)
        for _ in range(100):
            p, q = rng.uniform(0.2, 0.8, size=2)
            a, b = g.loss_vector([p]), g.loss_vector([q])
            # the swap's Lipschitz constant is 1
            assert np.max(np.abs(ex(a) - ex(b))) <= np.max(np.abs(a - b)) + 1e-12


    def test_rows_map_each_row(self):
        g = game_log()
        rows = np.stack([g.loss_vector([p]) for p in (0.1, 0.6, 0.9)])
        for ex in (SecondGuessExpert.coordinate_swap(), SecondGuessExpert.identity(),
                   SecondGuessExpert.constant(g.loss_vector([0.4])),
                   SecondGuessExpert(fn=lambda gamma: gamma[::-1] + 0.1)):  # no batch form
            assert np.array_equal(ex.rows(rows), np.stack([ex(v) for v in rows]))


class TestSgDFA:
    def test_constant_experts_match_standard_step(self):
        g = game_log()
        decisions = [0.25, 0.75]
        sg_state = dfa_start(g, eta=1.0, n_experts=2)
        std_state = dfa_start(g, eta=1.0, n_experts=2)
        experts = [SecondGuessExpert.constant(g.loss_vector([p])) for p in decisions]
        adv = np.stack([g.loss_vector([p]) for p in decisions])
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = int(rng.integers(0, 2))
            gamma, sg_state, _ = sg_dfa_step(sg_state, experts, w)
            dec, std_state, _ = dfa_step(std_state, adv, w, select="root")
            p_sg = float(g.substitution(gamma)[0])
            assert p_sg == pytest.approx(float(dec[0]), abs=1e-9)

    def test_identity_expert_zero_regret(self):
        g = game_log()
        state = dfa_start(g, eta=1.0, n_experts=1)
        experts = [SecondGuessExpert.identity()]
        rng = np.random.default_rng(2)
        for _ in range(100):
            gamma, state, slack = sg_dfa_step(state, experts, int(rng.integers(0, 2)))
            assert slack <= 1e-12
        # the expert copies Learner, so the regret is identically zero
        assert state.cumulative_loss == pytest.approx(state.per_expert_loss[0])
        assert state.bound_margins()[0] <= 1e-9

    def test_contrarian_plus_constant_bound(self):
        g = game_log()
        state = dfa_start(g, eta=1.0, n_experts=2)
        experts = [SecondGuessExpert.coordinate_swap(),
                   SecondGuessExpert.constant(g.loss_vector([0.5]))]
        rng = np.random.default_rng(11)
        for _ in range(300):
            _, state, _ = sg_dfa_step(state, experts, int(rng.integers(0, 2)))
        margins = state.bound_margins()
        assert np.all(margins <= 1e-7)

    @pytest.mark.parametrize("eta", [1.0, 2.0])
    def test_hellinger_simplex_search_keeps_the_bound(self, eta):
        config = parse_config({
            "game": {"name": "hellinger", "m": 3}, "algorithm": "sg-dfa", "eta": eta,
            "horizon": 120, "seed": 3, "reality": {"kind": "iid"},
            "experts": [{"kind": "sg-identity"},
                        {"kind": "sg-constant", "value": [0.6, 0.3, 0.1]}]})
        result = run_scenario(config)
        assert len(result.records) == 120
        assert result.bound_ok

    def test_cyclic_shift_on_brier_keeps_the_bound(self):
        """The m-outcome contrarian, a cyclic shift of the loss coordinates,
        against a constant: the rounds that the simplex search serves keep
        the bound."""
        g = builtin_game("brier", 3)
        state = dfa_start(g, eta=1.0, n_experts=2)
        experts = [SecondGuessExpert(fn=lambda gamma: np.roll(gamma, 1, -1), batched=True),
                   SecondGuessExpert.constant(g.loss_vector(np.array([0.6, 0.3, 0.1])))]
        w = np.random.default_rng(0).integers(0, 3, size=120)
        *_, rounds, _ = secondguess.sg_dfa_rounds(state, experts, w[:-1], lambda _: int(w[-1]))
        assert len(rounds.log_value) == 120
        assert np.all(state.bound_margins(rounds) <= 1e-7)

    def test_domain_error_on_bad_expert(self):
        g = game_log()
        state = dfa_start(g, eta=1.0, n_experts=1)
        bad = SecondGuessExpert(fn=lambda gamma: gamma - 0.5, name="cheater")
        with pytest.raises(DomainError):
            sg_dfa_step(state, [bad], 0)


class TestFixedPoint:
    def test_constant_experts_match_plain_mixing(self):
        g = game_log()
        state = aa_start(g, eta=1.0, n_experts=2)
        experts = [SecondGuessExpert.constant(g.loss_vector([0.0])),
                   SecondGuessExpert.constant(g.loss_vector([1.0]))]
        gamma = sg_fixed_point(state, experts)
        assert float(g.substitution(gamma)[0]) == pytest.approx(0.5, abs=1e-9)

    def test_single_constant_expert_followed(self):
        g = game_log()
        state = aa_start(g, eta=1.0, n_experts=1)
        gamma = sg_fixed_point(state, [SecondGuessExpert.constant(g.loss_vector([0.3]))])
        assert float(g.substitution(gamma)[0]) == pytest.approx(0.3, abs=1e-9)

    def test_residual_small(self):
        g = game_log()
        state = aa_start(g, eta=1.0, n_experts=2)
        experts = [SecondGuessExpert.coordinate_swap(),
                   SecondGuessExpert.constant(g.loss_vector([0.5]))]
        gamma = sg_fixed_point(state, experts, tol=1e-12)
        assert sg_fixed_point_residual(state, experts, gamma) <= 1e-8

    def test_residual_of_an_infinite_coordinate(self):
        # a lone copying expert's fixed point is loss(0) = (0, inf), which
        # the transform maps to itself
        g = game_log()
        state = aa_start(g, eta=1.0, n_experts=1)
        experts = [SecondGuessExpert.identity()]
        gamma = sg_fixed_point(state, experts)
        assert gamma.tolist() == [0.0, np.inf]
        assert sg_fixed_point_residual(state, experts, gamma) == 0.0

    def test_domination_by_the_posterior_mix(self):
        g = game_log()
        state = aa_start(g, eta=1.0, n_experts=2)
        experts = [SecondGuessExpert.coordinate_swap(),
                   SecondGuessExpert.constant(g.loss_vector([0.4]))]
        gamma = sg_fixed_point(state, experts, tol=1e-12)
        from expertmix.core import exp_mix

        wbar = np.exp(state.log_weights - np.log(np.sum(np.exp(state.log_weights))))
        mixed = exp_mix([ex(gamma) for ex in experts], wbar, state.eta)
        assert np.all(gamma <= mixed + 1e-8)

    def test_matches_sg_dfa_along_trajectory(self):
        g = game_log()
        experts = [SecondGuessExpert.coordinate_swap(),
                   SecondGuessExpert.constant(g.loss_vector([0.5]))]
        sa = aa_start(g, eta=1.0, n_experts=2)
        sd = dfa_start(g, eta=1.0, n_experts=2)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            w = int(rng.integers(0, 2))
            gamma_a = sg_fixed_point(sa, experts, tol=1e-12)
            gamma_d, sd, _ = sg_dfa_step(sd, experts, w)
            worst = max(worst, abs(float(g.substitution(gamma_a)[0])
                                   - float(g.substitution(gamma_d)[0])))
            _, sa = sg_aa_step(sa, experts, w, tol=1e-12)
        assert worst <= 1e-4

    def test_sg_aa_bound(self):
        g = game_log()
        state = aa_start(g, eta=1.0, n_experts=2)
        experts = [SecondGuessExpert.coordinate_swap(),
                   SecondGuessExpert.constant(g.loss_vector([0.5]))]
        rng = np.random.default_rng(13)
        for _ in range(300):
            _, state = sg_aa_step(state, experts, int(rng.integers(0, 2)), tol=1e-12)
        assert np.all(state.bound_margins() <= 1e-7)


class TestNonMixableVariant:
    def test_absolute_fixed_point_with_scaling(self):
        from expertmix.losses import realizability_constant

        g = builtin_game("absolute", 2)
        c = realizability_constant("absolute", 1.0)
        state = aa_start(g, eta=1.0, c=c, n_experts=2)
        experts = [SecondGuessExpert.constant(g.loss_vector([0.0])),
                   SecondGuessExpert.constant(g.loss_vector([1.0]))]
        gamma = sg_fixed_point(state, experts, tol=1e-11)
        # the solution lies on the boundary segment x + y = 1
        assert gamma.sum() == pytest.approx(1.0, abs=1e-8)
        # and is dominated by -(c/eta) ln sum wbar exp(-eta Gamma(gamma))
        from expertmix.core import exp_mix

        mixed = exp_mix([ex(gamma) for ex in experts], [0.5, 0.5], state.eta)
        assert np.all(gamma <= c * mixed + 1e-8)

    @pytest.mark.parametrize("eta", [1.0, 2.0])
    def test_absolute_below_its_constant_raises(self, eta):
        # at c = 1 the hull retraction's point lies outside the
        # superprediction set, and the projection refuses it
        g = builtin_game("absolute", 2)
        state = aa_start(g, eta=eta, n_experts=2)
        experts = [SecondGuessExpert.coordinate_swap(),
                   SecondGuessExpert.constant(g.loss_vector([0.4]))]
        with pytest.raises(NotRealizable, match="1.0 \\* g is not a superprediction"):
            sg_aa_step(state, experts, 0)


@contextlib.contextmanager
def counting(module, builder="_sg_transform"):
    """Patch ``module.builder``, which builds a transform, so that each call
    of a transform it builds appends its argument's length to the yielded
    list."""
    calls, build = [], getattr(module, builder)

    def counted_build(*args, **kwargs):
        transform = build(*args, **kwargs)
        return lambda gammas: calls.append(len(gammas)) or transform(gammas)

    with mock.patch.object(module, builder, counted_build):
        yield calls


def counted(expert, calls):
    """``expert`` with each call of its map appended to ``calls``."""
    def fn(gamma):
        calls.append(np.shape(gamma))
        return expert.fn(gamma)

    return SecondGuessExpert(fn=fn, name=expert.name, batched=expert.batched)


class TestNodeBatches:
    def test_root_at_one_half_is_one_call_of_each_map(self):
        g = game_log()
        calls = []
        experts = [counted(SecondGuessExpert.coordinate_swap(), calls),
                   counted(SecondGuessExpert.constant(g.loss_vector([0.5])), calls)]
        state = aa_start(g, eta=1.0, n_experts=2)
        assert sg_fixed_point(state, experts).tolist() == g.loss_vector([0.5]).tolist()
        assert calls == [(3, 2), (3, 2)]  # p = 0, 1 and 1/2 in one batch

    def test_later_calls_hold_six_levels_and_the_predicted_path(self):
        g = game_log()
        calls = []
        experts = [counted(SecondGuessExpert.coordinate_swap(), calls),
                   SecondGuessExpert.constant(g.loss_vector([0.4]))]
        state = aa_start(g, eta=1.0, n_experts=2)
        gamma = sg_fixed_point(state, experts)
        # 3 nodes, then the 63 of six levels of the bracket with the path
        assert calls[0] == (3, 2) and all(n >= 63 and d == 2 for n, d in calls[1:])
        assert np.array_equal(gamma, reference_fixed_point(state, experts))

    def test_an_off_centre_root_takes_at_most_three_calls_a_round(self):
        # the 0.4 root of contrarian + constant 0.4 on log: 7.8 transform
        # calls a round at six levels a call, 2 on the predicted path
        config = parse_config({"name": "sg-aa-0.4", "game": {"name": "log", "m": 2},
                               "algorithm": "sg-aa", "c": 1.0, "eta": 1.0,
                               "experts": [{"kind": "sg-contrarian"},
                                           {"kind": "sg-constant", "value": 0.4}],
                               "reality": {"kind": "iid", "probs": [0.5, 0.5]},
                               "horizon": 120, "seed": 5})
        with counting(secondguess) as calls:
            run_scenario(config)
        assert len(calls) <= 3 * config.horizon

    @pytest.mark.parametrize("name, c", [("absolute", realizability_constant("absolute", 1.0)),
                                         ("log", 1.316), ("square", 1.316)])
    def test_hull_and_projected_rounds_take_at_most_six_calls(self, name, c):
        # the hull retraction and the projection bisect every row of a call
        # together, so their rounds take the predicted path too: 2-4.5
        # transform calls a round, where one node a call would take 38-39
        config = parse_config({"game": {"name": name, "m": 2}, "algorithm": "sg-aa", "c": c,
                               "eta": 1.0, "experts": [{"kind": "sg-contrarian"},
                                                       {"kind": "sg-constant", "value": 0.4}],
                               "reality": {"kind": "iid"}, "horizon": 60, "seed": 5})
        with counting(secondguess) as calls:
            assert run_scenario(config).bound_ok
        assert len(calls) <= 6 * config.horizon

    def test_sg_dfa_q_calls_each_map_once(self):
        g = game_log()
        calls = []
        experts = [counted(SecondGuessExpert.coordinate_swap(), calls),
                   SecondGuessExpert.constant(g.loss_vector([0.4]))]
        sg_dfa_step(dfa_start(g, eta=1.0, n_experts=2), experts, 0)
        # one call per q batch (3 nodes, then the 63 of six levels of the
        # bracket with the predicted path, in no more batches than six levels
        # a call would take), then one at the forecast
        assert calls[0] == (3, 2) and calls[-1] == (2,)
        assert len(calls[1:-1]) <= 5 and all(n >= 63 and d == 2 for n, d in calls[1:-1])


def patchy(region, name="patchy"):
    """A map with no batch form that copies Learner's loss vector, except
    that it leaves the superprediction set (a negative entry, 0.5 below
    Learner's) where Learner's decision lies in ``region``."""
    g = game_log()

    def fn(gamma):
        p = float(g.substitution(gamma)[0])
        return gamma - 0.5 if region[0] <= p < region[1] else gamma.copy()

    return SecondGuessExpert(fn=fn, name=name)


def same_outcome(state, experts):
    """Run the reference and the library; both return the same bits or
    raise the same error with the same message."""
    try:
        want = reference_fixed_point(state, experts)
    except Exception as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            sg_fixed_point(state, experts)
        return exc
    assert np.array_equal(sg_fixed_point(state, experts), want)
    return None


class TestErrorPlacement:
    def test_error_at_an_unvisited_node_does_not_surface(self):
        # alone, the copying map gives f(0) = 0: the scalar path exits at
        # p = 0 and never evaluates the failing node 1/2 of the first batch
        g = game_log()
        state = aa_start(g, eta=1.0, n_experts=1)
        experts = [patchy((0.45, 0.55))]
        assert same_outcome(state, experts) is None
        assert sg_fixed_point(state, experts).tolist() == g.loss_vector([0.0]).tolist()

    def test_error_comes_at_the_node_the_scalar_path_reaches(self):
        # the fixed point is 0.4; the bisection visits 1/2, 1/4 and 3/8,
        # where the map fails, while the batch of [0, 1/2] fails at other
        # nodes of [0.3, 0.4) too, each with its own message
        g = game_log()
        state = aa_start(g, eta=1.0, n_experts=2)
        experts = [patchy((0.3, 0.4)), SecondGuessExpert.constant(g.loss_vector([0.4]))]
        err = same_outcome(state, experts)
        assert isinstance(err, InvalidLossVector)
        gamma = g.loss_vector([0.375])
        assert str(err) == str(InvalidLossVector(f"negative loss entry in {gamma - 0.5}"))


#: a game with the (c, eta) of a realizable sg-aa session on it
SG_GAMES = {"log": (1.0, 1.0), "square": (1.0, 2.0),
            "absolute": (realizability_constant("absolute", 1.0), 1.0)}
EXPERTS = {
    "contrarian": lambda g: SecondGuessExpert.coordinate_swap(),
    "identity": lambda g: SecondGuessExpert.identity(),
    "constant": lambda g: SecondGuessExpert.constant(g.loss_vector([0.4])),
    "callback": lambda g: SecondGuessExpert(fn=lambda gamma: gamma[::-1] + 0.05),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SG_GAMES)),
       st.lists(st.sampled_from(sorted(EXPERTS)), min_size=1, max_size=3),
       st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
       st.sampled_from([None, "mirror", "low end", "high end"]))
def test_fixed_point_matches_the_scalar_loop(name, kinds, weights, sabotage):
    """The node-batched fixed point is the one-call-per-level loop's, bit
    for bit, under random priors, with the predicted path or a predictor
    that is always wrong, and in no more transform calls than six levels a
    call, under the closed-form retraction, the hull retraction and the
    projection at ``c > 1`` alike."""
    g = builtin_game(name, 2)
    c, eta = SG_GAMES[name]
    prior = np.array(weights[:len(kinds)]) / sum(weights[:len(kinds)])
    state = aa_start(g, eta=eta, c=c, prior=prior, n_experts=len(kinds))
    experts = [EXPERTS[k](g) for k in kinds]
    # the reference's calls: f(0), f(1), then one a level
    with counting(oracles, "reference_transform") as reference_calls, \
            mock.patch.object(defensive, "_root_estimate",
                              sabotaged(sabotage) if sabotage else defensive._root_estimate), \
            counting(secondguess) as calls:
        err = same_outcome(state, experts)
    if err is None and len(reference_calls) > 2:  # one library run, past the endpoints
        assert len(calls) <= six_levels_a_call(len(reference_calls) - 2)


def cyclic_shift():
    """The m-outcome contrarian: a cyclic shift of the loss coordinates."""
    return SecondGuessExpert(fn=lambda gamma: np.roll(gamma, 1, -1), name="cyclic-shift",
                             batched=True)


#: log and kl on the simplex, where the fixed point retracts in closed form
SIMPLEX_CASES = [pytest.param(name, m, 1.0, id=f"{name}-m{m}")
                 for name in ("log", "kl") for m in (3, 4)]


class TestClosedFormRetraction:
    @pytest.mark.parametrize("name,m,eta", [pytest.param("log", 2, 1.0, id="log-1.0"),
                                            pytest.param("square", 2, 2.0, id="square-2.0"),
                                            *SIMPLEX_CASES])
    def test_binary_fixed_point_makes_no_gap_call(self, name, m, eta):
        probes = []
        g = recording(builtin_game(name, m), probes)
        state = aa_start(g, eta=eta, n_experts=2)
        decision = [0.4] if m == 2 else np.arange(m, 0, -1) / (m * (m + 1) / 2)
        experts = [SecondGuessExpert.coordinate_swap() if m == 2 else cyclic_shift(),
                   SecondGuessExpert.constant(g.loss_vector(decision))]
        sg_fixed_point(state, experts)
        assert probes == []

    @pytest.mark.parametrize("name,m,eta", [
        *(pytest.param(name, 2, eta, id=f"{name}-{eta}")
          for name, eta in [("log", 0.5), ("log", 1.0), ("square", 1.0), ("square", 2.0)]),
        *SIMPLEX_CASES])
    def test_rows_are_minimal_members_below_the_mix(self, name, m, eta):
        g = builtin_game(name, m)
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            prior = rng.dirichlet(np.ones(k))
            # decisions off the faces: p in [0.05, 0.95], or every coordinate
            # at least 0.05 / m
            decisions = rng.uniform(0.05, 0.95, (k, 1)) if m == 2 else \
                rng.dirichlet(np.ones(m), k) * 0.95 + 0.05 / m
            # points on the boundary or above it, some coordinates unmoved
            points = [g.loss_vector(d) + rng.uniform(0.0, 1.0, m) * rng.integers(0, 2, m)
                      for d in decisions]
            state = aa_start(g, eta=eta, prior=prior, n_experts=k)
            out = _sg_transform(state, [SecondGuessExpert.constant(v) for v in points])(
                np.zeros((1, m)))[0]
            mix = exp_mix(points, prior, eta)
            assert np.all(out <= mix * (1.0 + 1e-12)), (out, mix)
            assert is_superprediction(g, out, tol=1e-15), out
            for w in np.flatnonzero(np.isfinite(out) & (out > 0.0)):
                lowered = out.copy()
                lowered[w] *= 1.0 - 1e-12
                assert domination_gap(g, lowered) > 0.0, (out, w)

    def test_non_member_mix_raises(self):
        # advice that is no superprediction of log loss, so neither is the mix
        g = game_log()
        state = aa_start(g, eta=1.0, n_experts=1)
        err = same_outcome(state, [SecondGuessExpert(fn=lambda gamma: np.full(2, 0.1))])
        assert isinstance(err, ValueError) and "not a superprediction" in str(err)


def sharp_contrarian():
    """A log m = 3 contrarian that puts its decision where Learner's loss is
    high, ``d ∝ exp(10 gamma)`` mixed 2% with uniform (a loss above 50
    counts as 50, so a face's infinite loss stays a decision)."""
    def fn(gamma):
        d = np.exp(10.0 * (np.minimum(gamma, 50.0) - 50.0))
        d = 0.98 * d / d.sum(axis=-1, keepdims=True) + 0.02 / gamma.shape[-1]
        return -np.log(d)

    return SecondGuessExpert(fn=fn, name="sharp-contrarian", batched=True)


SIMPLEX_EXPERTS = {
    "identity": lambda g, d: SecondGuessExpert.identity(),
    "cyclic-shift": lambda g, d: cyclic_shift(),
    "constant": lambda g, d: SecondGuessExpert.constant(g.loss_vector(d)),
}


class TestSimplexFixedPoint:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["log", "kl", "brier"]), st.sampled_from([3, 4]),
           st.lists(st.sampled_from(sorted(SIMPLEX_EXPERTS)), min_size=1, max_size=3),
           st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
           st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
    def test_fixed_point_on_the_simplex(self, name, m, kinds, weights, point):
        """The Sperner fixed point: the decision residual ``max_w (D(x)_w -
        x_w)`` is at most 1e-12 (the search's ``1 + D(x)_w - x_w <= 1 +
        1e-12``, in floats), gamma exceeds the mix of the advice at gamma
        by at most 1e-10, and each transform call is one level of the search
        (the barycentre, then the grid), at most 41 of them."""
        g = builtin_game(name, m)
        prior = np.array(weights[:len(kinds)]) / sum(weights[:len(kinds)])
        state = aa_start(g, eta=1.0, prior=prior, n_experts=len(kinds))
        constant = np.array(point[:m]) / sum(point[:m])
        experts = [SIMPLEX_EXPERTS[k](g, constant) for k in kinds]
        with counting(secondguess) as calls:
            gamma = sg_fixed_point(state, experts)
        grid = len(defensive._kuhn_grid(m)[1])
        assert len(calls) <= 41 and calls[0] == 1 and all(n == grid for n in calls[1:])
        x = g.substitution(gamma)
        d = g.substitution(_sg_transform(state, experts)(gamma[None]))[0]
        assert np.max(1.0 + d - x) <= 1.0 + 1e-12, (x, d)  # in the label's arithmetic
        mix = exp_mix([ex(gamma) for ex in experts], prior, 1.0)
        with np.errstate(invalid="ignore"):  # inf - inf where both are infinite, replaced
            assert np.max(np.where(gamma == mix, 0.0, gamma - mix)) <= 1e-10, (gamma, mix)

    def test_sharp_contrarian_fixed_point_returns(self):
        # the contrarian's decision moves by e^10 a unit of loss, so iterating
        # the transform cycles; the search's labels need no contraction
        g = builtin_game("log", 3)
        state = aa_start(g, eta=1.0, n_experts=2)
        experts = [sharp_contrarian(),
                   SecondGuessExpert.constant(g.loss_vector(np.array([0.7, 0.2, 0.1])))]
        with counting(secondguess) as calls:
            gamma = sg_fixed_point(state, experts)
        assert len(calls) <= 41
        x = g.substitution(gamma)
        d = g.substitution(_sg_transform(state, experts)(gamma[None]))[0]
        assert np.max(1.0 + d - x) <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("name,m", [("log", 3), ("kl", 3), ("brier", 3),
                                        ("kl", 2), ("brier", 2)])  # simplex decisions at m = 2
    def test_runs_keep_their_bound(self, name, m, seed):
        values = {3: ([0.6, 0.3, 0.1], [0.2, 0.3, 0.5]), 2: ([0.7, 0.3], [0.2, 0.8])}[m]
        config = parse_config({
            "game": {"name": name, "m": m}, "algorithm": "sg-aa", "eta": 1.0,
            "horizon": 120, "seed": seed, "reality": {"kind": "iid"},
            "experts": [{"kind": "sg-identity"},
                        *({"kind": "sg-constant", "value": v} for v in values)]})
        with counting(secondguess) as calls:
            result = run_scenario(config)
        assert len(result.records) == 120 and result.bound_ok
        assert len(calls) <= 41 * 120
