import numpy as np
import pytest

from expertmix.aggregating import aa_start
from expertmix.defensive import dfa_start, dfa_step
from expertmix.errors import DomainError
from expertmix.losses import builtin_game
from expertmix.secondguess import (
    SecondGuessExpert,
    sg_aa_step,
    sg_dfa_step,
    sg_fixed_point,
    sg_fixed_point_residual,
)

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
            assert np.max(np.abs(ex(a) - ex(b))) <= \
                ex.lipschitz * np.max(np.abs(a - b)) + 1e-12


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
