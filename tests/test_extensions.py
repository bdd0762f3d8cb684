import numpy as np
import pytest

from expertmix.core import expected_factor
from expertmix.defensive import default_proper_loss, dfa_start, dfa_step
from expertmix.errors import ContractViolation, PreconditionUnverified
from expertmix.extensions import (
    EvaluatedExpert,
    absolute_simplex,
    brier_simplex,
    check_relative_exp_convexity,
    kl_simplex,
    ml_dfa_start,
    ml_dfa_step,
    simplex_dfa_start,
    simplex_dfa_step,
)
from expertmix.harness.config import parse_config
from expertmix.harness.runner import run_scenario
from expertmix.losses import builtin_game

LN2 = np.log(2.0)


def log_evaluator(prior, eta=1.0, c=1.0):
    g = builtin_game("log", 2)
    return EvaluatedExpert(proper=default_proper_loss(g, c, eta), c=c, eta=eta,
                           prior=prior, name="log")


def square_evaluator(prior, eta=2.0, c=1.0):
    g = builtin_game("square", 2)
    return EvaluatedExpert(proper=default_proper_loss(g, c, eta), c=c, eta=eta,
                           prior=prior, name="square")


class TestEvaluatorSessions:
    def test_single_evaluator_reduces_to_plain_dfa(self):
        state = ml_dfa_start([log_evaluator(1.0)], 2, verify=True, samples=400)
        g = builtin_game("log", 2)
        plain = dfa_start(g, eta=1.0, n_experts=1)
        rng = np.random.default_rng(0)
        for _ in range(40):
            p = rng.uniform(0.1, 0.9)
            w = int(rng.integers(0, 2))
            pi, state, _ = ml_dfa_step(state, [np.array([1 - p, p])], w)
            dec, plain, _ = dfa_step(plain, np.stack([g.loss_vector([p])]), w,
                                     select="root")
            assert pi[1] == pytest.approx(float(dec[0]), abs=1e-9)
        assert state.cumulative_loss[0] == pytest.approx(plain.cumulative_loss, abs=1e-9)

    def test_single_expert_zero_regret(self):
        state = ml_dfa_start([log_evaluator(1.0)], 2, verify=False)
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.uniform(0.1, 0.9)
            pi, state, _ = ml_dfa_step(state, [np.array([1 - p, p])], int(rng.integers(0, 2)))
        assert state.cumulative_loss[0] == pytest.approx(state.per_expert_loss[0], abs=1e-7)

    def test_bad_evaluator_rejected(self):
        g = builtin_game("square", 2)
        bad = EvaluatedExpert(proper=default_proper_loss(g, 1.0, 2.0),
                              c=1.0, eta=2.5, prior=1.0, name="square-2.5")
        with pytest.raises(ContractViolation):
            ml_dfa_start([bad], 2, verify=True, samples=800)

    def test_priors_must_normalize(self):
        with pytest.raises(ValueError):
            ml_dfa_start([log_evaluator(0.6), log_evaluator(0.6)], 2, verify=False)

    def test_log_square_replication_bounds(self):
        # K base experts entered under both evaluators with weights 1/(2K)
        K = 2
        evals = [log_evaluator(1 / (2 * K))] * K + [square_evaluator(1 / (2 * K))] * K
        state = ml_dfa_start(evals, 2, verify=True, samples=400)
        rng = np.random.default_rng(5)
        for _ in range(300):
            base = np.stack([[1 - p, p] for p in rng.random(K)])
            advice = np.concatenate([base, base])
            w = int(rng.integers(0, 2))
            _, state, _ = ml_dfa_step(state, advice, w)
        margins = state.bound_margins()
        assert np.all(margins <= 1e-7)
        regrets = state.cumulative_loss - state.per_expert_loss
        assert np.all(regrets[:K] <= np.log(2 * K) + 1e-7)
        assert np.all(regrets[K:] <= 0.5 * np.log(2 * K) + 1e-7)

    def test_supermartingale_nonincrease_heterogeneous(self):
        evals = [log_evaluator(0.5), square_evaluator(0.5)]
        state = ml_dfa_start(evals, 2, verify=True, samples=400)
        rng = np.random.default_rng(6)
        prev = state.log_value
        for _ in range(100):
            advice = [np.array([1 - p, p]) for p in rng.random(2)]
            _, state, slack = ml_dfa_step(state, advice, int(rng.integers(0, 2)))
            assert state.log_value <= prev + np.log1p(slack) + 1e-9
            prev = state.log_value


class TestRelativeExpConvexity:
    def test_brier_holds(self):
        rep = check_relative_exp_convexity(brier_simplex(3), 1.0, 1.0, 2000, seed=0)
        assert rep.holds and rep.worst_violation <= 1e-9

    def test_brier_holds_other_eta(self):
        rep = check_relative_exp_convexity(brier_simplex(3), 1.0, 3.7, 500, seed=0)
        assert rep.holds

    def test_kl_holds(self):
        rep = check_relative_exp_convexity(kl_simplex(3), 1.0, 1.0, 2000, seed=0)
        assert rep.holds and rep.worst_violation <= 1e-9

    def test_absolute_extension_violates_with_witness(self):
        probe = (np.array([0.0]), np.array([0.5]), np.array([0.5, 0.5]))
        rep = check_relative_exp_convexity(absolute_simplex(), 1.0, 1.0, 100,
                                           seed=0, probes=[probe])
        assert not rep.holds
        assert rep.worst_violation >= np.exp(0.5) - np.cosh(0.5) - 1e-9
        d1, d2, p, lhs, rhs = rep.witness
        assert lhs > rhs

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            check_relative_exp_convexity(brier_simplex(3), 1.0, 1.0, 0)

    @pytest.mark.parametrize("sg, c, eta, probes", [
        (brier_simplex(3), 1.0, 1.0, None), (brier_simplex(4), 1.5, 3.7, None),
        (kl_simplex(3), 1.0, 0.5, [([1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [0.0, 0.5, 0.5]),
                                   ([0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.3, 0.3, 0.4])]),
        (absolute_simplex(), 1.0, 1.0, [([0.0], [0.5], [0.5, 0.5])])])
    def test_batch_is_the_pair_by_pair_check(self, sg, c, eta, probes):
        """The batched check gives the report of scoring each sampled pair
        in turn with ``loss_on_simplex`` and ``expected_factor``."""
        rng, base = np.random.default_rng(3), sg.base
        pairs = [tuple(np.asarray(v, dtype=float) for v in probe) for probe in probes or ()]
        for _ in range(300):
            draw = (lambda: rng.random(base.decision_dim)) if base.decision_kind == "box" \
                else (lambda: rng.dirichlet(np.ones(base.decision_dim)))
            pairs.append((draw(), draw(), rng.dirichlet(np.ones(sg.m))))
        worst, witness = -np.inf, None
        for d1, d2, p in pairs:
            g1p, g2p = sg.loss_on_simplex(d1, p), sg.loss_on_simplex(d2, p)
            if not (np.isfinite(g1p) and np.isfinite(g2p)):
                continue
            lhs = float(np.exp(eta * (g1p / c - g2p)))
            rhs = expected_factor(p, base.loss_vector(d1), base.loss_vector(d2), c, eta)
            if not np.isinf(rhs) and lhs - rhs > worst:
                worst, witness = lhs - rhs, (d1, d2, p, lhs, rhs)
        rep = check_relative_exp_convexity(sg, c, eta, 300, seed=3, probes=probes)
        assert rep.worst_violation == worst and rep.holds == (worst <= 1e-9)
        assert all(np.array_equal(a, b) for a, b in zip(rep.witness, witness))


class TestSimplexSessions:
    def test_vertex_consistency_bit_for_bit(self):
        rng = np.random.default_rng(2)
        for sg in (brier_simplex(3), kl_simplex(3), absolute_simplex()):
            m = sg.m
            for _ in range(20):
                if sg.base.decision_kind == "box":
                    dec = rng.random(1)
                else:
                    dec = rng.dirichlet(np.ones(m))
                base_losses = sg.base.loss_vector(dec)
                for w in range(m):
                    vertex = np.zeros(m)
                    vertex[w] = 1.0
                    assert sg.loss_on_simplex(dec, vertex) == base_losses[w], sg.name

    def test_vertex_outcomes_reproduce_plain_dfa(self):
        sg = brier_simplex(3)
        state = simplex_dfa_start(sg, eta=1.0, n_experts=2, verify=True, samples=300)
        plain = dfa_start(sg.base, eta=1.0, n_experts=2)
        advice = [np.full(3, 1 / 3), np.array([0.7, 0.2, 0.1])]
        adv_matrix = np.stack([sg.base.loss_vector(d) for d in advice])
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = int(rng.integers(0, 3))
            vertex = np.zeros(3)
            vertex[w] = 1.0
            dec_s, state, _ = simplex_dfa_step(state, advice, vertex)
            dec_p, plain, _ = dfa_step(plain, adv_matrix, w)
            assert np.allclose(dec_s, dec_p, atol=1e-9)
        assert state.cumulative_loss == pytest.approx(plain.cumulative_loss, abs=1e-9)

    def test_brier_dirichlet_outcomes_bound(self):
        sg = brier_simplex(3)
        state = simplex_dfa_start(sg, eta=1.0, n_experts=2, verify=True, samples=300)
        advice = [np.full(3, 1 / 3), np.array([1.0, 0.0, 0.0])]
        rng = np.random.default_rng(13)
        prev = state.log_supermartingale
        for _ in range(200):
            p = rng.dirichlet(np.ones(3))
            _, state, slack = simplex_dfa_step(state, advice, p)
            assert state.log_supermartingale <= prev + np.log1p(slack) + 1e-9
            prev = state.log_supermartingale
        assert np.all(state.bound_margins() <= 1e-7)

    def test_kl_dirichlet_outcomes_bound(self):
        sg = kl_simplex(3)
        state = simplex_dfa_start(sg, eta=1.0, n_experts=1, verify=True, samples=300)
        advice = [np.full(3, 1 / 3)]
        rng = np.random.default_rng(17)
        for _ in range(150):
            p = rng.dirichlet(np.ones(3))
            _, state, _ = simplex_dfa_step(state, advice, p)
        assert np.all(state.bound_margins() <= 1e-7)

    def test_unverified_state_refuses_to_step(self):
        sg = brier_simplex(3)
        state = simplex_dfa_start(sg, eta=1.0, n_experts=1, verify=False)
        with pytest.raises(PreconditionUnverified):
            simplex_dfa_step(state, [np.full(3, 1 / 3)], np.full(3, 1 / 3))

    def test_absolute_extension_fails_verification(self):
        with pytest.raises(ContractViolation):
            simplex_dfa_start(absolute_simplex(), eta=1.0, c=1.0, n_experts=1,
                              verify=True, samples=400)


class TestEvaluatorSimplexSearch:
    """Evaluator runs at m >= 3 have no AA point to take where the
    barycentre misses, so the simplex search serves those rounds."""

    @pytest.mark.parametrize("m, horizon, evaluators, second, probs", [
        (3, 300, ["log", "brier"], "iid-random", None),
        (3, 300, ["hellinger"], "iid-random", None),
        (3, 300, ["brier"], "iid-random", None),
        (3, 300, ["log", "brier"], "trailing-average", [0.5, 0.3, 0.2]),
        (4, 100, ["log", "brier"], "trailing-average", None)])
    def test_runs_keep_their_bound(self, m, horizon, evaluators, second, probs):
        config = parse_config({
            "game": {"name": "log", "m": m}, "algorithm": "ml-dfa", "horizon": horizon,
            "seed": 3, "experts": [{"kind": "iid-random"}, {"kind": second}],
            "evaluators": [{"loss": loss} for loss in evaluators],
            "reality": {"kind": "iid", **({} if probs is None else {"probs": probs})}})
        result = run_scenario(config)
        assert len(result.records) == horizon
        assert result.bound_ok
