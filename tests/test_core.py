import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expertmix.core import (
    Game,
    as_losses,
    as_probs,
    dominated_by,
    domination_gap,
    exp_mix,
    expected_loss,
    is_superprediction,
    log_sum_exp,
    simplex_grid,
)
from expertmix.errors import DimensionMismatch, InvalidDistribution, InvalidLossVector
from expertmix.losses import builtin_game

INF = np.inf


class TestTypes:
    def test_game_needs_two_outcomes(self):
        game = builtin_game("log", 2)
        with pytest.raises(ValueError, match="two outcomes"):
            Game(name="one", m=1, decision_kind="box", decision_dim=1, loss=game.loss,
                 substitution=game.substitution)

    def test_distribution_rejects_unnormalized(self):
        for bad in ([0.5, 0.5 + 1e-9], [-0.1, 1.1], [np.nan, 1.0]):
            with pytest.raises(InvalidDistribution):
                as_probs(bad)
        # within tolerance is fine
        as_probs([0.5, 0.5 + 1e-13])

    def test_loss_vector_invariants(self):
        assert dominated_by([0.0, INF], [0.0, INF])  # inf <= inf
        with pytest.raises(InvalidLossVector):
            as_losses([-1.0, 0.0])
        with pytest.raises(InvalidLossVector):
            as_losses([np.nan, 0.0])


class TestExpectedLoss:
    def test_basic(self):
        assert expected_loss([0.5, 0.5], [1.0, 3.0]) == pytest.approx(2.0)

    def test_zero_probability_skips_infinity(self):
        assert expected_loss([0.0, 1.0], [INF, 2.0]) == pytest.approx(2.0)

    def test_point_mass_on_zero_loss(self):
        assert expected_loss([1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_infinite_when_supported(self):
        assert expected_loss([0.5, 0.5], [INF, 2.0]) == INF

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expected_loss([0.5, 0.5], [1.0, 2.0, 3.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.0, 50.0), min_size=2, max_size=4),
        st.lists(st.floats(0.0, 50.0), min_size=2, max_size=4),
        st.floats(0.0, 3.0),
        st.floats(0.0, 3.0),
    )
    def test_linearity_on_finite_vectors(self, g1, g2, a, b):
        m = min(len(g1), len(g2))
        g1, g2 = np.array(g1[:m]), np.array(g2[:m])
        pi = np.full(m, 1.0 / m)
        lhs = expected_loss(pi, a * g1 + b * g2)
        rhs = a * expected_loss(pi, g1) + b * expected_loss(pi, g2)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestExpMix:
    def test_single_point_identity(self):
        g = np.array([1.0, 2.0])
        assert np.allclose(exp_mix([g], [1.0], 0.7), g)

    def test_infinite_coordinates(self):
        out = exp_mix([[0.0, INF], [INF, 0.0]], [0.5, 0.5], 1.0)
        assert np.allclose(out, np.log(2.0))

    def test_zero_weight_ignored(self):
        out = exp_mix([[1.0, 1.0], [5.0, 5.0]], [1.0, 0.0], 1.0)
        assert np.allclose(out, [1.0, 1.0])

    def test_all_infinite_coordinate_stays_infinite(self):
        out = exp_mix([[INF, 0.0], [INF, 1.0]], [0.5, 0.5], 1.0)
        assert out[0] == INF

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            exp_mix([], [], 1.0)

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, np.nan], [-0.5, 1.5]])
    def test_weights_off_the_simplex_rejected(self, weights):
        with pytest.raises(InvalidDistribution):
            exp_mix([[1.0, 2.0], [2.0, 1.0]], weights, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.lists(st.floats(0.0, 20.0), min_size=2, max_size=2),
                 min_size=2, max_size=4),
        st.floats(0.1, 3.0),
    )
    def test_dominance_bracket(self, points, eta):
        # min_i g_i <= mix <= sum w_i g_i, coordinatewise
        G = np.array(points)
        w = np.full(len(points), 1.0 / len(points))
        mix = exp_mix(G, w, eta)
        assert np.all(mix >= G.min(axis=0) - 1e-9)
        assert np.all(mix <= G.T @ w + 1e-9)

    def test_monotone_in_points(self):
        g1 = np.array([[1.0, 2.0], [3.0, 1.0]])
        g2 = g1 + 0.5
        w = np.array([0.3, 0.7])
        assert np.all(exp_mix(g1, w, 1.0) <= exp_mix(g2, w, 1.0) + 1e-12)


class TestSuperprediction:
    def test_log_boundary_point(self):
        g = builtin_game("log", 2)
        assert is_superprediction(g, [np.log(2), np.log(2)])

    def test_absolute_below_line(self):
        g = builtin_game("absolute", 2)
        assert not is_superprediction(g, [0.4, 0.4])
        assert is_superprediction(g, [0.5, 0.5])

    def test_all_infinite_always_member(self):
        for name in ("log", "square", "absolute"):
            g = builtin_game(name, 2)
            assert is_superprediction(g, [INF, INF])

    def test_monotone(self):
        g = builtin_game("square", 2)
        lo = np.array([0.3, 0.3])
        hi = lo + 0.2
        if is_superprediction(g, lo):
            assert is_superprediction(g, hi)
        assert is_superprediction(g, [1.0, 1.0])

    def test_negative_tol_rejected(self):
        g = builtin_game("log", 2)
        with pytest.raises(ValueError):
            is_superprediction(g, [1.0, 1.0], tol=-1.0)

    def test_numeric_gap_matches_closed_form(self):
        # dual route: grid search vs analytic membership on the log game
        g = builtin_game("log", 2)
        g_numeric = builtin_game("log", 2)
        object.__setattr__(g_numeric, "membership_gap", None)
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.uniform(0.05, 2.0, size=2)
            assert domination_gap(g_numeric, v) == pytest.approx(
                domination_gap(g, v), abs=2e-6)


class TestGridAndLse:
    def test_simplex_grid_order_documented(self):
        pts = simplex_grid(3, 2)
        # lexicographic in the composition, first coordinate slowest
        expected = np.array([
            [0, 0, 2], [0, 1, 1], [0, 2, 0],
            [1, 0, 1], [1, 1, 0], [2, 0, 0],
        ]) / 2.0
        assert np.allclose(pts, expected)

    def test_log_sum_exp_matches_scipy(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(4, 3)) * 10
            assert np.allclose(log_sum_exp(a, axis=0), logsumexp(a, axis=0))
        a = np.array([-np.inf, -np.inf])
        assert log_sum_exp(a) == -np.inf
