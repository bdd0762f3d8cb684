import functools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expertmix.core import Game, expected_loss, simplex_grid
from expertmix.defensive import default_proper_loss
from expertmix.errors import NonExtendable
from expertmix.losses import (
    ProperLoss,
    builtin_game,
    check_mixability,
    check_proper,
    direct_argmin_loss,
    generalized_entropy,
    proper_loss_from_entropy,
    realizability_constant,
)
from oracles import brier_gap_reference, brier_point_reference

INF = np.inf


def log_with_dummy_game() -> Game:
    """Binary log-loss with an extra constant-loss outcome; the standard
    example of a proper loss with no continuous extension to the corner
    where both informative outcomes have probability zero."""

    def loss(dec):
        dec = np.asarray(dec, dtype=float)
        batched = dec.ndim == 2
        p = dec[:, 0] if batched else np.atleast_1d(dec)
        l1 = np.where(p > 0, -np.log(np.where(p > 0, p, 1.0)), INF)
        l2 = np.where(p < 1, -np.log(np.where(p < 1, 1.0 - p, 1.0)), INF)
        out = np.stack([l1, l2, np.ones_like(p)], axis=-1)
        return out if batched else out[0]

    return Game(
        name="log-dummy",
        m=3,
        decision_kind="box",
        decision_dim=1,
        loss=loss,
        substitution=lambda g: np.array([np.exp(-g[0])]),
        eta_mixable_range=(0.0, 1.0),
    )


class TestBuiltinGames:
    def test_log_loss_value(self):
        g = builtin_game("log", 2)
        assert g.loss_vector([0.5])[1] == pytest.approx(np.log(2.0))

    def test_square_loss_value(self):
        g = builtin_game("square", 2)
        assert g.loss_vector([0.3])[0] == pytest.approx(0.09)

    def test_brier_three_outcomes_uniform(self):
        g = builtin_game("brier", 3)
        lv = g.loss_vector([1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(lv, 2.0 / 3.0)

    def test_mixable_ranges(self):
        assert builtin_game("log", 2).eta_mixable_range == (0.0, 1.0)
        assert builtin_game("square", 2).eta_mixable_range == (0.0, 2.0)
        assert builtin_game("brier", 3).eta_mixable_range == (0.0, 1.0)
        assert builtin_game("absolute", 2).eta_mixable_range is None

    def test_unsupported_pairs(self):
        with pytest.raises(ValueError):
            builtin_game("square", 3)
        with pytest.raises(ValueError):
            builtin_game("absolute", 5)
        with pytest.raises(ValueError):
            builtin_game("nosuch", 2)

    def test_substitution_minorizes(self):
        rng = np.random.default_rng(3)
        for name, m in (("log", 2), ("log", 3), ("square", 2), ("absolute", 2),
                        ("brier", 2), ("brier", 3), ("hellinger", 3), ("kl", 3)):
            game = builtin_game(name, m)
            for _ in range(20):
                if game.decision_kind == "box":
                    dec = rng.random(game.decision_dim)
                else:
                    dec = rng.dirichlet(np.ones(game.decision_dim))
                g = game.loss_vector(dec) + rng.uniform(0, 0.5, size=m)
                sub = game.loss_vector(game.substitution(g))
                assert np.all(sub <= g + 1e-7), (name, m, g, sub)

    def test_batch_substitution_is_row_by_row(self):
        # superpredictions, ones no decision serves, and infinite entries
        rng = np.random.default_rng(4)
        for name, m in (("log", 2), ("log", 3), ("square", 2), ("absolute", 2),
                        ("brier", 2), ("brier", 3), ("hellinger", 3), ("kl", 3)):
            game = builtin_game(name, m)
            G = rng.choice([0.0, 0.01, 0.3, 0.7, 1.0, 2.0, 5.0, np.inf], size=(40, m))
            rows = np.stack([game.substitution(g) for g in G])
            assert np.array_equal(game.substitution(G), rows, equal_nan=True), (name, m)
            if game.feasible_interval is not None:
                lo, hi = game.feasible_interval(G)
                assert np.array_equal(np.column_stack([lo, hi]),
                                      [game.feasible_interval(g) for g in G])

    def test_hellinger_loss_matches_half_squared_roots(self):
        # 0.5 * sum (sqrt(delta) - sqrt(pi))^2 == 1 - sqrt(pi(w))
        g = builtin_game("hellinger", 3)
        pi = np.array([0.5, 0.3, 0.2])
        direct = np.array([
            0.5 * np.sum((np.sqrt(np.eye(3)[w]) - np.sqrt(pi)) ** 2)
            for w in range(3)
        ])
        assert np.allclose(g.loss_vector(pi), direct)


class TestRealizabilityConstant:
    def test_closed_form_values(self):
        # direct evaluation of eta / (2 ln(2 / (1 + exp(-eta))))
        assert realizability_constant("absolute", 1.0) == pytest.approx(
            1.3161860854346588, abs=1e-12)
        assert realizability_constant("absolute", 2.0) == pytest.approx(
            1.7661005734812454, abs=1e-12)

    def test_small_eta_limit(self):
        assert realizability_constant("absolute", 1e-4) == pytest.approx(1.0, abs=1e-3)

    def test_unsupported_game(self):
        with pytest.raises(ValueError):
            realizability_constant("log", 1.0)


class TestGeneralizedEntropy:
    def test_brier_uniform(self):
        g = builtin_game("brier", 2)
        assert generalized_entropy(g, [0.5, 0.5], 1.0) == pytest.approx(0.5)

    def test_log_uniform(self):
        g = builtin_game("log", 2)
        assert generalized_entropy(g, [0.5, 0.5], 1.0) == pytest.approx(np.log(2.0))

    def test_log_point_mass(self):
        g = builtin_game("log", 2)
        assert generalized_entropy(g, [1.0, 0.0], 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_numeric_matches_closed_forms(self):
        rng = np.random.default_rng(0)
        for name, m in (("brier", 2), ("brier", 3), ("log", 2), ("log", 3)):
            game = builtin_game(name, m)
            stripped = builtin_game(name, m)
            object.__setattr__(stripped, "entropy", None)
            for _ in range(10):
                pi = rng.dirichlet(np.ones(m))
                assert generalized_entropy(stripped, pi, 1.0) == pytest.approx(
                    generalized_entropy(game, pi, 1.0), abs=1e-9), (name, m, pi)

    def test_nonmixable_eta_uses_hull_and_flags_exact(self):
        g = builtin_game("absolute", 2)
        res = generalized_entropy(g, [0.5, 0.5], 1.0, full_output=True)
        # hull closed form: both coordinates -ln((1+beta)/2), expectation same
        beta = np.exp(-1.0)
        assert res.value == pytest.approx(-np.log((1 + beta) / 2))
        assert res.exact and not res.used_mixtures
        # hull entropy sits strictly below the decision-set entropy
        assert res.value < 0.5

    def test_unknown_range_flags_approximate(self):
        g = builtin_game("hellinger", 2)
        res = generalized_entropy(g, [0.4, 0.6], 0.5, full_output=True,
                                  mixture_samples=50, seed=1)
        assert not res.exact and res.used_mixtures

    def test_surface_concave_and_nonnegative(self):
        # the mixtures drawn are a pure function of (game, eta, samples,
        # seed), so H is a minimum of fixed linear functionals: concave
        for name, m in (("log", 2), ("brier", 3), ("hellinger", 2)):
            game, rng, worst = builtin_game(name, m), np.random.default_rng(0), np.inf

            def H(p):
                return generalized_entropy(game, p, 1.0, mixture_samples=48)

            for _ in range(150):
                p1, p2, a = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m)), rng.random()
                worst = min(worst, H(a * p1 + (1.0 - a) * p2) - (a * H(p1) + (1.0 - a) * H(p2)))
            assert worst >= -1e-9, name
            rng = np.random.default_rng(0)
            assert min(H(rng.dirichlet(np.ones(m))) for _ in range(150)) >= -1e-12, name

    def test_expected_proper_loss_equals_entropy(self):
        # the canonical loss's expectation at pi is the entropy at pi
        rng = np.random.default_rng(12)
        for name, m in (("log", 2), ("brier", 3), ("hellinger", 2), ("square", 2)):
            game = builtin_game(name, m)
            pl = default_proper_loss(game, 1.0, 1.0)
            for _ in range(20):
                pi = rng.dirichlet(np.ones(m))
                assert expected_loss(pi, pl(pi)) == pytest.approx(
                    generalized_entropy(game, pi, 1.0), abs=1e-6), name


class TestProperLossConstruction:
    def test_brier_standard_form_is_the_canonical_proper_loss(self):
        g = builtin_game("brier", 3)
        pl = default_proper_loss(g, 1.0, 1.0)
        pi = np.array([0.2, 0.3, 0.5])
        assert np.allclose(pl(pi), g.loss_vector(pi))

    def test_spherical_closed_form(self):
        g = builtin_game("hellinger", 2)
        pl = default_proper_loss(g, 1.0, 1.0)
        out = pl(np.array([0.6, 0.4]))
        assert out[0] == pytest.approx(0.16794971, abs=1e-7)
        assert out[1] == pytest.approx(0.44529980, abs=1e-7)

    def test_savage_matches_closed_forms(self):
        rng = np.random.default_rng(7)
        for name, m in (("brier", 2), ("brier", 3), ("log", 2)):
            game = builtin_game(name, m)
            pl = proper_loss_from_entropy(game, 1.0, prefer_closed_form=False)
            for _ in range(10):
                pi = 0.05 + 0.9 * rng.dirichlet(np.ones(m))
                pi = pi / pi.sum()
                assert np.allclose(pl(pi), game.proper_loss(pi), atol=1e-6), (name, m)

    def test_savage_matches_direct_argmin(self):
        rng = np.random.default_rng(8)
        for name, m in (("brier", 3), ("log", 2)):
            game = builtin_game(name, m)
            pl = proper_loss_from_entropy(game, 1.0, prefer_closed_form=False)
            for _ in range(10):
                pi = 0.05 + 0.9 * rng.dirichlet(np.ones(m))
                pi = pi / pi.sum()
                am = direct_argmin_loss(game, pi, 1.0)
                assert np.allclose(pl(pi), am, atol=1e-5), (name, m, pi)

    def test_counterexample_raises_nonextendable(self):
        with pytest.raises(NonExtendable) as err:
            proper_loss_from_entropy(log_with_dummy_game(), 1.0)
        assert err.value.face == (2,)
        assert np.allclose(err.value.point, [0.0, 0.0, 1.0])

    def test_counterexample_interior_values(self):
        pl = proper_loss_from_entropy(log_with_dummy_game(), 1.0,
                                      probe_boundary=False)
        assert pl.domain_flag == "interior-only"
        pi = np.array([0.2, 0.3, 0.5])
        expect = np.array([-np.log(0.2 / 0.5), -np.log(0.3 / 0.5), 1.0])
        assert np.allclose(pl(pi), expect, atol=1e-6)

    def test_boundary_limits_minimize_at_the_limit_point(self):
        # approaching a boundary pi, the constructed loss converges to a
        # minimizer of the limiting expected loss
        rng = np.random.default_rng(9)
        game = builtin_game("brier", 3)
        pl = proper_loss_from_entropy(game, 1.0, prefer_closed_form=False)
        for _ in range(20):
            pi_b = np.zeros(3)
            alive = rng.choice(3, size=2, replace=False)
            w = rng.dirichlet(np.ones(2))
            pi_b[alive] = w
            approach = (1 - 1e-7) * pi_b + 1e-7 * np.full(3, 1 / 3)
            lim_val = expected_loss(pi_b, pl(approach))
            best = generalized_entropy(game, pi_b, 1.0)
            assert lim_val == pytest.approx(best, abs=1e-5)

    @pytest.mark.parametrize("name,c,eta", [
        ("log", 1.0, 1.0), ("square", 1.0, 2.0), ("brier", 1.0, 1.0), ("hellinger", 1.0, 1.0),
        ("kl", 1.0, 1.0), ("absolute", realizability_constant("absolute", 1.0), 1.0),
        ("absolute", 1.0, 1.0)])
    def test_binary_rows_have_the_bits_of_one_row_calls(self, name, c, eta):
        """A batch gives each row the bits its one-row call gives, so a
        block's advice can be scored in one call.  (Squaring by ``pow`` in
        a one-row call and by multiplication in a batch parted about one
        row in 1,300, 0.94093... among them.)"""
        pl = default_proper_loss(builtin_game(name, 2), c, eta)
        p = np.array([0.0, 1.0, 0.5, 0.1, 0.3, 1.0 / 3.0, 0.77, 1e-9, 1.0 - 1e-9,
                      0.9409341711576957, *np.random.default_rng(11).random(2000)])
        P = np.column_stack([1.0 - p, p])
        batch = pl(P)
        rows = np.stack([pl(row) for row in P])
        assert batch.shape == rows.shape == P.shape
        assert batch.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_absolute_hull_loss_is_the_entropy_gradient(self, eta):
        """Absolute has no canonical proper loss: at c = 1 it scores with
        its hull proper loss in closed form, the entropy gradient's values
        on the grid, endpoints included."""
        game = builtin_game("absolute", 2)
        pl, gradient = default_proper_loss(game, 1.0, eta), proper_loss_from_entropy(game, eta)
        assert pl.label == "absolute-hull"
        for p in np.linspace(0.0, 1.0, 21):
            pi = np.array([1.0 - p, p])
            assert np.all(np.isfinite(pl(pi)))
            assert np.allclose(pl(pi), gradient(pi), rtol=0.0, atol=1e-8), pi

    def test_homogeneous_extension_scales(self):
        game = builtin_game("brier", 3)

        def H(p):
            return generalized_entropy(game, p, 1.0)

        def phi(x):
            s = x.sum()
            return s * H(x / s)

        rng = np.random.default_rng(10)
        for _ in range(10):
            pi = rng.dirichlet(np.ones(3))
            base = phi(pi)
            for t in (0.5, 2.0):
                assert phi(t * pi) == pytest.approx(t * base, abs=1e-8)


class TestCheckProper:
    def test_log_brier_spherical_strictly_proper(self):
        for name, m in (("log", 2), ("brier", 2), ("brier", 3), ("hellinger", 2)):
            game = builtin_game(name, m)
            pl = default_proper_loss(game, 1.0, 1.0)
            rep = check_proper(pl, 50 if m == 2 else 25)
            assert rep.max_violation <= 1e-9, (name, m, rep)
            assert rep.strictness, (name, m)

    def test_raw_hellinger_not_proper(self):
        game = builtin_game("hellinger", 2)
        raw = ProperLoss(game=game, eta=1.0, fn=lambda pi: game.loss(pi),
                         label="raw-hellinger")
        rep = check_proper(raw, 50)
        assert rep.max_violation > 1e-4
        assert rep.witness is not None

    def test_grid_density_validation(self):
        game = builtin_game("log", 2)
        with pytest.raises(ValueError):
            check_proper(default_proper_loss(game, 1.0, 1.0), 1)


class TestCheckMixability:
    def test_log_thresholds(self):
        g = builtin_game("log", 2)
        assert check_mixability(g, 1.0, samples=150, seed=0).mixable
        rep = check_mixability(g, 1.3, samples=150, seed=0, tol=1e-6)
        assert not rep.mixable and rep.worst_gap > 1e-6

    def test_square_thresholds(self):
        g = builtin_game("square", 2)
        assert check_mixability(g, 2.0, samples=150, seed=0).mixable
        assert not check_mixability(g, 2.5, samples=150, seed=0).mixable

    def test_absolute_never_mixable(self):
        g = builtin_game("absolute", 2)
        rep = check_mixability(g, 1.0, samples=150, seed=0)
        assert not rep.mixable and rep.worst_gap > 0

    def test_brier_mixable_at_one(self):
        g = builtin_game("brier", 3)
        assert check_mixability(g, 1.0, samples=60, seed=0).mixable


GRID_SIZE = {2: 4000, 3: 300, 4: 60, 5: 24, 6: 12}  # simplex_grid steps per m


@functools.cache
def dense_grid(m):
    return simplex_grid(m, GRID_SIZE[m])


def grid_gap(game, g):
    """``max_w (loss - g)`` at the best point of a dense simplex grid: an
    infinite ``g_w`` gives ``-inf`` there, so it drops out of the max."""
    return float(np.min(np.max(game.loss(dense_grid(game.m)) - g, axis=1)))


def loss_rows(m):
    return st.lists(st.one_of(st.floats(0.0, 4.0), st.just(INF)), min_size=m, max_size=m)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(loss_rows))
@example([0.1, 3.0, 3.0])
@example([INF, INF, INF, INF])
def test_brier_gap_is_the_min_max(g):
    """Brier's closed-form gap is never above the SLSQP program's or a
    dense grid's value."""
    game, g = builtin_game("brier", len(g)), np.array(g)
    gap = game.membership_gap(g)
    assert gap <= brier_gap_reference(game, g) + 1e-12
    assert gap <= grid_gap(game, g) + 1e-12


@st.composite
def brier_superpredictions(draw):
    """A random decision's loss plus nonnegative noise, infinite at times."""
    m = draw(st.integers(2, 6))
    dec = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m).filter(
        lambda d: sum(d) > 0)))
    noise = draw(st.lists(st.one_of(st.floats(0.0, 2.0), st.just(INF)),
                          min_size=m, max_size=m))
    return builtin_game("brier", m).loss(dec / dec.sum()) + noise


@settings(max_examples=150, deadline=None)
@given(brier_superpredictions())
@example(np.array([0.1, 3.0, 3.0]))
def test_brier_substitution_dominates_a_superprediction(g):
    game = builtin_game("brier", len(g))
    pi = game.substitution(g)
    assert np.all(game.loss(pi) <= g + 1e-12)
    assert np.array_equal(game.substitution(np.stack([g, g])), [pi, pi])


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10).flatmap(
    lambda m: st.lists(loss_rows(m), min_size=1, max_size=30)))
@example([[0.1, 3.0, 3.0], [INF, INF, INF], [0.5, 0.5, 0.5]])
def test_brier_point_is_the_reductions_form(rows):
    """Brier's substitution of a batch, its sums and least level taken
    column by column, gives the bits of the reductions along the outcome
    axis, for m past numpy's eight-term unrolled sums too."""
    game, G = builtin_game("brier", len(rows[0])), np.array(rows)
    assert game.substitution(G).tobytes() == brier_point_reference(G).tobytes()


@pytest.mark.parametrize("g", [[5.0, 5.0], [3.0, INF], [2.0, 7.0], [3.0, INF, 4.0],
                               [5.0, 5.0, 5.0], [0.1, 0.2], [0.3, 0.0, 2.5]])
def test_hellinger_gap_matches_a_dense_grid(g):
    """Hellinger's gap is the min-max for every g, including those whose
    finite entries are all at least 2 (the gap is then below -1)."""
    game, g = builtin_game("hellinger", len(g)), np.array(g)
    gap, grid = game.membership_gap(g), grid_gap(game, g)
    assert grid - 0.02 <= gap <= grid + 1e-12


def test_brier_mixing_above_c_one_runs_without_warnings():
    from expertmix.harness.config import parse_config
    from expertmix.harness.runner import run_scenario

    config = parse_config({
        "game": {"name": "brier", "m": 3}, "algorithm": "aa", "c": 1.5, "horizon": 200,
        "seed": 0, "experts": [{"kind": "constant", "value": [1.0, 0.0, 0.0]},
                               {"kind": "constant", "value": [0.2, 0.3, 0.5]},
                               {"kind": "trailing-average"}],
        "reality": {"kind": "iid"}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_scenario(config).summary["bound_ok"]
