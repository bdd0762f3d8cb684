import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expertmix.aggregating import (
    aa_mix,
    aa_start,
    aa_step,
    log_semi_invariant,
    project_boundary,
    retraction_F,
)
from expertmix.core import domination_gap, hull_membership_gap, is_superprediction
from expertmix.errors import NotRealizable, SubstitutionFailure
from expertmix.losses import builtin_game, realizability_constant
from oracles import recording, reference_retraction

INF = np.inf
LN2 = np.log(2.0)


def advice_rows(game, decisions):
    return np.stack([game.loss_vector(np.atleast_1d(d)) for d in decisions])


class TestMix:
    def test_log_two_point_experts(self):
        g = builtin_game("log", 2)
        state = aa_start(g, eta=1.0, n_experts=2)
        mix = aa_mix(state, advice_rows(g, [0.0, 1.0]))
        assert np.allclose(mix, LN2)

    def test_single_expert_equals_advice_times_c(self):
        g = builtin_game("log", 2)
        adv = advice_rows(g, [0.3])
        state = aa_start(g, eta=1.0, c=1.0, n_experts=1)
        assert np.allclose(aa_mix(state, adv), adv[0])
        state2 = aa_start(builtin_game("absolute", 2), eta=1.0, c=1.5, n_experts=1)
        adv2 = advice_rows(builtin_game("absolute", 2), [0.3])
        assert np.allclose(aa_mix(state2, adv2), 1.5 * adv2[0])

    def test_square_mixture_value(self):
        # -(1/2) ln(0.5 e^{-0.08} + 0.5 e^{-1.28}) evaluated independently
        g = builtin_game("square", 2)
        state = aa_start(g, eta=2.0, n_experts=2)
        mix = aa_mix(state, advice_rows(g, [0.2, 0.8]))
        expect = -0.5 * np.log(0.5 * np.exp(-0.08) + 0.5 * np.exp(-1.28))
        assert mix[0] == pytest.approx(expect, abs=1e-12)
        assert mix[1] == pytest.approx(mix[0])  # symmetric expert pair

    def test_weight_scale_invariance(self):
        g = builtin_game("log", 2)
        state = aa_start(g, eta=1.0, n_experts=3)
        adv = advice_rows(g, [0.2, 0.5, 0.9])
        shifted = type(state)(
            game=state.game, c=state.c, eta=state.eta, prior=state.prior,
            log_weights=state.log_weights + 7.3,
        )
        assert np.allclose(aa_mix(state, adv), aa_mix(shifted, adv))

    def test_all_dead_experts_rejected(self):
        g = builtin_game("log", 2)
        state = aa_start(g, eta=1.0, n_experts=2)
        dead = type(state)(game=g, c=1.0, eta=1.0, prior=state.prior,
                           log_weights=np.array([-INF, -INF]))
        with pytest.raises(ZeroDivisionError):
            aa_mix(dead, advice_rows(g, [0.2, 0.5]))


class TestStep:
    def test_first_step_two_experts_predicts_half(self):
        g = builtin_game("log", 2)
        state = aa_start(g, eta=1.0, n_experts=2)
        dec, _ = aa_step(state, advice_rows(g, [0.0, 1.0]), 1)
        assert dec[0] == pytest.approx(0.5)

    def test_single_expert_is_followed_exactly(self):
        g = builtin_game("log", 2)
        state = aa_start(g, eta=1.0, n_experts=1)
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = rng.random()
            adv = advice_rows(g, [p])
            dec, state = aa_step(state, adv, int(rng.integers(0, 2)))
            assert dec[0] == pytest.approx(p, abs=1e-12)
        assert state.bound_margins()[0] == pytest.approx(0.0, abs=1e-9)

    def test_absolute_bound_alternating_outcomes(self):
        g = builtin_game("absolute", 2)
        c = realizability_constant("absolute", 1.0)
        state = aa_start(g, eta=1.0, c=c, n_experts=2)
        adv = advice_rows(g, [0.0, 1.0])
        for n in range(100):
            _, state = aa_step(state, adv, n % 2)
        # each expert errs on half the rounds
        assert np.allclose(state.per_expert_loss, 50.0)
        assert state.cumulative_loss <= c * 50.0 + c * np.log(2.0) + 1e-9
        assert np.all(state.bound_margins() <= 1e-9)

    def test_semi_invariant_never_increases(self):
        g = builtin_game("square", 2)
        state = aa_start(g, eta=2.0, n_experts=3)
        rng = np.random.default_rng(4)
        prev = log_semi_invariant(state)
        for _ in range(100):
            adv = advice_rows(g, rng.random(3))
            _, state = aa_step(state, adv, int(rng.integers(0, 2)))
            cur = log_semi_invariant(state)
            assert cur <= prev + 1e-9
            prev = cur

    def test_unrealizable_pair_raises(self):
        g = builtin_game("absolute", 2)
        state = aa_start(g, eta=1.0, c=1.0, n_experts=2)
        with pytest.raises(SubstitutionFailure):
            aa_step(state, advice_rows(g, [0.0, 1.0]), 0)

    def test_infinite_expert_loss_kills_weight(self):
        g = builtin_game("log", 2)
        state = aa_start(g, eta=1.0, n_experts=2)
        adv = advice_rows(g, [0.0, 0.5])  # expert 0 bets everything on w=0
        _, state = aa_step(state, adv, 1)
        assert state.log_weights[0] == -INF
        assert state.per_expert_loss[0] == INF
        # subsequent mixing follows the surviving expert
        dec, _ = aa_step(state, adv, 0)
        assert dec[0] == pytest.approx(0.5, abs=1e-12)


class TestProjection:
    def test_scaling_down_to_the_line(self):
        g = builtin_game("absolute", 2)
        out = project_boundary(g, [1.0, 1.0], c=2.0, eta=1.0)
        assert np.allclose(out, [0.5, 0.5], atol=1e-9)

    def test_boundary_point_fixed(self):
        g = builtin_game("absolute", 2)
        out = project_boundary(g, [0.5, 0.5], c=2.0, eta=1.0)
        assert np.allclose(out, [0.5, 0.5], atol=1e-9)

    def test_idempotent_scaling(self):
        g = builtin_game("absolute", 2)
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = rng.uniform(0.4, 2.0, size=2)
            proj = project_boundary(g, v, c=3.0, eta=1.0)
            again = project_boundary(g, proj, c=3.0, eta=1.0)
            assert np.allclose(proj, again, atol=1e-8)

    def test_not_realizable(self):
        g = builtin_game("absolute", 2)
        with pytest.raises(NotRealizable):
            project_boundary(g, [0.2, 0.2], c=1.0, eta=1.0)

    def test_result_on_boundary(self):
        g = builtin_game("square", 2)
        v = np.array([0.9, 0.8])
        proj = project_boundary(g, v, c=2.0, eta=2.0)
        assert is_superprediction(g, proj)
        assert not is_superprediction(g, proj * (1 - 1e-6), tol=0.0)


class TestRetraction:
    def test_log_example(self):
        g = builtin_game("log", 2)
        out = retraction_F(g, [LN2 + 0.5, LN2])
        assert np.allclose(out, [LN2, LN2], atol=1e-9)

    def test_minimal_point_fixed(self):
        g = builtin_game("log", 2)
        out = retraction_F(g, [LN2, LN2])
        assert np.allclose(out, [LN2, LN2], atol=1e-9)

    def test_square_corner_ascending_order(self):
        g = builtin_game("square", 2)
        out = retraction_F(g, [1.0, 1.0])
        assert np.allclose(out, [0.0, 1.0], atol=1e-9)

    def test_output_is_minimal(self):
        rng = np.random.default_rng(6)
        for name in ("log", "square"):
            g = builtin_game(name, 2)
            for _ in range(10):
                v = g.loss_vector([rng.uniform(0.2, 0.8)]) + rng.uniform(0, 1, 2)
                out = retraction_F(g, v)
                assert np.all(out <= v + 1e-9)
                assert is_superprediction(g, out)
                for w in range(2):
                    probe = out.copy()
                    probe[w] -= 1e-6
                    if probe[w] >= 0:
                        assert not is_superprediction(g, probe, tol=0.0), (name, out)

    def test_hull_retraction_for_absolute(self):
        g = builtin_game("absolute", 2)
        out = retraction_F(g, [0.6, 0.6], eta=1.0)
        # coordinate 0 first: e^-x + e^-0.6 = 1 + e^-1
        x = -np.log(1.0 + np.exp(-1.0) - np.exp(-0.6))
        assert np.allclose(out, [x, 0.6], atol=1e-9)
        assert hull_membership_gap(g, out, 1.0) <= 1e-9

    def test_infinite_coordinate_reduced(self):
        g = builtin_game("log", 2)
        out = retraction_F(g, [INF, LN2])
        assert np.allclose(out, [LN2, LN2], atol=1e-9)

    def test_rejects_non_member(self):
        g = builtin_game("absolute", 2)
        with pytest.raises(ValueError):
            retraction_F(g, [0.2, 0.2])


class TestMembershipRulePickedOnce:
    @pytest.mark.parametrize("name,eta", [("log", None), ("log", 1.0), ("square", None),
                                          ("square", 2.0), ("absolute", None),
                                          ("absolute", 1.0)])
    def test_retraction_probes_like_the_validating_reference(self, name, eta):
        probes = []
        g = recording(builtin_game(name, 2), probes)
        rng = np.random.default_rng(8)
        points = [g.loss_vector([p]) + rng.uniform(0.0, 1.0, 2) for p in rng.random(4)]
        for v in points + [np.array([INF, 2.0])]:
            probes.clear()
            want = reference_retraction(g, v, eta)
            seen = list(probes)
            probes.clear()
            assert retraction_F(g, v, eta=eta).tolist() == want.tolist()
            assert probes == seen

    def test_retraction_ignores_the_feasible_interval(self):
        # the retraction never reads the feasible interval, so one that is
        # off leaves its probes and bits as they are
        base = builtin_game("log", 2)

        def shifted(g):
            lo, hi = base.feasible_interval(g)
            return lo + 1e-6, hi + 1e-6

        probes = []
        g = recording(base, probes, feasible_interval=shifted)
        for p in (0.2, 0.5, 0.7):
            v = g.loss_vector([p]) + np.array([0.3, 0.2])
            probes.clear()
            want = reference_retraction(g, v)
            seen = list(probes)
            probes.clear()
            assert retraction_F(g, v).tolist() == want.tolist()
            assert probes == seen  # the plain path

    def test_no_hull_rule_at_eta_refused(self):
        # square loss is not mixable at eta = 3 and has no hull closed form
        with pytest.raises(ValueError, match="no hull membership rule"):
            retraction_F(builtin_game("square", 2), [1.0, 1.0], eta=3.0)


OFFSETS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0)
#: eta None (the base set), mixable etas, and for absolute loss, which is
#: mixable at no eta, its hull at eta = 1
ETAS = {"log": (None, 0.5, 1.0), "square": (None, 1.0, 2.0), "absolute": (None, 1.0)}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(name, eta) for name, etas in ETAS.items() for eta in etas]),
       st.floats(0.0, 1.0), st.tuples(st.sampled_from(OFFSETS), st.sampled_from(OFFSETS)),
       st.sampled_from([None, 0, 1]))
def test_retraction_matches_the_validating_reference(game_eta, p, offsets, inf):
    name, eta = game_eta
    g = builtin_game(name, 2)
    v = g.loss_vector([p]) + np.array(offsets)
    if inf is not None:
        v[inf] = INF
    assert retraction_F(g, v, eta=eta).tolist() == reference_retraction(g, v, eta).tolist()


#: the binary games of ETAS, and brier at m = 3 and 4 in its base set and
#: at a mixable eta
ROW_GAMES = [(name, 2, eta) for name, etas in ETAS.items() for eta in etas] + \
    [("brier", m, eta) for m in (3, 4) for eta in (None, 1.0)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ROW_GAMES),
       st.lists(st.tuples(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
                          st.lists(st.sampled_from(OFFSETS), min_size=4, max_size=4),
                          st.sampled_from([None, 0, 1, 2, 3])), min_size=1, max_size=6))
def test_rows_retraction_matches_the_reference_row_by_row(game, rows):
    """A batch's retraction is each row's, from the validating reference.
    A row is the loss vector of a decision (``p`` on a binary game, the
    normalised weights on the simplex) plus offsets, an entry maybe
    infinite."""
    name, m, eta = game
    g = builtin_game(name, m)

    def decision(x):
        x = np.array(x[:g.decision_dim])
        return x if m == 2 else x / x.sum() if x.sum() > 0 else np.full(m, 1.0 / m)

    V = np.stack([g.loss_vector(decision(x)) + np.array(offsets[:m]) for x, offsets, _ in rows])
    for r, (_, _, inf) in enumerate(rows):
        if inf is not None and inf < m:
            V[r, inf] = INF
    want = np.stack([reference_retraction(g, v, eta) for v in V])
    assert np.array_equal(retraction_F(g, V, eta=eta), want)


def test_rows_retraction_raises_for_a_non_member_row():
    g = builtin_game("log", 2)
    with pytest.raises(ValueError, match="not a superprediction"):
        retraction_F(g, np.array([[1.2, 0.5], [0.2, 0.2]]))


class TestBisectionEnds:
    @pytest.mark.parametrize("tol", [0.0, 1e-20])
    def test_retraction_below_one_ulp_ends_at_adjacent_floats(self, tol):
        g = builtin_game("log", 2)
        out = retraction_F(g, [1.2, 0.5], tol=tol)
        assert domination_gap(g, out) <= 0.0
        for w in range(2):
            below = out.copy()
            below[w] = np.nextafter(out[w], 0.0)
            assert domination_gap(g, below) > 0.0

    @pytest.mark.parametrize("tol", [0.0, 1e-20])
    def test_projection_below_one_ulp_ends_at_adjacent_floats(self, tol):
        g = builtin_game("square", 2)
        out = project_boundary(g, [1.0, 1.0], c=2.0, eta=1.0, tol=tol)
        r = out[0]
        assert out.tolist() == [r, r] and domination_gap(g, out) <= 1e-12
        assert domination_gap(g, np.nextafter(r, 0.0) * np.ones(2)) > 1e-12

    @pytest.mark.parametrize("tol", [-1.0, np.nan])
    def test_negative_or_nan_tol_refused(self, tol):
        with pytest.raises(ValueError, match="tol"):
            retraction_F(builtin_game("log", 2), [1.2, 0.5], tol=tol)
        with pytest.raises(ValueError, match="tol"):
            project_boundary(builtin_game("square", 2), [1.0, 1.0], c=2.0, eta=1.0, tol=tol)
