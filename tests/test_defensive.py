from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expertmix import defensive
from expertmix.aggregating import aa_mix, aa_start, aa_step
from expertmix.defensive import (
    admissible_interval,
    choose_forecast,
    default_proper_loss,
    dfa_solve_binary,
    dfa_solve_simplex,
    dfa_start,
    dfa_step,
    fixed_advice_q,
    interior_delta,
    pair_exponent,
    supermartingale_property_check,
)
from expertmix.core import expected_factor, simplex_grid
from expertmix.errors import ContractViolation, SlackExceeded, SubstitutionFailure
from expertmix.extensions import EvaluatedExpert, ml_dfa_start
from expertmix.harness.oracle import oracle_dfa_solve
from expertmix.losses import builtin_game, realizability_constant

INF = np.inf
LN2 = np.log(2.0)


def advice_rows(game, decisions):
    return np.stack([game.loss_vector(np.atleast_1d(d)) for d in decisions])


class TestQTerm:
    def test_identical_losses_cancel(self):
        g = builtin_game("square", 2)
        lam = default_proper_loss(g, 1.0, 2.0)
        assert np.exp(pair_exponent(lam(np.array([0.6, 0.4]))[1], g.loss_vector([0.4])[1],
                                    1.0, 2.0)) == 1.0

    def test_log_expert_certain(self):
        g = builtin_game("log", 2)
        lam = default_proper_loss(g, 1.0, 1.0)
        adv = g.loss_vector([1.0])  # (inf, 0)
        half = lam(np.array([0.5, 0.5]))
        assert np.exp(pair_exponent(half[1], adv[1], 1.0, 1.0)) == pytest.approx(2.0)
        assert np.exp(pair_exponent(half[0], adv[0], 1.0, 1.0)) == 0.0

    def test_product_of_terms_is_the_exponential_regret(self):
        # along a trajectory, prod q equals exp(eta (L/c - L^theta))
        g = builtin_game("log", 2)
        lam = default_proper_loss(g, 1.0, 1.0)
        rng = np.random.default_rng(2)
        c, eta = 1.0, 1.0
        log_prod = 0.0
        L, Lth = 0.0, 0.0
        for _ in range(200):
            p = rng.uniform(0.1, 0.9)
            ptheta = rng.uniform(0.1, 0.9)
            w = int(rng.integers(0, 2))
            pi = np.array([1 - p, p])
            gv = g.loss_vector([ptheta])
            log_prod += np.log(np.exp(pair_exponent(lam(pi)[w], gv[w], c, eta)))
            L += lam(pi)[w]
            Lth += gv[w]
        assert log_prod == pytest.approx(eta * (L / c - Lth), rel=1e-9)


class TestPropertyCheck:
    @pytest.mark.parametrize("eta", [0.25, 0.5, 1.0])
    def test_log_supermartingale(self, eta):
        g = builtin_game("log", 2)
        lam = default_proper_loss(g, 1.0, eta)
        rep = supermartingale_property_check(lam, 1.0, eta, g, samples=2000, seed=0)
        assert rep.max_excess <= 1e-9

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_square_supermartingale(self, eta):
        g = builtin_game("square", 2)
        lam = default_proper_loss(g, 1.0, eta)
        rep = supermartingale_property_check(lam, 1.0, eta, g, samples=2000, seed=0)
        assert rep.max_excess <= 1e-9

    def test_negative_controls(self):
        g = builtin_game("log", 2)
        lam = default_proper_loss(g, 1.0, 1.0)
        assert supermartingale_property_check(lam, 1.0, 1.3, g, samples=2000,
                                              seed=0).max_excess > 1e-4
        gs = builtin_game("square", 2)
        lams = default_proper_loss(gs, 1.0, 2.0)
        assert supermartingale_property_check(lams, 1.0, 2.5, gs, samples=2000,
                                              seed=0).max_excess > 1e-4

    def test_absolute_with_scaling_constant(self):
        g = builtin_game("absolute", 2)
        c = realizability_constant("absolute", 1.0)
        lam = default_proper_loss(g, c, 1.0)
        rep = supermartingale_property_check(lam, c, 1.0, g, samples=2000, seed=0)
        assert rep.max_excess <= 1e-9


class TestBinarySolver:
    def test_single_certain_expert(self):
        g = builtin_game("log", 2)
        state = dfa_start(g, eta=1.0, n_experts=1)
        q = fixed_advice_q(state, advice_rows(g, [1.0]))
        p = dfa_solve_binary(q, 1.0)
        assert p == 1.0

    def test_two_point_experts_meet_at_half(self):
        g = builtin_game("log", 2)
        state = dfa_start(g, eta=1.0, n_experts=2)
        q = fixed_advice_q(state, advice_rows(g, [0.0, 1.0]))
        p = dfa_solve_binary(q, 1.0, tol=1e-12)
        assert p == pytest.approx(0.5, abs=1e-9)

    def test_constant_q_early_exit(self):
        assert dfa_solve_binary(lambda P: np.ones((len(P), 2)), 1.0) == 0.0

    def test_deterministic(self):
        g = builtin_game("square", 2)
        state = dfa_start(g, eta=2.0, n_experts=2)
        q = fixed_advice_q(state, advice_rows(g, [0.3, 0.9]))
        assert dfa_solve_binary(q, 1.0) == dfa_solve_binary(q, 1.0)

    def test_contract_violation_detected(self):
        # q(0,1) > C but q(0,0) even larger: not a supermartingale term
        def bad(P):
            return np.column_stack([3.0 - P[:, 1], 2.0 + P[:, 1]])

        with pytest.raises(ContractViolation):
            dfa_solve_binary(bad, 1.0)

    def test_interval_contains_root_and_midpoint(self):
        g = builtin_game("square", 2)
        state = dfa_start(g, eta=2.0, n_experts=2)
        q = fixed_advice_q(state, advice_rows(g, [0.3, 0.9]))
        lo, hi = admissible_interval(q, 1.0, tol=1e-10)
        root = dfa_solve_binary(q, 1.0, tol=1e-12)
        assert lo - 1e-9 <= root <= hi + 1e-9
        mid = 0.5 * (lo + hi)
        assert np.max(q(np.array([1 - mid, mid]))) <= 1.0 + 1e-9


def reference_interval(q, C, tol):
    """The one-level-per-call bisection (two q points per call) whose
    endpoints ``admissible_interval`` reproduces bit for bit."""
    q0, q1 = np.asarray(q(np.eye(2)), dtype=float)
    if q0[0] > C * (1.0 + 1e-9) + 1e-12 or q1[1] > C * (1.0 + 1e-9) + 1e-12:
        raise ContractViolation("expectation bound fails at an endpoint")
    lo_done = q0[1] <= C
    hi_done = q1[0] <= C
    a_lo, b_lo = 0.0, 1.0  # crossing of q(., 1)
    a_hi, b_hi = 0.0, 1.0  # crossing of q(., 0)
    while (not lo_done and b_lo - a_lo > tol) or (not hi_done and b_hi - a_hi > tol):
        m_lo = 0.5 * (a_lo + b_lo)
        m_hi = 0.5 * (a_hi + b_hi)
        P = np.array([[1.0 - m_lo, m_lo], [1.0 - m_hi, m_hi]])
        qv = np.asarray(q(P), dtype=float)
        if not lo_done:
            if qv[0, 1] <= C:
                b_lo = m_lo
            else:
                a_lo = m_lo
        if not hi_done:
            if qv[1, 0] <= C:
                a_hi = m_hi
            else:
                b_hi = m_hi
    lo, hi = (0.0 if lo_done else b_lo), (1.0 if hi_done else a_hi)
    if hi < lo:
        lo = hi = 0.5 * (lo + hi)
    return lo, hi


def reference_root(q, C, tol, max_iter=200):
    """The one-level-per-call bisection (one q point per call) whose root
    ``dfa_solve_binary`` reproduces bit for bit."""
    q0, q1 = np.asarray(q(np.eye(2)), dtype=float)
    if q0[1] <= C:
        return 0.0
    if q1[0] <= C:
        return 1.0
    h0 = q0[1] - q0[0]
    h1 = q1[1] - q1[0]
    if not (h0 > 0.0 and h1 < 0.0):
        raise ContractViolation("endpoint analysis failed")
    lo, hi = 0.0, 1.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        qm = np.asarray(q(np.array([[1.0 - mid, mid]])), dtype=float)[0]
        h = qm[1] - qm[0]
        if abs(h) <= tol:
            return mid
        if h > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17:
            break
    raise ContractViolation("bisection failed to equalize the coordinates")


#: binary games with the (c, eta) at which their fixed-advice q is a
#: supermartingale term
BINARY = {"log": (1.0, 1.0), "square": (1.0, 2.0),
          "absolute": (realizability_constant("absolute", 1.0), 1.0)}


@pytest.mark.parametrize("depth", range(1, 13))
def test_nodes_are_the_bisection_midpoints(depth):
    """``_nodes`` gives all ``2**depth + 1`` nodes, each the bits of
    :func:`defensive._row_nodes`' level-by-level midpoints, on brackets
    whose nodes are exact (the ramp) and on ones where they are not."""
    for a, b in [(0.0, 1.0), (0.25, 0.5), (0.5, 0.5 + 2.0 ** -40), (0.0, 2.0 ** -1000),
                 (0.1, 0.7), (1.0 / 3.0, 0.5), (0.3, 0.3 + 1e-15), (1e-310, 3e-310)]:
        got = defensive._nodes(a, b, depth)
        want = defensive._row_nodes(np.array([a]), np.array([b]), depth)[0]
        assert len(got) == 2 ** depth + 1 and got.tobytes() == want.tobytes(), (a, b)


class TestBatchedBisection:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(BINARY)),
           rows=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                                   st.one_of(st.sampled_from([0.0, 1.0]),
                                             st.floats(0.0, 1.0))),
                         min_size=1, max_size=6).filter(
               lambda rows: sum(w for w, _ in rows) > 0),
           tol=st.sampled_from([1e-9, 1e-12, 2.0 ** -52, 0.3, 2.0]))
    def test_endpoints_equal_the_reference_bisection(self, name, rows, tol):
        # log advice at decision 0 or 1 has an infinite entry
        game = builtin_game(name, 2)
        c, eta = BINARY[name]
        weights, decisions = (np.array(col) for col in zip(*rows))
        state = dfa_start(game, eta=eta, c=c, prior=weights / weights.sum())
        q = fixed_advice_q(state, advice_rows(game, decisions))
        seen = {admissible_interval: set(), reference_interval: set()}

        def run(solve):
            def q_seen(P):
                seen[solve].update(map(tuple, P.tolist()))
                return q(P)
            return solve(q_seen, 1.0, tol)

        assert run(admissible_interval) == run(reference_interval)
        # every forecast the reference reads is among the batched nodes
        assert seen[reference_interval] <= seen[admissible_interval]

    @pytest.mark.parametrize("solve", [admissible_interval, reference_interval])
    def test_contract_violation_detected(self, solve):
        # q(0, 0) = 2 > C: the expectation bound fails at p = 0
        def bad(P):
            return np.column_stack([2.0 + P[:, 1], 2.0 - P[:, 1]])

        with pytest.raises(ContractViolation):
            solve(bad, 1.0, 1e-9)

    def test_six_q_calls_per_interval(self):
        g = builtin_game("log", 2)
        q = fixed_advice_q(dfa_start(g, eta=1.0, n_experts=3),
                           advice_rows(g, [0.2, 0.5, 0.9]))
        calls = {admissible_interval: 0, reference_interval: 0}

        def counted(solve):
            def q_counted(P):
                calls[solve] += 1
                return q(P)
            return solve(q_counted, 1.0, 1e-9)

        assert counted(admissible_interval) == counted(reference_interval)
        assert calls[admissible_interval] <= 6 and calls[reference_interval] == 31

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 1e-17, 2.0 ** -53, np.nan, np.inf])
    @pytest.mark.parametrize("solve", [admissible_interval, dfa_solve_binary])
    def test_unreachable_tol_refused(self, solve, tol):
        g = builtin_game("square", 2)
        q = fixed_advice_q(dfa_start(g, eta=2.0, n_experts=2), advice_rows(g, [0.3, 0.9]))
        with pytest.raises(ValueError, match="tol"):
            solve(q, 1.0, tol)


#: evaluator (loss, c, eta) groups of the root's property test
EVALUATORS = [default_proper_loss(builtin_game(name, 2), 1.0, eta)
              for name, eta in (("log", 1.0), ("square", 2.0))]
weights = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
forecasts = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def root_problems(draw):
    """A binary q for the root: a standard or an evaluator fixed-advice
    session (priors with zeros; log advice at 0 or 1 is infinite; an
    evaluator session of mirrored pairs has its root at 1/2), a step in h
    that never gets under tol (NaN on a window after the step), or a line h
    so steep that the bracket gets 1e-17 wide first near 0 (its root
    anywhere, or at a dyadic node)."""
    kind = draw(st.sampled_from(["standard", "evaluator", "mirrored", "step", "steep"]))
    if kind in ("step", "steep"):
        a = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-15),
                           st.integers(1, 2 ** 12 - 1).map(lambda k: k / 2 ** 12)))
        w, slope = draw(st.sampled_from([0.0, 0.1])), draw(st.sampled_from([1e3, 1e12, 1e20]))

        def q(P):
            p = P[:, 1]
            if kind == "steep":
                h = slope * (a - p)
            else:
                h = np.where(p < a, 1.0, np.where(p < a + w, np.nan, -1.0))
            return np.column_stack([1.0 - 0.5 * h, 1.0 + 0.5 * h])
        return q
    if kind == "standard":
        name = draw(st.sampled_from(sorted(BINARY)))
        game, (c, eta) = builtin_game(name, 2), BINARY[name]
        rows = draw(st.lists(st.tuples(weights, forecasts), min_size=1, max_size=6).filter(
            lambda rows: sum(w for w, _ in rows) > 0))
        w, decisions = (np.array(col) for col in zip(*rows))
        state = dfa_start(game, eta=eta, c=c, prior=w / w.sum())
        return fixed_advice_q(state, advice_rows(game, decisions))
    rows = draw(st.lists(st.tuples(st.integers(0, 1), weights, forecasts),
                         min_size=1, max_size=6).filter(
        lambda rows: sum(w for _, w, _ in rows) > 0))
    if kind == "mirrored":
        rows += [(i, wt, 1.0 - p) for i, wt, p in rows]
    spec, w, ps = (np.array(col) for col in zip(*rows))
    experts = [EvaluatedExpert(EVALUATORS[i], 1.0, EVALUATORS[i].eta, wt)
               for i, wt in zip(spec, w / w.sum())]
    state = ml_dfa_start(experts, 2, verify=False)
    G = np.stack([EVALUATORS[i](np.array([1.0 - p, p])) for i, p in zip(spec, ps)])
    return fixed_advice_q(state, G)


def outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except ContractViolation as exc:
        return type(exc)


def six_levels_a_call(levels):
    """The q calls of a root that walks ``levels`` levels with six levels a
    call after a first call of ``p = 0, 1, 1/2``."""
    return 1 + -(-max(levels - 1, 0) // 6)


def sabotaged(where):
    """A :func:`defensive._root_estimate` that is always wrong: the mirror
    image of the true estimate in the bracket, or one of the bracket's
    ends, each claimed certain, so that its path turns the wrong way."""
    estimate = defensive._root_estimate

    def wrong(lo, hi, h_at):
        got = estimate(lo, hi, h_at)
        r = 0.5 * (lo + hi) if got is None else got[0]
        return {"mirror": lo + (hi - r), "low end": lo, "high end": hi}[where], 0.0, 1.0
    return wrong


class TestBatchedRoot:
    @settings(max_examples=300, deadline=None)
    @given(q=root_problems(), tol=st.sampled_from([1e-9, 1e-12, 2.0 ** -52, 0.3]),
           max_iter=st.sampled_from([0, 1, 7, 13, 200]), table=st.booleans(),
           sabotage=st.sampled_from([None, "mirror", "low end", "high end"]))
    def test_root_equals_the_reference_bisection(self, q, tol, max_iter, table, sabotage):
        """The root and its q row are the reference's, bit for bit, from a
        first batch of ``p = 0, 1, 1/2`` or the whole table (read from the
        evaluator groups' tables for an evaluator q), with the predicted
        path or a predictor that is always wrong, and in no more q calls
        than six levels a call."""
        seen = {dfa_solve_binary: [], reference_root: []}

        def run(solve, **kwargs):
            def q_seen(P):
                seen[solve].append(P.tolist())
                return q(P)
            return outcome(solve, q_seen, 1.0, tol, max_iter, **kwargs)

        with mock.patch.object(defensive, "_root_estimate",
                               sabotaged(sabotage) if sabotage else defensive._root_estimate):
            got = run(dfa_solve_binary, full_output=True, table=table)
        want = run(reference_root)
        root = got if isinstance(got, type) else got[0]
        assert root == want and type(root) is type(want)
        if not isinstance(got, type):  # the row the root's batch holds is q's own at it
            assert got[1].tobytes() == np.asarray(q(np.array([[1.0 - root, root]])))[0].tobytes()
        # every forecast the reference reads is among the batched nodes
        batched = {tuple(x) for P in seen[dfa_solve_binary] for x in P}
        assert {tuple(x) for P in seen[reference_root] for x in P} <= batched
        assert len(seen[dfa_solve_binary]) <= six_levels_a_call(len(seen[reference_root]) - 1)

    def test_q_calls_per_root(self):
        g = builtin_game("log", 2)
        q = fixed_advice_q(dfa_start(g, eta=1.0, n_experts=3),
                           advice_rows(g, [0.2, 0.5, 0.9]))
        calls = []

        def counted(P):
            calls.append(len(P))
            return q(P)

        def count(solve, *args, **kwargs):
            calls.clear()
            return solve(counted, *args, **kwargs), len(calls)

        (root, n), (want, n_ref) = (count(dfa_solve_binary, 1.0, 1e-9),
                                    count(reference_root, 1.0, 1e-9))
        assert root == want and n <= 6 and n_ref == 30
        # the root's slack is read from the solver's last batch
        assert count(choose_forecast, 2, select="root")[1] <= 6

    def test_root_at_one_half_costs_one_call(self):
        g = builtin_game("log", 2)
        q = fixed_advice_q(dfa_start(g, eta=1.0, n_experts=2), advice_rows(g, [0.0, 1.0]))
        calls = []
        assert dfa_solve_binary(lambda P: calls.append(P) or q(P), 1.0) == 0.5
        assert len(calls) == 1
        calls.clear()
        pi, slack = choose_forecast(lambda P: calls.append(P) or q(P), 2, select="root")
        assert pi.tolist() == [0.5, 0.5] and len(calls) == 1
        assert slack == max(0.0, float(np.max(q(pi[None, :]))) - 1.0)


@st.composite
def interval_blocks(draw):
    """A block of 1-8 rows of one binary game's fixed-advice q, each row
    its own posterior over the same k experts and its own advice."""
    name = draw(st.sampled_from(["log", "square"]))
    k = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.tuples(weights, forecasts), min_size=k, max_size=k).filter(
        lambda row: sum(w for w, _ in row) > 0), min_size=1, max_size=8))
    return name, rows


class TestAAPointForecasts:
    @settings(max_examples=150, deadline=None)
    @given(block=interval_blocks())
    def test_forecasts_are_aa_decisions_at_the_admissible_midpoint(self, block):
        """At c = 1 under the canonical proper loss a block's forecast is
        AA's substituted decision, bit for bit, and lies within ``2**-30``
        of the bisected admissible interval's midpoint.  (Square's ``q(p,
        0) = exp(eta (p^2 - gamma_0))`` is flat near ``p = 0``, and ``q(p,
        1)`` near ``p = 1``: where the closed-form interval ends within
        1e-7 of there, q rounds to 1.0 a little past that end, so the
        bisection's interval is wider, and the forecast lies in it.)"""
        # log advice at decision 0 or 1 has an infinite entry
        name, rows = block
        game = builtin_game(name, 2)
        c, eta = BINARY[name]
        w = np.array([[wt for wt, _ in row] for row in rows])
        with np.errstate(divide="ignore"):
            lwn = np.log(w / w.sum(axis=1, keepdims=True))
        A = np.stack([advice_rows(game, [d for _, d in row]) for row in rows])
        state = dfa_start(game, eta=eta, c=c, n_experts=A.shape[1])
        pi, _, qpi, served = defensive._block_forecasts(state, lwn, A, 1e-6, 1e-9, "midpoint")
        gamma = aa_mix(state, A, lwn)
        decisions = game.substitution(gamma)
        ends = game.feasible_interval(gamma)
        flat = (name == "square") & ((ends[1] < 1e-7) | (ends[0] > 1.0 - 1e-7))
        assert pi[:, 1].tobytes() == decisions[:, 0].tobytes()
        assert pi[:, 0].tobytes() == (1.0 - decisions[:, 0]).tobytes()
        q = fixed_advice_q(state, A, lwn)
        assert qpi.tobytes() == q(pi, np.arange(len(rows))).tobytes()
        # a row that AA's point misses is one whose mix rounds past the
        # closed form (an expert within ~1e-16 of another: log_mix rounds
        # exp(-1e-17) to 1), and is solved on its own
        assert np.all(served == (qpi.max(axis=1) <= 1.0 + 1e-6 + 1e-9))
        for r in np.flatnonzero(served):
            p = pi[r, 1]
            lo, hi = reference_interval(lambda P: q(P, np.full(len(P), r)), 1.0, 1e-9)
            assert lo - 2.0 ** -30 <= p <= hi + 2.0 ** -30
            assert flat[r] or abs(p - 0.5 * (lo + hi)) <= 2.0 ** -30


def reference_check(proper, c, eta, game, samples=2000, seed=0, grid=25):
    """The per-sample loop whose worst sample
    ``supermartingale_property_check`` reproduces with one batch."""
    rng = np.random.default_rng(seed)
    pis, decs = [], []
    if game.m == 2:
        ps = np.linspace(0.0, 1.0, grid)
        for p in ps:
            for q in ps:
                pis.append(np.array([1.0 - p, p]))
                decs.append(np.array([q]) if game.decision_kind == "box"
                            else np.array([1.0 - q, q]))
    else:
        G = simplex_grid(game.m, min(grid, 8))
        for pi in G:
            for dec in G:
                pis.append(pi)
                decs.append(dec)
    for _ in range(max(0, samples - len(pis))):
        pis.append(rng.dirichlet(np.ones(game.m)))
        decs.append(rng.random(game.decision_dim) if game.decision_kind == "box"
                    else rng.dirichlet(np.ones(game.decision_dim)))
    worst, worst_pi, worst_dec = -np.inf, None, None
    for pi, dec in zip(pis, decs):
        e = expected_factor(pi, proper(pi), game.loss_vector(dec), c, eta) - 1.0
        if e > worst:
            worst, worst_pi, worst_dec = e, pi, dec
    return worst, worst_pi, worst_dec


class TestBatchedPropertyCheck:
    @pytest.mark.parametrize("name,m,c,eta,check_eta", [
        ("log", 2, 1.0, 1.0, 1.0), ("log", 2, 1.0, 1.0, 1.3),
        ("square", 2, 1.0, 2.0, 2.0), ("square", 2, 1.0, 2.0, 2.5),
        ("absolute", 2, realizability_constant("absolute", 1.0), 1.0, 1.0),
        ("brier", 3, 1.0, 1.0, 1.0)])
    def test_batch_finds_the_per_sample_worst(self, name, m, c, eta, check_eta):
        # check_eta above eta (past the mixability threshold) must be flagged
        game = builtin_game(name, m)
        lam = default_proper_loss(game, c, eta)
        rep = supermartingale_property_check(lam, c, check_eta, game, samples=2000, seed=0)
        worst, worst_pi, worst_dec = reference_check(lam, c, check_eta, game)
        assert rep.max_excess == pytest.approx(worst, rel=0.0, abs=1e-12)
        np.testing.assert_array_equal(rep.worst_pi, worst_pi)
        np.testing.assert_array_equal(rep.worst_decision, worst_dec)
        assert rep.holds is (check_eta == eta)


class TestSimplexSolver:
    def test_delta_from_epsilon(self):
        eps = 1e-6
        d = interior_delta(eps, 3)
        assert 1.0 / (1.0 - d * 2) <= 1.0 + eps + 1e-15

    def test_constant_q_accepts_barycenter(self):
        out = dfa_solve_simplex(lambda P: np.full((len(P), 3), 0.9), 1.0, 3)
        assert np.allclose(out, 1.0 / 3.0)

    def test_single_barycenter_expert(self):
        g = builtin_game("brier", 3)
        state = dfa_start(g, eta=1.0, n_experts=1)
        adv = np.stack([g.loss_vector(np.full(3, 1 / 3))])
        qbatch = fixed_advice_q(state, adv)
        out = dfa_solve_simplex(qbatch, 1.0, 3)
        assert np.allclose(out, 1.0 / 3.0)

    def test_binary_reduction_matches_binary_solver(self):
        g = builtin_game("kl", 2)  # simplex-kind binary game
        state = dfa_start(g, eta=1.0, n_experts=2)
        adv = np.stack([g.loss_vector([1.0, 0.0]), g.loss_vector([0.0, 1.0])])
        qbatch = fixed_advice_q(state, adv)
        eps = 1e-6
        out = dfa_solve_simplex(qbatch, 1.0, 2, epsilon=eps)
        delta = interior_delta(eps, 2)
        assert abs(out[1] - 0.5) <= delta + 1e-6

    def test_stall_raises_slack_exceeded(self):
        with pytest.raises(SlackExceeded, match="interior solve stalled") as err:
            dfa_solve_simplex(lambda P: np.full((len(P), 3), 2.0), 1.0, 3)
        assert err.value.best_value == 2.0
        np.testing.assert_array_equal(err.value.best_point, np.full(3, 1 / 3))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_labels_keep_off_their_faces(self, m):
        """Sperner's boundary condition, whatever q's values: no point on the
        face ``k_w = 0`` takes label w, so the Kuhn triangulation (n**(m-1)
        cells) holds an odd number of fully labelled cells."""
        n, k, cells = defensive._kuhn_grid(m)
        assert len(cells) == n ** (m - 1) and np.all(k.sum(axis=1) == n)
        rng = np.random.default_rng(m)
        for _ in range(20):
            vals = rng.choice([0.5, 1.0, 2.0, INF, np.nan], size=k.shape)
            labels = defensive._labels(k, vals)
            assert np.all(k[np.arange(len(k)), labels] > 0)
            full = np.bitwise_or.reduce(1 << labels[cells], axis=1) == (1 << m) - 1
            assert full.sum() % 2 == 1

    @pytest.mark.parametrize("loss, m", [("log", 3), ("brier", 3), ("hellinger", 4)])
    def test_one_q_call_per_level(self, loss, m):
        """The barycentre, then one q call of the whole grid per level."""
        proper = default_proper_loss(builtin_game(loss, m), 1.0, 1.0)
        rng = np.random.default_rng(1)
        state = ml_dfa_start([EvaluatedExpert(proper, 1.0, 1.0, 0.5)] * 2, m, verify=False)
        q = fixed_advice_q(state, proper(rng.dirichlet(np.ones(m), size=2)))
        calls = []

        def counted(P):
            calls.append(len(P))
            return q(P)

        pi = dfa_solve_simplex(counted, 1.0, m)
        assert np.max(q(pi[None])) <= 1.0 + 1e-6 + 1e-9
        assert calls[0] == 1 and 1 < len(calls) <= 1 + defensive._LEVELS
        assert calls[1:] == [len(defensive._kuhn_grid(m)[1])] * (len(calls) - 1)
        with pytest.raises(SlackExceeded):
            dfa_solve_simplex(lambda P: counted(P) + 1.0, 1.0, m)
        assert len(calls) - calls.index(1, 1) == 1 + defensive._LEVELS


#: the evaluator losses of the solver's property test
SOLVER_LOSSES = ["log", "brier", "kl", "hellinger"]
#: dense grid subdivisions for the property test, by outcome count
DENSE = {3: 150, 4: 40}


@st.composite
def evaluator_qs(draw):
    """An evaluator q at m = 3 or 4 from :func:`fixed_advice_q`: one to
    four experts, each judged by its own loss, with random advice and a
    random posterior."""
    m = draw(st.sampled_from([3, 4]))
    losses = draw(st.lists(st.sampled_from(SOLVER_LOSSES), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    propers = {loss: default_proper_loss(builtin_game(loss, m), 1.0, 1.0) for loss in losses}
    state = ml_dfa_start([EvaluatedExpert(propers[loss], 1.0, 1.0, 1 / len(losses))
                          for loss in losses], m, verify=False)
    advice = rng.dirichlet(np.full(m, draw(st.sampled_from([0.3, 1.0, 3.0]))), size=len(losses))
    G = np.stack([propers[loss](d) for loss, d in zip(losses, advice)])
    posterior = rng.dirichlet(np.ones(len(losses)))
    with np.errstate(divide="ignore"):
        return fixed_advice_q(state, G, np.log(posterior)), m


@settings(max_examples=60, deadline=None)
@given(case=evaluator_qs())
def test_simplex_solver_finds_what_a_dense_grid_finds(case):
    """Wherever a dense grid holds a point with room to spare under the
    target, the solver returns a delta-interior point under it."""
    q, m = case
    eps, tol = 1e-6, 1e-9
    target = (1.0 + eps) + tol
    with np.errstate(invalid="ignore"):
        dense = np.max(q(simplex_grid(m, DENSE[m])), axis=1)
    if not np.any(dense <= target - 1e-4):
        return
    pi = dfa_solve_simplex(q, 1.0, m, eps, tol)
    assert np.all(pi >= interior_delta(eps, m)) and abs(pi.sum() - 1.0) <= 1e-12
    assert np.max(q(pi[None])) <= target


class TestOracleAgreement:
    def test_binary_log_two_experts(self):
        g = builtin_game("log", 2)
        state = dfa_start(g, eta=1.0, n_experts=2)
        qrow = fixed_advice_q(state, advice_rows(g, [0.0, 1.0]))
        grid = 10_000
        pi_star = oracle_dfa_solve(lambda pi: qrow(pi), 1.0, 2, grid)
        assert abs(pi_star[1] - 0.5) <= 2.0 / grid
        p = dfa_solve_binary(qrow, 1.0, tol=1e-12)
        assert abs(p - pi_star[1]) <= 2.0 / grid

    def test_binary_square_asymmetric(self):
        g = builtin_game("square", 2)
        state = dfa_start(g, eta=2.0, n_experts=2)
        qrow = fixed_advice_q(state, advice_rows(g, [0.3, 0.9]))
        grid = 4000
        pi_star = oracle_dfa_solve(lambda pi: qrow(pi), 1.0, 2, grid)
        p = dfa_solve_binary(qrow, 1.0, tol=1e-12)
        v_solver = float(np.max(qrow(np.array([1 - p, p]))))
        v_oracle = float(np.max(qrow(pi_star)))
        assert v_solver <= v_oracle + 1e-9

    def test_simplex_brier_barycenter(self):
        g = builtin_game("brier", 3)
        state = dfa_start(g, eta=1.0, n_experts=1)
        adv = np.stack([g.loss_vector(np.full(3, 1 / 3))])
        qrow = qbatch = fixed_advice_q(state, adv)
        pi = dfa_solve_simplex(qbatch, 1.0, 3, epsilon=1e-6, tol=1e-9)
        pi_star = oracle_dfa_solve(lambda x: qrow(x), 1.0, 3, grid=60)
        v_solver = float(np.max(qrow(pi)))
        v_oracle = float(np.max(qrow(pi_star)))
        assert v_solver <= v_oracle + (1 + 1e-6) * 1e-9 + 0.05 / 60

    def test_oracle_tie_break_documented_order(self):
        pi = oracle_dfa_solve(lambda x: np.zeros(3), 1.0, 3, grid=10)
        assert np.allclose(pi, [0.0, 0.0, 1.0])  # first point of the grid

    def test_oracle_grid_validation(self):
        with pytest.raises(ValueError):
            oracle_dfa_solve(lambda x: np.zeros(2), 1.0, 2, grid=5)


class TestDFAStep:
    def test_two_point_experts_predict_half(self):
        g = builtin_game("log", 2)
        state = dfa_start(g, eta=1.0, n_experts=2)
        dec, state, slack = dfa_step(state, advice_rows(g, [0.0, 1.0]), 1)
        assert dec[0] == pytest.approx(0.5, abs=1e-9)
        assert slack <= 1e-9

    def test_single_expert_tracked_exactly(self):
        g = builtin_game("log", 2)
        state = dfa_start(g, eta=1.0, n_experts=1)
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.uniform(0.05, 0.95)
            dec, state, _ = dfa_step(state, advice_rows(g, [p]), int(rng.integers(0, 2)))
            assert dec[0] == pytest.approx(p, abs=1e-7)
        assert state.bound_margins()[0] <= 1e-7

    def test_square_adversarial_three_experts(self):
        g = builtin_game("square", 2)
        state = dfa_start(g, eta=2.0, n_experts=3)
        adv = advice_rows(g, [0.1, 0.5, 0.9])
        for n in range(500):
            dec = dfa_step(state, adv, 0)[0]
            w = 1 if dec[0] < 0.5 else 0
            _, state, _ = dfa_step(state, adv, w)
        best = float(np.min(state.per_expert_loss))
        bound = 0.5 * np.log(3.0) + (1.0 / 2.0) * state.slack_log_total
        assert state.cumulative_loss - best <= bound + 1e-7
        assert np.all(state.bound_margins() <= 1e-7)

    def test_supermartingale_never_increases(self):
        g = builtin_game("log", 2)
        state = dfa_start(g, eta=1.0, n_experts=4)
        rng = np.random.default_rng(3)
        prev = state.log_supermartingale
        for _ in range(200):
            adv = advice_rows(g, rng.random(4))
            _, state, slack = dfa_step(state, adv, int(rng.integers(0, 2)))
            assert state.log_supermartingale <= prev + np.log1p(slack) + 1e-9
            prev = state.log_supermartingale
        assert state.log_supermartingale <= state.slack_log_total + 1e-9

    def test_unrealizable_absolute_raises(self):
        g = builtin_game("absolute", 2)
        state = dfa_start(g, eta=1.0, c=1.0, n_experts=2)
        with pytest.raises(SubstitutionFailure):
            dfa_step(state, advice_rows(g, [0.0, 1.0]), 0)

    def test_infinite_advice_coordinate(self):
        # all experts certain of outcome 1, which then happens: weights survive
        g = builtin_game("log", 2)
        state = dfa_start(g, eta=1.0, n_experts=2)
        adv = advice_rows(g, [1.0, 1.0])
        dec, state, _ = dfa_step(state, adv, 1)
        assert dec[0] == pytest.approx(1.0)
        assert np.all(np.isfinite(state.log_weights))


class TestEquivalenceWithMixing:
    @pytest.mark.parametrize("name,eta", [("log", 1.0), ("square", 2.0)])
    def test_predictions_coincide_on_random_trajectories(self, name, eta):
        game = builtin_game(name, 2)
        rng = np.random.default_rng(42)
        K = 4
        sa = aa_start(game, eta=eta, n_experts=K)
        sd = dfa_start(game, eta=eta, n_experts=K)
        worst = 0.0
        for _ in range(200):
            adv = advice_rows(game, rng.random(K))
            w = int(rng.integers(0, 2))
            dd, sd, _ = dfa_step(sd, adv, w)
            da, sa = aa_step(sa, adv, w)
            worst = max(worst, abs(float(da[0]) - float(dd[0])))
        assert worst <= 1e-6
