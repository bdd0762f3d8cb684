"""Game-theoretic supermartingales and the defensive forecasting step.

The per-step factor is ``q_g(pi, w) = exp(eta (lambda(pi, w)/c - g(w)))``;
a forecast distribution is chosen so that the prior-weighted product of
these factors cannot grow, whatever the outcome.  The binary solver is
one bisection with two selection rules, the midpoint of the admissible
interval and the root of ``h(p) = q(p, 1) - q(p, 0)``: each q call holds
the nodes of the next six levels of every bracket, and the bisection
replays over their values.  For three or more outcomes the solve runs on
the delta-interior of the simplex with an explicit epsilon slack that is
surfaced and accumulated into the regret audit instead of being ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .aggregating import (_advice_matrix, aa_mix, project_boundary, substitute,
                          substituted_rounds)
from .core import (Game, Proposal, Rounds, Session, _batch_losses, as_losses, as_probs,
                   log_mix, log_sum_exp, pair_exponent, simplex_grid, start_session)
from .errors import ContractViolation, SlackExceeded
from .losses import ProperLoss, proper_loss_from_entropy


def q_term(proper: ProperLoss, c: float, eta: float, g, pi, omega: int) -> float:
    """One supermartingale factor ``exp(eta (lambda(pi, omega)/c - g(omega)))``."""
    lam = proper(as_probs(pi))[omega]
    gw = as_losses(g)[omega]
    return float(np.exp(pair_exponent(np.array(lam), np.array(gw), c, eta)))


def default_proper_loss(game: Game, c: float, eta: float) -> ProperLoss:
    """The loss parameterization used by the forecasting step.

    With ``c == 1`` this is the game's canonical proper loss (or the
    entropy-gradient construction when no closed form exists).  With
    ``c > 1`` it is the hull proper loss pushed to the boundary of the
    superprediction set by the radial projection, which is what makes the
    factors supermartingales for non-mixable games.
    """
    if c == 1.0:
        return proper_loss_from_entropy(game, eta)
    if game.boundary_proper_loss is not None:
        def fn(pi: np.ndarray) -> np.ndarray:
            return game.boundary_proper_loss(np.asarray(pi, dtype=float), c, eta)
    elif game.hull_proper_loss is not None:
        def fn(pi: np.ndarray) -> np.ndarray:
            pi = np.asarray(pi, dtype=float)
            if pi.ndim == 2:
                return np.stack([fn(row) for row in pi])
            lam_hull = game.hull_proper_loss(pi, eta)
            return project_boundary(game, lam_hull, c, eta)
    else:
        raise ValueError(
            f"game {game.name!r} supplies no hull proper loss; "
            "a c > 1 session needs one"
        )

    return ProperLoss(game=game, eta=eta, fn=fn, domain_flag="whole-simplex",
                      label=f"{game.name}-boundary(c={c})")


# ---------------------------------------------------------------------------
# Supermartingale property audit


@dataclass(frozen=True)
class SupermartingaleReport:
    max_excess: float
    worst_pi: np.ndarray
    worst_decision: np.ndarray

    @property
    def holds(self) -> bool:
        return self.max_excess <= 1e-9


def supermartingale_property_check(proper: ProperLoss, c: float, eta: float,
                                   game: Game, samples: int = 2000,
                                   *, seed: int = 0,
                                   grid: int = 25) -> SupermartingaleReport:
    """Max over sampled (pi, decision) pairs of ``E_pi q_g(pi, .) - 1``.

    The scan unions a deterministic coarse grid with seeded random draws,
    so known failures (eta above the mixability threshold) are found
    reproducibly.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    m = game.m
    rng = np.random.default_rng(seed)
    # deterministic grid part: every (pi, decision) pair of a coarse grid
    if m == 2:
        ps = np.linspace(0.0, 1.0, grid)
        pis = np.column_stack([1.0 - ps, ps])
        decs = ps[:, None] if game.decision_kind == "box" else pis
    else:
        pis = decs = simplex_grid(m, min(grid, 8))
    P = [np.repeat(pis, len(decs), axis=0)]
    D = [np.tile(decs, (len(pis), 1))]
    # random part
    ones, dec_ones = np.ones(m), np.ones(game.decision_dim)
    for _ in range(max(0, samples - len(P[0]))):
        P.append(rng.dirichlet(ones))
        D.append(rng.random(game.decision_dim) if game.decision_kind == "box"
                 else rng.dirichlet(dec_ones))
    P, D = np.vstack(P), np.vstack(D)
    expo = pair_exponent(proper(P), _batch_losses(game, D), c, eta)
    # expected_factor row by row: outcomes of zero probability are skipped,
    # and each row is a dot product, as there
    with np.errstate(over="ignore"):
        factors = np.where(P > 0, np.exp(expo), 0.0)
    excess = (P[:, None, :] @ factors[:, :, None])[:, 0, 0] - 1.0
    i = int(np.argmax(excess))
    return SupermartingaleReport(max_excess=float(excess[i]), worst_pi=P[i],
                                 worst_decision=D[i])


def require_supermartingale(proper: ProperLoss, c, eta, game: Game, samples: int,
                            seed: int, tol: float, what: str) -> None:
    """Raise :class:`ContractViolation` unless the sampled supermartingale
    property holds for ``(proper, c, eta)`` up to ``tol``."""
    rep = supermartingale_property_check(proper, c, eta, game, samples, seed=seed)
    if rep.max_excess > tol:
        raise ContractViolation(
            f"{what} fails the supermartingale property "
            f"(excess {rep.max_excess:.3e} at c={c}, eta={eta})")


# ---------------------------------------------------------------------------
# Solvers


def _require_tol(tol: float) -> None:
    """Refuse a non-finite ``tol`` or one below ``2**-52``, where brackets stop halving."""
    if not (math.isfinite(tol) and tol >= 2.0 ** -52):
        raise ValueError(f"tol must be finite and at least 2**-52, got {tol!r}")


#: bisection levels per batched q call after the first
_BATCH_LEVELS = 6
_RAMP = np.arange(2.0 ** _BATCH_LEVELS + 1)


def _nodes(a: float, b: float, depth: int) -> np.ndarray:
    """The ``2**depth + 1`` points that bisecting [a, b] for ``depth``
    levels can visit, endpoints included, each the value the bisection's
    ``0.5 * (lo + hi)`` gives it, so they match one-level-per-call bisection
    bit for bit, also past the levels where dyadic points stop being
    representable."""
    n = 2 ** depth
    step = (b - a) / n
    u = math.ulp(b)
    if a % u == 0.0 and step % u == 0.0:
        # every node is a multiple of ulp(b) in [a, b]: exact, like each midpoint
        return a + step * _RAMP[:n + 1]
    x = np.empty(n + 1)
    x[0], x[-1] = a, b
    while n > 1:  # level by level: node j is the midpoint of j - n/2 and j + n/2
        h = n // 2
        x[h::n] = 0.5 * (x[:-h:n] + x[n::n])
        n = h
    return x


def _bisect(left: np.ndarray):
    """Replay a bisection over the interior nodes of :func:`_nodes`,
    ``left[k - 1]`` saying the crossing lies left of node ``k``: yield, one
    level at a time, the node ``k`` visited and the bracket ``(i, j)`` of
    node indices it leaves."""
    i, j = 0, len(left) + 1
    while j - i > 1:
        k = (i + j) // 2
        if left[k - 1]:
            j = k
        else:
            i = k
        yield k, i, j


def _q_at(q: Callable[[np.ndarray], np.ndarray], p: np.ndarray) -> np.ndarray:
    return np.asarray(q(np.column_stack([1.0 - p, p])), dtype=float)


def dfa_solve_binary(q: Callable[[np.ndarray], np.ndarray], C: float,
                     tol: float = 1e-9, max_iter: int = 200, *,
                     full_output: bool = False):
    """Find p with ``q(p, 0) <= C + tol`` and ``q(p, 1) <= C + tol``.

    ``q`` maps a batch of forecasts ``(1 - p, p)``, shape (n, 2), to the
    rows ``(q(p, 0), q(p, 1))``.  Caller's contract: q is forecast-
    continuous and ``E_p q(p, .) <= C`` for all p.  Early exits: p = 0 when
    ``q(0, 1) <= C``, then p = 1 when ``q(1, 0) <= C``; otherwise the
    difference ``h(p) = q(p,1) - q(p,0)`` has a sign change and is bisected
    (at most ``max_iter`` levels, until the bracket is ``1e-17`` wide) to
    the first node with ``|h| <= tol``, which together with the expectation
    bound forces both coordinates under ``C + tol``.  The first q call
    holds ``p = 0, 1, 1/2``, each later one the ``2**6 - 1`` nodes of the
    next six levels, and the bisection replays over their values: the same
    root, bit for bit, as one level per call, from 6 q calls instead of 31
    at ``tol = 1e-9``.  ``tol`` must be finite and at least ``2**-52``.
    With ``full_output`` it returns ``(p, q row at p)``, the row its batch
    already holds.
    """
    _require_tol(tol)
    qv = _q_at(q, np.array([0.0, 1.0, 0.5]))
    (q0, q1), qv = qv[:2], qv[2:]
    if q0[1] <= C:
        return (0.0, q0) if full_output else 0.0
    if q1[0] <= C:
        return (1.0, q1) if full_output else 1.0
    h0 = q0[1] - q0[0]
    h1 = q1[1] - q1[0]
    if not (h0 > 0.0 and h1 < 0.0):
        raise ContractViolation(
            f"endpoint analysis failed (h(0)={h0:.3e}, h(1)={h1:.3e}); "
            "the supplied q is not a supermartingale term"
        )
    x, levels = _nodes(0.0, 1.0, 1), max_iter
    while levels > 0:
        h = qv[:, 1] - qv[:, 0]
        for k, i, j in _bisect(~(h > 0.0)):  # a NaN h moves left, like h <= 0
            if abs(h[k - 1]) <= tol:
                return (float(x[k]), qv[k - 1]) if full_output else float(x[k])
            if x[j] - x[i] <= 1e-17:
                levels = 0
                break
        else:
            levels -= len(h).bit_length()  # the batch's depth
        if levels > 0:
            x = _nodes(x[i], x[j], min(levels, _BATCH_LEVELS))
            qv = _q_at(q, x[1:-1])
    raise ContractViolation(
        "bisection failed to equalize the coordinates; q appears discontinuous"
    )


def admissible_interval(q: Callable[[np.ndarray], np.ndarray], C: float,
                        tol: float = 1e-9) -> tuple[float, float]:
    """Endpoints of ``{p : max_w q(p, w) <= C}`` for a binary q whose
    coordinate 1 is nonincreasing and coordinate 0 nondecreasing in p
    (true for the canonical parameterizations of the built-in games).

    ``q`` takes batches as in :func:`dfa_solve_binary`.  Both endpoints are
    bisected to width ``2**-L <= tol`` on the feasible side of their
    crossings (inner-approximate up to ``tol``); crossings that pass each
    other collapse to their midpoint.  One q call holds the ``2**6 - 1``
    dyadic nodes of the next six levels of both brackets (the first call
    also ``p = 0, 1``), and the bisection replays over their values: the
    same endpoints, bit for bit, as one level per call, from 5 q calls
    instead of 31 at ``tol = 1e-9``.  ``tol`` must be finite, ``>= 2**-52``.
    """
    _require_tol(tol)
    levels = max(0, 1 - math.frexp(tol)[1])  # the smallest L with 2**-L <= tol
    depth = min(levels, _BATCH_LEVELS)
    x = _nodes(0.0, 1.0, depth)
    qv = _q_at(q, np.concatenate([[0.0, 1.0], x[1:-1]]))
    (q0, q1), qv = qv[:2], qv[2:]
    if q0[0] > C * (1.0 + 1e-9) + 1e-12 or q1[1] > C * (1.0 + 1e-9) + 1e-12:
        raise ContractViolation("expectation bound fails at an endpoint")
    # bracket 0 holds the crossing of q(., 1), bracket 1 that of q(., 0);
    # one whose endpoint already holds is not bisected
    nodes = {side: x for side, done in enumerate((q0[1] <= C, q1[0] <= C)) if not done}
    vals = dict.fromkeys(nodes, qv)  # the first call's nodes serve both
    brackets = {}
    while True:
        for side, x in nodes.items():
            ok = vals[side][:, 1 - side] <= C
            i, j = 0, len(x) - 1
            for _, i, j in _bisect(ok if side == 0 else ~ok):
                pass
            brackets[side] = float(x[i]), float(x[j])
        levels -= depth
        depth = min(levels, _BATCH_LEVELS)
        if not (brackets and depth):
            break
        nodes = {side: _nodes(a, b, depth) for side, (a, b) in brackets.items()}
        qv = _q_at(q, np.concatenate([x[1:-1] for x in nodes.values()]))
        n = 2 ** depth - 1
        vals = {side: qv[k * n:(k + 1) * n] for k, side in enumerate(nodes)}
    lo = brackets[0][1] if 0 in brackets else 0.0
    hi = brackets[1][0] if 1 in brackets else 1.0
    if hi < lo:
        lo = hi = 0.5 * (lo + hi)
    return lo, hi


def interior_delta(epsilon: float, m: int) -> float:
    """Margin delta with ``1 / (1 - delta (m-1)) <= 1 + epsilon``."""
    return epsilon / ((1.0 + epsilon) * (m - 1))


def _local_simplex_points(center: np.ndarray, radius: float, delta: float,
                          n: int) -> np.ndarray:
    base = simplex_grid(len(center), n)
    pts = center[None, :] + radius * (base - 1.0 / len(center))
    pts = np.clip(pts, delta, None)
    pts /= pts.sum(axis=1, keepdims=True)
    # renormalizing can re-violate the floor by rounding; push back once
    pts = np.clip(pts, delta, None)
    pts /= pts.sum(axis=1, keepdims=True)
    return pts


def dfa_solve_simplex(q: Callable[[np.ndarray], np.ndarray], C: float,
                      m: int, epsilon: float = 1e-6, tol: float = 1e-9,
                      *, subdiv: int = 24, pair_sweeps: int = 60) -> np.ndarray:
    """Find pi on the delta-interior of the simplex with
    ``max_w q(pi, w) <= (1+epsilon) C + tol``.

    ``q`` accepts a batch of distributions, shape (n, m), and returns
    the per-outcome values, shape (n, m).  The search is a three-level
    barycentric grid refinement followed by pairwise-exchange descent,
    accepting the first point under the target (the barycenter is tried
    first, so trivially-satisfiable instances return it unchanged).
    Raises :class:`SlackExceeded` when the descent stalls above target.
    """
    delta = interior_delta(epsilon, m)
    target = (1.0 + epsilon) * C + tol

    def f_batch(P: np.ndarray) -> np.ndarray:
        vals = np.asarray(q(P), dtype=float)
        return vals.max(axis=1)

    center = np.full(m, 1.0 / m)
    f_center = float(f_batch(center[None, :])[0])
    if f_center <= target:
        return center
    best, best_val = center, f_center
    radius = 1.0
    for _ in range(3):
        pts = _local_simplex_points(best, radius, delta, subdiv)
        vals = f_batch(pts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best, best_val = pts[i], float(vals[i])
        if best_val <= target:
            return best
        radius /= subdiv / 2.0

    # pairwise mass-exchange descent with a shrinking step ladder
    step = 2.0 / subdiv
    for _ in range(pair_sweeps):
        improved = False
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                t_max = min(best[j] - delta, step)
                if t_max <= 0:
                    continue
                ts = np.linspace(0.0, t_max, 9)[1:]
                cands = np.repeat(best[None, :], len(ts), axis=0)
                cands[:, i] += ts
                cands[:, j] -= ts
                vals = f_batch(cands)
                k = int(np.argmin(vals))
                if vals[k] < best_val - 1e-15:
                    best, best_val = cands[k], float(vals[k])
                    improved = True
        if best_val <= target:
            return best
        if not improved:
            step /= 4.0
            if step < 1e-14:
                break
    if best_val <= target:
        return best
    raise SlackExceeded(
        f"interior solve stalled at max_w q = {best_val:.6e} > target {target:.6e}",
        best_point=best,
        best_value=best_val,
    )


# ---------------------------------------------------------------------------
# The forecasting protocol step


#: A forecasting session: ``log_weights[t]`` tracks ``ln P0(t) + eta sum_n
#: (lambda(pi_n, w_n)/c - g_n^t(w_n))`` and ``log_value``, their log-sum-exp,
#: is the log of the prior-weighted supermartingale; it never rises above the
#: accumulated solver slack ``slack_log_total = sum_n ln(1 + s_n)``.
DFAState = Session


def dfa_start(game: Game, *, eta: float, c: float = 1.0,
              prior: Sequence[float] | np.ndarray | None = None,
              n_experts: int | None = None,
              proper: ProperLoss | None = None) -> Session:
    return start_session(
        game, prior, n_experts, c=c, eta=eta,
        proper=default_proper_loss(game, c, eta) if proper is None else proper)


def fixed_advice_q(state: Session, G: np.ndarray):
    """The supermartingale factor
    ``q(pi, w) = sum_t wbar_t exp(eta_t (lambda_t(pi, w)/c_t - G_t(w)))``
    for advice ``G`` (one loss row per expert) that does not depend on pi.

    Experts sharing (proper loss, c, eta) form one group, whose sum factors
    into per-outcome constants ``ln a_w = log_mix(...)``, AA's mix, so each
    candidate costs one proper-loss call per group.  A standard session is
    the one-group case.  The returned q takes one distribution, shape
    (m,), or a batch, shape (n, m).
    """
    lwn = state.log_posterior()

    def group_q(proper, c, eta, lwn_g, G_g, mass):
        log_a = log_mix(lwn_g, eta, G_g)
        # where every weighted expert is infinite, an infinite lam cancels
        # each factor to 1: the group contributes its posterior mass
        dead = np.isneginf(log_a)

        def q(P: np.ndarray) -> np.ndarray:
            lam = proper(P)
            lam_inf = np.isinf(lam)
            vals = np.exp(eta * np.where(lam_inf, 0.0, lam) / c + log_a)
            vals = np.where(lam_inf & ~dead, np.inf, vals)
            return np.where(lam_inf & dead, mass, vals)

        return q

    if not isinstance(state.proper, tuple):
        return group_q(state.proper, state.c, state.eta, lwn, G, 1.0)
    keys = list(zip(state.proper, state.c.tolist(), state.eta.tolist()))
    groups = [np.array([t for t, k in enumerate(keys) if k == key])
              for key in dict.fromkeys(keys)]
    qs = [group_q(*keys[idx[0]], lwn[idx], G[idx],
                  1.0 if len(groups) == 1 else float(np.exp(lwn[idx]).sum()))
          for idx in groups]
    return qs[0] if len(qs) == 1 else lambda P: sum(qg(P) for qg in qs)


def choose_forecast(q, m: int, *, C: float = 1.0, epsilon: float = 1e-6,
                    tol: float = 1e-9,
                    select: str = "midpoint") -> tuple[np.ndarray, float]:
    """Pick a forecast distribution keeping every coordinate of q under C
    (up to the documented slack); returns (pi, slack).

    ``q`` maps a batch of distributions, shape (n, m), to its values, shape
    (n, m).  A binary forecast is the midpoint of the admissible interval
    (``select="midpoint"``) or the coordinate-equalizing root
    (``select="root"``); larger outcome spaces run the simplex solver.
    """
    qpi = None  # q at pi, when the solve already has it
    if m == 2:
        if select == "midpoint":
            lo, hi = admissible_interval(q, C, tol)
            p = 0.5 * (lo + hi)
        elif select == "root":
            p, qpi = dfa_solve_binary(q, C, tol, full_output=True)
        else:
            raise ValueError(f"unknown selection rule {select!r}")
        pi = np.array([1.0 - p, p])
    else:
        pi = dfa_solve_simplex(q, C, m, epsilon, tol)
    if qpi is None:
        qpi = q(pi[None, :])
    slack = max(0.0, float(np.max(qpi)) - C)
    return pi, slack


def _forecast(state: Session, A: np.ndarray, epsilon: float, tol: float,
              select: str) -> tuple[np.ndarray, float]:
    """The forecast pi for the advice ``A`` under the session's posterior,
    and its slack.  When the simplex search stalls, AA's substituted mix is
    taken as the forecast if it keeps q under the same target (the two
    protocols make the same prediction); otherwise :class:`SlackExceeded`
    propagates."""
    q = fixed_advice_q(state, A)
    try:
        return choose_forecast(q, state.game.m, epsilon=epsilon, tol=tol, select=select)
    except SlackExceeded:
        pi = np.asarray(state.game.substitution(aa_mix(state, A)), dtype=float)
        top = float(np.max(q(pi)))
        if top > 1.0 + epsilon + tol:
            raise
        return pi, max(0.0, top - 1.0)


def dfa_proposal(state: Session, advice, *, epsilon: float = 1e-6,
                 tol: float = 1e-9, select: str = "midpoint",
                 substitution_tol: float = 1e-7) -> Proposal:
    """Choose the forecast pi for the given advice and substitute a
    decision; the learner term is ``lambda(pi)``.

    When the simplex search stalls, AA's substituted mix is taken as the
    forecast if it keeps q under the same target (the two protocols make
    the same prediction); otherwise :class:`SlackExceeded` propagates.
    Raises :class:`SubstitutionFailure` when the loss parameterization's
    value cannot be dominated by a legal decision; with the default
    parameterizations that means (c, eta) violates the game's contract.
    """
    A = _advice_matrix(advice, state.game.m)
    if A.shape[0] != state.n_experts:
        raise ValueError(f"{A.shape[0]} advice rows for {state.n_experts} experts")
    pi, slack = _forecast(state, A, epsilon, tol, select)
    lam = state.proper(pi)
    decision, lv = substitute(state, lam, substitution_tol)
    return Proposal(decision, lv, slack, lambda w: (lam[w], float(lv[w]), A[:, w]), pi)


def dfa_rounds(state: Session, advice: np.ndarray, outcomes: np.ndarray, *,
               epsilon: float = 1e-6, tol: float = 1e-9, select: str = "midpoint",
               substitution_tol: float = 1e-7
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Rounds]:
    """Play a block of B rounds whose advice, shape (B, k, m), and outcomes,
    shape (B,), do not depend on Learner's moves.  A round's forecast needs
    the posterior after the rounds before it, so only the chain posterior
    -> q -> forecast -> ``lambda(pi)`` -> reweigh runs round by round; the
    substitution and the running sums are one batch each.  Returns what
    :func:`aggregating.aa_rounds` returns, each row what :func:`dfa_step`
    gives that round; an error is raised for the first round that meets
    it, as round by round."""
    rows = np.arange(len(advice))
    expert_losses = advice[rows, :, outcomes]
    lw, lv = np.empty(expert_losses.shape), np.empty(len(rows))
    lam, slack = np.empty((len(rows), state.game.m)), np.zeros(len(rows))
    played, error, cur = len(rows), None, state
    for i, w in enumerate(outcomes.tolist()):
        try:
            pi, slack[i] = _forecast(cur, advice[i], epsilon, tol, select)
            lam[i] = state.proper(pi)
        except Exception as exc:  # raised once the rounds before it are substituted
            played, error = i, exc
            break
        lw[i] = cur.log_weights + cur._log_factors(lam[i, w], expert_losses[i])
        lv[i] = log_sum_exp(lw[i])
        cur = replace(cur, log_weights=lw[i], log_value=lv[i])
    return substituted_rounds(state, lam[:played], outcomes, expert_losses, lw, lv,
                              slack, error, substitution_tol=substitution_tol)


def dfa_step(state: Session, advice, outcome: int, *,
             epsilon: float = 1e-6, tol: float = 1e-9,
             select: str = "midpoint",
             substitution_tol: float = 1e-7) -> tuple[np.ndarray, Session, float]:
    """One forecasting round: choose pi, substitute, observe, reweigh.

    Binary games default to the midpoint of the admissible interval (the
    same selection the midpoint substitution makes on the mixing side);
    pass ``select="root"`` for the coordinate-equalizing bisection point.
    Returns ``(decision, new_state, slack)`` where ``slack`` is the step's
    worst-case excess of q over 1 across outcomes.
    """
    p = dfa_proposal(state, advice, epsilon=epsilon, tol=tol, select=select,
                     substitution_tol=substitution_tol)
    return p.decision, state.advance(*p.score(outcome), p.slack), p.slack


#: ``L_N - c L_N^theta - (c/eta)(ln(1/P0) + slack allowance)`` per theta;
#: nonpositive entries mean the guarantee holds.
dfa_bound_margins = Session.bound_margins
