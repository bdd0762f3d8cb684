"""Per-row oracles for the batched reweigh, retraction and fixed point.

``advance_reference`` reweighs a session by one round, the per-round
reference for ``Session.reweigh``, ``Session.rounds`` and
``Session.after``.

``reference_retraction`` bisects every coordinate with the validating gap
functions, and ``reference_fixed_point`` solves the binary second-guessing
fixed point one transform call per bisection level (each call one row: the
experts' maps, ``exp_mix``, the retraction and, at ``c > 1``,
``project_boundary``; on log, and square at a mixable ``eta``, the
retraction is the loss at the lower end of the mix's feasible interval).
The library's row-batched versions must return their bits.  ``recording``
wraps a game's membership gaps to count their probes.

``brier_gap_reference`` is brier's membership gap by a numeric program
(SLSQP), the reference for the closed-form water-filling gap, and
``brier_point_reference`` the water-filling point with its level's sums
and least value taken by reductions along the outcome axis; the
library's column-by-column form must return its bits.
"""

import math
from dataclasses import replace

import numpy as np

from expertmix.aggregating import project_boundary
from expertmix.core import domination_gap, exp_mix, hull_membership_gap, log_sum_exp


def advance_reference(state, learner_term, learner_loss, expert_losses,
                      log_factor=None, slack=0.0):
    """``state`` after one round: expert ``t``'s factor times
    ``exp(eta_t (learner_term / c_t - expert_losses[t]))``, and the round's
    losses and its solver slack ``ln(1 + slack)`` added.  A forecasting
    session takes a finite learner term out of the weights and adds
    ``log_factor``, the log of the round's factor ``q(pi_n, w_n)``, to its
    log supermartingale."""
    split = state.log_supermartingale is not None
    if split and log_factor is None:
        raise ValueError("a forecasting session's round needs its log factor")
    if split and not math.isinf(learner_term):
        learner_term = 0.0
    lw = state.log_weights + state._log_factors(learner_term, expert_losses)
    return replace(
        state, log_weights=lw, log_value=log_sum_exp(lw), step_count=state.step_count + 1,
        cumulative_loss=state.cumulative_loss + learner_loss,
        per_expert_loss=state.per_expert_loss + expert_losses,
        slack_log_total=state.slack_log_total + float(np.log1p(slack))
        if slack else state.slack_log_total,
        log_supermartingale=state.log_supermartingale + log_factor if split else None)


def reference_retraction(game, g, eta=None, tol=1e-10):
    """The retraction that validates every probe through ``domination_gap``
    or ``hull_membership_gap``; ``retraction_F`` returns the same bits from
    the same probes."""
    cur = np.asarray(g, dtype=float).copy()
    mtol = 0.0 if game.membership_gap is not None else 1e-9

    def gap(v):
        return domination_gap(game, v) if eta is None else hull_membership_gap(game, v, eta)

    if gap(cur) > max(mtol, 1e-9):
        raise ValueError("input is not a superprediction (or hull member)")
    for w in range(game.m):
        probe = cur.copy()
        probe[w] = 0.0
        if gap(probe) <= mtol:
            cur[w] = 0.0
            continue
        hi = cur[w]
        if not np.isfinite(hi):
            hi = 1.0
            probe[w] = hi
            while not gap(probe) <= mtol and hi < 1e12:
                hi *= 2.0
                probe[w] = hi
            if not gap(probe) <= mtol:
                continue
        lo = 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            probe[w] = mid
            if gap(probe) <= mtol:
                hi = mid
            else:
                lo = mid
        cur[w] = hi
    return cur


def recording(base, probes, **fields):
    """``base`` with its membership closed forms appending each probe to
    ``probes`` (each row of a batch in turn), and ``fields`` replaced."""
    def recorded(fn):
        def gap(v, *args):
            probes.extend(map(tuple, np.atleast_2d(v).tolist()))
            return fn(v, *args)
        return gap if fn is not None else None

    return replace(base, membership_gap=recorded(base.membership_gap),
                   hull_membership_gap=recorded(base.hull_membership_gap), **fields)


def reference_retract(game, g, eta):
    """The retraction of one mix in the fixed point: on a binary box game
    whose rule at ``eta`` is its base set's closed-form gap, the loss at the
    lower end of ``g``'s feasible interval, clipped to [0, 1] (a non-member
    beyond 1e-9 raises); else the validating bisection."""
    if game.name in ("log", "square") and game.m == 2 and game.mixable_at(eta):
        lo, hi = (float(e) for e in game.feasible_interval(g))
        if lo - hi > 1e-9:
            raise ValueError("input is not a superprediction (or hull member)")
        return game.loss(np.array([min(max(lo, 0.0), 1.0)]))
    return reference_retraction(game, g, eta)


def reference_transform(state, experts):
    """gamma -> F(eta-mix of the experts' advice at gamma), radially
    projected at ``c > 1`` or where the game is not mixable at ``eta``,
    for one loss vector."""
    wbar = np.exp(state.log_posterior())
    game, eta, c = state.game, state.eta, state.c

    def transform(gamma):
        out = reference_retract(game, exp_mix([ex(gamma) for ex in experts], wbar, eta), eta)
        return project_boundary(game, out, c, eta) if c > 1.0 or not game.mixable_at(eta) \
            else out

    return transform


def reference_fixed_point(state, experts, tol=1e-10):
    """``gamma = F(mix(Gamma(gamma)))`` on a binary game, one transform call
    per bisection level."""
    game = state.game
    transform = reference_transform(state, experts)

    def f(p):
        gamma_p = game.loss_vector(np.array([p]))
        return p - float(np.asarray(game.substitution(transform(gamma_p)))[0])

    lo, hi = 0.0, 1.0
    f_lo, f_hi = f(lo), f(hi)
    if f_lo >= -tol:
        p_star = lo
    elif f_hi <= tol:
        p_star = hi
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if abs(fm) <= min(tol, 1e-12) or hi - lo <= 1e-14:
                break
            if fm < 0:
                lo = mid
            else:
                hi = mid
        p_star = 0.5 * (lo + hi)
    return game.loss_vector(np.array([p_star]))


def brier_gap_reference(game, g):
    """``min over pi of max over finite w of (loss(pi)_w - g_w)`` for brier
    (``-inf`` when no entry is finite), by SLSQP on ``(pi, t)``: minimise
    ``t`` subject to ``loss(pi)_w - g_w <= t`` and ``sum pi = 1``."""
    from scipy import optimize

    g = np.asarray(g, dtype=float)
    m, finite = game.m, np.isfinite(g)
    if not finite.any():
        return -np.inf
    cons = [{"type": "eq", "fun": lambda x: np.sum(x[:m]) - 1.0}]
    cons += [{"type": "ineq",  # t - (||pi - e_w||^2 - g_w) >= 0
              "fun": lambda x, w=w: x[-1] - (np.sum(x[:m] ** 2) - 2.0 * x[w] + 1.0 - g[w])}
             for w in np.flatnonzero(finite)]
    res = optimize.minimize(
        lambda x: x[-1], np.concatenate([np.full(m, 1.0 / m), [1.0]]),
        jac=lambda x: np.eye(m + 1)[-1], bounds=[(0.0, 1.0)] * m + [(None, None)],
        constraints=cons, method="SLSQP", options={"maxiter": 300, "ftol": 1e-14})
    pi = np.clip(res.x[:m], 0.0, None)
    return float(np.max((game.loss(pi / pi.sum()) - g)[finite]))


def brier_point_reference(G):
    """Brier's water-filling point of each row of ``G`` (n, m), with the
    level's running sums and least value taken along the outcome axis."""
    m = G.shape[1]
    level = (2.0 + np.cumsum(np.sort(G, axis=1), axis=1)) / np.arange(1, m + 1)
    active = G < level.min(axis=1, keepdims=True)
    k = active.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = 1.0 + (2.0 - k + np.where(active, G, 0.0).sum(axis=1, keepdims=True)) / k
        pi = np.maximum(np.where(active, 0.5 * (t - G), 0.0), 0.0)
        pi = pi / pi.sum(axis=1, keepdims=True)
    return np.where(k == 0, 1.0 / m, pi)
