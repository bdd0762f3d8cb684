"""Second-guessing experts: advice is a continuous map from Learner's
forthcoming prediction to a loss vector.

The forecasting step is unchanged except that every candidate forecast
re-evaluates the expert maps; the mixing side solves a fixed-point
equation through the retraction onto minimal elements (composed with the
radial projection for non-mixable games run with c > 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .aggregating import project_boundary, retraction_F, substituted_rounds
from .core import Game, Session, domination_gap, exp_mix, pair_exponent
from .defensive import _log_q, choose_forecast
from .errors import DomainError, NoConvergence


@dataclass(frozen=True, eq=False)
class SecondGuessExpert:
    """An expert whose advice is conditional on Learner's prediction.

    ``fn`` maps Learner's loss vector to the expert's loss vector; it must
    be continuous on its declared domain for the guarantees to apply.
    ``lipschitz`` is optional metadata for harness-side continuity probes.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "sg-expert"
    lipschitz: float | None = None

    def __call__(self, gamma: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(gamma, dtype=float)), dtype=float)

    @classmethod
    def constant(cls, vector, name: str = "constant") -> "SecondGuessExpert":
        vec = np.asarray(vector, dtype=float)
        return cls(fn=lambda _g: vec, name=name, lipschitz=0.0)

    @classmethod
    def identity(cls, name: str = "identity") -> "SecondGuessExpert":
        return cls(fn=lambda g: g, name=name, lipschitz=1.0)

    @classmethod
    def coordinate_swap(cls, name: str = "contrarian") -> "SecondGuessExpert":
        """Binary contrarian: predicts 1-p when Learner's decision is p,
        which swaps the two loss coordinates.  Continuous."""
        return cls(fn=lambda g: g[::-1].copy(), name=name, lipschitz=1.0)


def _round_of_one(state: Session, gamma: np.ndarray, advice: np.ndarray, outcomes, pick,
                  slack: float, score=None):
    """A second-guessing round as a block of one (the advice depends on
    Learner's move, so no round is fixed before it): Reality picks from
    the announced loss vector ``gamma``, and the experts are scored by
    their conditional ``advice`` (k, m) at it
    (:func:`~expertmix.aggregating.substituted_rounds`, with no
    substitution).  Returns what :func:`~expertmix.aggregating.aa_rounds`
    returns, plus the advice scored, shape (1, k, m)."""
    return (*substituted_rounds(state, gamma[None], advice[None], outcomes, pick,
                                state.log_weights[None], np.array([state.log_value]),
                                np.array([slack]), None, score, substitution_tol=None),
            advice[None])


def sg_dfa_rounds(state: Session, experts: Sequence[SecondGuessExpert], outcomes, pick, *,
                  epsilon: float = 1e-6, tol: float = 1e-9, codomain_tol: float = 1e-7):
    """Forecast against second-guessing experts with the root selection, in
    a block of one round (``outcomes`` is empty, and ``pick(gamma)`` gives
    the round's outcome).

    Learner announces the loss parameterization's value ``gamma`` directly
    (its range is already inside the prediction set), so the decision is a
    loss vector; the learner term is ``gamma[w]`` and the log factor ``ln
    q(pi, w)``.  Returns what :func:`~expertmix.defensive.dfa_rounds`
    returns, plus the advice scored, shape (1, k, m).  Raises
    :class:`DomainError` when an expert map leaves the superprediction set
    at the announced prediction, before Reality picks.
    """
    if len(experts) != state.n_experts:
        raise ValueError(f"{len(experts)} experts for {state.n_experts} weights")
    wbar = np.exp(state.log_posterior())
    live = np.flatnonzero(wbar)
    w_live, live_experts = wbar[live, None], [experts[t] for t in live]
    c, eta = state.c, state.eta

    def q(P: np.ndarray) -> np.ndarray:
        # the advice depends on lambda, so q is a direct per-expert sum;
        # G[n, t] is expert t's advice at the forecast P[n]
        L = state.proper(P)
        G = np.stack([np.stack([ex(lam) for lam in L]) for ex in live_experts], axis=1)
        return np.sum(w_live * np.exp(pair_exponent(L[:, None, :], G, c, eta)), axis=1)

    pi, slack, qpi = choose_forecast(q, state.game.m, epsilon=epsilon, tol=tol,
                                     select="root", full_output=True)
    gamma = state.proper(pi)
    advice = np.stack([ex(gamma) for ex in experts])
    for ex, g_t in zip(experts, advice):
        if np.any(np.isnan(g_t)) or np.any(g_t < -codomain_tol) \
                or domination_gap(state.game, np.clip(g_t, 0.0, None)) > codomain_tol:
            raise DomainError(
                f"expert {ex.name!r} returned {g_t}, outside the superprediction set"
            )
    log_q = _log_q(qpi)
    return _round_of_one(state, gamma, advice, outcomes, pick, slack,
                         lambda w: (gamma[w[-1]], log_q[w]))


def sg_dfa_step(state: Session, experts: Sequence[SecondGuessExpert],
                outcome: int, *, epsilon: float = 1e-6, tol: float = 1e-9,
                codomain_tol: float = 1e-7) -> tuple[np.ndarray, Session, float]:
    """One round against second-guessing experts (see
    :func:`sg_dfa_rounds`); the returned prediction is a loss vector."""
    gammas, _, _, slack, rounds, _ = sg_dfa_rounds(
        state, experts, np.empty(0, int), lambda gamma: outcome, epsilon=epsilon, tol=tol,
        codomain_tol=codomain_tol)
    return gammas[0], state.after(rounds), float(slack[0])


# ---------------------------------------------------------------------------
# Fixed-point mixing


def _sg_transform(state: Session, experts: Sequence[SecondGuessExpert]):
    """gamma -> F(eta-mix of the experts' conditional advice), composed
    with the radial projection when running with c > 1."""
    wbar = np.exp(state.log_posterior())
    game, eta, c = state.game, state.eta, state.c

    def transform(gamma: np.ndarray) -> np.ndarray:
        advice = [ex(gamma) for ex in experts]
        mixed = exp_mix(advice, wbar, eta)
        out = retraction_F(game, mixed, eta=eta)
        if c > 1.0:
            out = project_boundary(game, out, c, eta)
        return out

    return transform


def _decision_parameter(game: Game, gamma: np.ndarray) -> float:
    """Recover the 1-d decision parameter of a binary boundary point."""
    dec = np.asarray(game.substitution(gamma), dtype=float)
    return float(dec[0])


def sg_fixed_point(state: Session, experts: Sequence[SecondGuessExpert],
                   *, tol: float = 1e-10, max_iter: int = 10_000,
                   damping: float = 0.5) -> np.ndarray:
    """Solve ``gamma = F(mix(Gamma(gamma)))`` for the current posterior.

    Binary games use bisection on the decision parameter (the minimal set
    is a curve, so the equation is one-dimensional); larger games use
    damped iteration in the ``exp(-eta x)`` chart, where the hull is
    convex, retracting back onto the minimal set after each damped move.
    Raises :class:`NoConvergence` when the iteration cap is exhausted.
    """
    game = state.game
    transform = _sg_transform(state, experts)

    if game.m == 2:
        def f(p: float) -> float:
            gamma_p = game.loss_vector(np.array([p]))
            return p - _decision_parameter(game, transform(gamma_p))

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

    if game.decision_kind == "simplex":
        central = np.full(game.decision_dim, 1.0 / game.decision_dim)
    else:
        central = np.full(game.decision_dim, 0.5)
    gamma = transform(game.loss_vector(central))
    eta = state.eta
    for _ in range(max_iter):
        target = transform(gamma)
        z = (1.0 - damping) * np.exp(-eta * gamma) + damping * np.exp(-eta * target)
        with np.errstate(divide="ignore"):
            mixed = np.where(z > 0, -np.log(np.where(z > 0, z, 1.0)) / eta, np.inf)
        new_gamma = retraction_F(game, mixed, eta=eta)
        if float(np.max(np.abs(new_gamma - gamma))) <= tol:
            return new_gamma
        gamma = new_gamma
    raise NoConvergence(
        "fixed-point iteration exhausted its budget",
        last_iterate=gamma,
        residual=float(np.max(np.abs(transform(gamma) - gamma))),
    )


def sg_fixed_point_residual(state: Session, experts: Sequence[SecondGuessExpert],
                            gamma: np.ndarray) -> float:
    """sup-norm residual of the fixed-point equation at ``gamma``."""
    transform = _sg_transform(state, experts)
    return float(np.max(np.abs(transform(gamma) - gamma)))


def sg_aa_rounds(state: Session, experts: Sequence[SecondGuessExpert], outcomes, pick,
                 *, tol: float = 1e-10):
    """Fixed-point mixing in a block of one round (``outcomes`` is empty,
    and ``pick(gamma)`` gives the round's outcome): announce the solution
    ``gamma``; the experts are scored by their conditional advice at it.
    Returns what :func:`~expertmix.aggregating.aa_rounds` returns, plus the
    advice scored, shape (1, k, m)."""
    gamma = sg_fixed_point(state, experts, tol=tol)
    return _round_of_one(state, gamma, np.stack([ex(gamma) for ex in experts]), outcomes,
                         pick, 0.0)


def sg_aa_step(state: Session, experts: Sequence[SecondGuessExpert],
               outcome: int, *, tol: float = 1e-10) -> tuple[np.ndarray, Session]:
    """Fixed-point mixing round: announce the solution, observe, reweigh
    with the experts' realized conditional losses."""
    gammas, *_, rounds, _ = sg_aa_rounds(state, experts, np.empty(0, int), lambda gamma: outcome,
                                         tol=tol)
    return gammas[0], state.after(rounds)
