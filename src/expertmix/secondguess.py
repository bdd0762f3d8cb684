"""Second-guessing experts: advice is a continuous map from Learner's
forthcoming prediction to a loss vector.

The forecasting step is unchanged except that every candidate forecast
re-evaluates the expert maps, each once per batch of candidates; the
mixing side solves a fixed-point equation through the retraction onto
minimal elements, composed with the radial projection at c > 1 and for
games that are not mixable at the session's eta.  On log, kl, brier, and
square at a mixable eta, that retraction is in closed form; under every
other membership rule it is a bisection.  On a binary game the fixed
point is bisected on the root's engine
(:func:`~expertmix.defensive._bisection`): one transform call for ``p =
0, 1, 1/2``, and one for each later six levels of the bracket with the
path that inverse interpolation predicts, each one mix, one retraction
and one projection of all its rows.  A batch that raises is re-run row
by row, and a row's error surfaces only when the bisection reaches its
node, the node where one evaluation per level would have raised it.  On
the simplex the fixed point is the forecasts' Sperner search
(:func:`~expertmix.defensive.dfa_solve_simplex`), one transform call a
level, with the label ``1 + D(x)_w - x_w`` for the decision ``D(x)``
that the transform gives at ``x``.

Both protocols play blocks of rounds under Reality that does not look at
the prediction: each round's fixed point or root (solved from the
round's log posterior), the advice at it and the round's reweigh run in
turn, and the running sums come once a block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .aggregating import _closed_form_retraction, project_boundary, retraction_F
from .core import (Session, as_losses, domination_gap, live_posterior, log_normalise,
                   pair_exponent)
from .defensive import _FIRST_ROW_UNTABLED, _bisection, _log_q, choose_forecast, dfa_solve_simplex
from .errors import DimensionMismatch, DomainError

#: how far an expert's advice may stray below the superprediction set in
#: ``sg-dfa`` before :class:`DomainError`
CODOMAIN_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class SecondGuessExpert:
    """An expert whose advice is conditional on Learner's prediction.

    ``fn`` maps Learner's loss vector to the expert's loss vector; it must
    be continuous on its declared domain for the guarantees to apply.
    With ``batched``, ``fn`` also maps a batch of loss vectors (n, m) to
    theirs, row by row, as the built-in maps do.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "sg-expert"
    batched: bool = False

    def __call__(self, gamma: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(gamma, dtype=float)), dtype=float)

    def rows(self, gammas: np.ndarray) -> np.ndarray:
        """The expert's loss vectors at each row of ``gammas`` (n, m): one
        call of a batched map, else one call per row."""
        if self.batched:
            return self(gammas)
        return np.stack([self(g) for g in gammas])

    @classmethod
    def constant(cls, vector, name: str = "constant") -> "SecondGuessExpert":
        vec = np.asarray(vector, dtype=float)
        return cls(fn=lambda g: np.full(np.shape(g)[:-1] + vec.shape, vec), name=name,
                   batched=True)

    @classmethod
    def identity(cls, name: str = "identity") -> "SecondGuessExpert":
        return cls(fn=lambda g: g, name=name, batched=True)

    @classmethod
    def coordinate_swap(cls, name: str = "contrarian") -> "SecondGuessExpert":
        """Binary contrarian: predicts 1-p when Learner's decision is p,
        which swaps the two loss coordinates.  Continuous."""
        return cls(fn=lambda g: g[..., ::-1].copy(), name=name, batched=True)


def _sg_rounds(state: Session, experts: Sequence[SecondGuessExpert], outcomes, pick, solve,
               check_codomain: bool = False):
    """Play a block of B second-guessing rounds from the outcomes (B - 1,)
    of the rounds before the last and ``pick(gamma)``, the last round's.
    Each round's chain runs in turn: ``solve(log_posterior)`` gives its
    loss vector ``gamma``, its slack and its log factors ``ln q(pi, .)``
    (None for mixing); the experts' advice at ``gamma`` is scored and,
    with ``check_codomain``, checked against the superprediction set up to
    :data:`CODOMAIN_TOL`; then Reality picks, and the round reweighs in
    :meth:`~expertmix.core.Session.reweigh`'s one-round arithmetic.  The
    running sums come once a block (:meth:`~expertmix.core.Session.rounds`).
    Returns what :func:`~expertmix.aggregating.aa_rounds` returns, plus
    the advice scored, shape (B, k, m); an error is raised in the round
    that meets it."""
    ws, weights, rows = outcomes.tolist(), state.log_weights, []
    value, posterior = log_normalise(weights)
    for i in range(len(ws) + 1):
        gamma, slack, log_q = solve(live_posterior(value, posterior))
        advice = np.stack([ex(gamma) for ex in experts])
        for ex, g_t in zip(experts, advice) if check_codomain else ():
            if not np.all(g_t >= -CODOMAIN_TOL) \
                    or domination_gap(state.game, np.clip(g_t, 0.0, None)) > CODOMAIN_TOL:
                raise DomainError(f"expert {ex.name!r} returned {g_t}, "
                                  "outside the superprediction set")
        w = ws[i] if i < len(ws) else pick(gamma)
        # a mixing round's learner term is zero
        (weights,), (value,), (posterior,) = state.reweigh(
            advice[None, :, w], 0.0 if log_q is None else float(gamma[w]), weights)
        rows.append((gamma, gamma[w], advice[:, w], slack,
                     0.0 if log_q is None else log_q[w], weights, value, advice))
    gammas, learner, expert_losses, slack, log_factors, lw, lv, advice = map(np.array, zip(*rows))
    return gammas, learner, expert_losses, slack, state.rounds(
        lw, lv, learner, expert_losses, slack, None if log_q is None else log_factors), advice


def sg_dfa_rounds(state: Session, experts: Sequence[SecondGuessExpert], outcomes, pick, *,
                  epsilon: float = 1e-6, tol: float = 1e-9):
    """Forecast against second-guessing experts with the root selection, in
    a block of rounds (:func:`_sg_rounds`: ``outcomes`` are those of the
    rounds before the last, and ``pick(gamma)`` gives the last round's).

    Learner announces the loss parameterization's value ``gamma`` directly
    (its range is already inside the prediction set), so the decision is a
    loss vector; the learner term is ``gamma[w]`` and the log factor ``ln
    q(pi, w)``.  Returns what :func:`~expertmix.defensive.dfa_rounds`
    returns, plus the advice scored, shape (B, k, m).  Raises
    :class:`DomainError` when an expert map leaves the superprediction set
    at the announced prediction, before Reality picks.
    """
    if len(experts) != state.n_experts:
        raise ValueError(f"{len(experts)} experts for {state.n_experts} weights")
    c, eta = state.c, state.eta

    def solve(log_posterior: np.ndarray):
        wbar = np.exp(log_posterior)
        live = np.flatnonzero(wbar)
        w_live, live_experts = wbar[live, None], [experts[t] for t in live]

        def q(P: np.ndarray) -> np.ndarray:
            # the advice depends on lambda, so q is a direct per-expert sum;
            # G[n, t] is expert t's advice at the forecast P[n]
            L = state.proper(P)
            G = np.stack([ex.rows(L) for ex in live_experts], axis=1)
            return np.sum(w_live * np.exp(pair_exponent(L[:, None, :], G, c, eta)), axis=1)

        pi, slack, qpi = choose_forecast(q, state.game.m, epsilon=epsilon, tol=tol,
                                         select="root", full_output=True)
        return state.proper(pi), slack, _log_q(qpi)

    return _sg_rounds(state, experts, outcomes, pick, solve, check_codomain=True)


def sg_dfa_step(state: Session, experts: Sequence[SecondGuessExpert],
                outcome: int, *, epsilon: float = 1e-6,
                tol: float = 1e-9) -> tuple[np.ndarray, Session, float]:
    """One round against second-guessing experts (see
    :func:`sg_dfa_rounds`); the returned prediction is a loss vector."""
    gammas, _, _, slack, rounds, _ = sg_dfa_rounds(
        state, experts, np.empty(0, int), lambda gamma: outcome, epsilon=epsilon, tol=tol)
    return gammas[0], state.after(rounds), float(slack[0])


# ---------------------------------------------------------------------------
# Fixed-point mixing


def _mix_rows(G: np.ndarray, wbar: np.ndarray, eta: float) -> np.ndarray:
    """:func:`~expertmix.core.exp_mix` of each row's points, ``G`` (n, k, m),
    under the session's posterior ``wbar``, bit for bit (an infinite
    entry's ``exp`` is the 0 that ``exp_mix`` puts there, and each row's
    sum is the same matrix-vector product): one check of every point,
    which raises ``exp_mix``'s error for the first bad one, and no other
    validation."""
    if not (G >= 0).all():  # a NaN or negative entry
        points = G.reshape(-1, G.shape[-1])
        as_losses(points[np.argmax(~(points >= 0).all(axis=1))])
    s = np.matmul(wbar, np.exp(-eta * G))
    with np.errstate(divide="ignore"):  # -ln 0 = inf: every point infinite there
        return np.maximum(-np.log(s) / eta, 0.0)


def _sg_transform(state: Session, experts: Sequence[SecondGuessExpert],
                  log_posterior: np.ndarray | None = None):
    """gamma -> F(eta-mix of the experts' conditional advice), composed
    with the radial projection when running with c > 1 or at an ``eta``
    where the game is not mixable, for each row of a batch (n, m), under
    the session's posterior or the given ``log_posterior``: one call of
    each expert map, one mix, one retraction and one projection for the
    batch, each row what a one-row call gives it.  The retraction is in
    closed form where the game has one at the session's ``eta``
    (:func:`~expertmix.aggregating._closed_form_retraction`: log, kl,
    brier, and square at a mixable ``eta``); under every other rule it is
    :func:`~expertmix.aggregating.retraction_F`'s bisection.  A hull
    retraction's point that even ``c`` times it misses the superprediction
    set (absolute at ``c = 1``, say) makes the projection raise
    :class:`~expertmix.errors.NotRealizable`."""
    wbar = np.exp(state.log_posterior() if log_posterior is None else log_posterior)
    game, eta, c = state.game, state.eta, state.c
    if len(experts) != len(wbar):
        raise DimensionMismatch(f"{len(experts)} points but weight shape {wbar.shape}")
    closed_form, mixable = _closed_form_retraction(game, eta), game.mixable_at(eta)

    def transform(gammas: np.ndarray) -> np.ndarray:
        G = np.stack([ex.rows(gammas) for ex in experts], axis=1)
        mix = _mix_rows(G, wbar, eta)
        out = retraction_F(game, mix, eta=eta) if closed_form is None else closed_form(mix)
        return project_boundary(game, out, c, eta) if c > 1.0 or not mixable else out

    return transform


def sg_fixed_point(state: Session, experts: Sequence[SecondGuessExpert],
                   *, tol: float = 1e-10,
                   log_posterior: np.ndarray | None = None) -> np.ndarray:
    """Solve ``gamma = F(mix(Gamma(gamma)))`` for the session's posterior, or
    for the given ``log_posterior``.

    A game whose decisions are the simplex is solved in decision
    coordinates, for a fixed point of ``D(x) = game.substitution(F(x))``,
    where ``F(x)`` is the transform at ``x``'s loss vector: one transform
    call a batch of points.  The search is Sperner's
    (:func:`~expertmix.defensive.dfa_solve_simplex` with ``C = 1`` and
    ``epsilon = 0``, so its grid covers the closed simplex and reaches
    fixed points on a face) with the label ``q(x, w) = 1 + D(x)_w - x_w``.
    Both ``D(x)`` and ``x`` sum to 1, so some ``w`` in ``x``'s support has
    ``q(x, w) <= 1``, which is all its Sperner argument needs.  It returns
    ``x``'s loss vector for the first ``x`` with ``D(x)_w - x_w <=
    min(tol, 1e-12)`` for every ``w``, in at most 41 transform calls, and
    otherwise raises :class:`~expertmix.errors.SlackExceeded` with the
    best point.

    Binary box games bisect the decision parameter (the minimal set is a
    curve, so the equation is one-dimensional) for a sign change of ``h(p)
    = (the transform's decision parameter at p's loss vector) - p``.
    Exits at p = 0 when ``h(0) <= tol``, then at p = 1 when ``h(1) >=
    -tol``; otherwise stops at the first node with ``|h| <= min(tol,
    1e-12)`` or whose bracket is at most ``1e-14`` wide (a NaN h moves the
    upper end).  The bisection is
    :func:`~expertmix.defensive.dfa_solve_binary`'s engine
    (:func:`~expertmix.defensive._bisection`): one transform call for ``p
    = 0, 1, 1/2``, then one for each later six levels of the bracket with
    the path that inverse interpolation predicts, the root of one level
    per call bit for bit.  A batch that raises is re-run one row at a time,
    and a row's error is raised when the bisection reaches its node, so
    each error comes at the node one level per call would meet it.

    Any other game raises ``ValueError``.
    """
    game = state.game
    transform = _sg_transform(state, experts, log_posterior)

    if game.decision_kind == "simplex":
        def q(x: np.ndarray) -> np.ndarray:
            return 1.0 + np.asarray(game.substitution(transform(game.loss_rows(x))),
                                    dtype=float) - x

        return game.loss_vector(dfa_solve_simplex(q, 1.0, game.m, 0.0, min(tol, 1e-12)))
    if game.m != 2:
        raise ValueError(f"no fixed-point solver for game {game.name!r}: "
                         f"{game.m} outcomes and decisions off the simplex")
    errors = {}  # node -> the error its one-row transform raised

    def rows(p: np.ndarray) -> np.ndarray:
        """The rows ``(p, the transform's decision parameter at p's loss
        vector)``, NaN for a node whose transform raised."""
        try:
            dec = game.substitution(transform(game.loss_rows(p[:, None])))
            return np.column_stack([p, np.asarray(dec, dtype=float)[:, 0]])
        except Exception as exc:  # row by row, each error kept for its node
            if len(p) == 1:
                errors[float(p[0])] = exc
                return np.array([[p[0], np.nan]])
            return np.concatenate([rows(p[r:r + 1]) for r in range(len(p))])

    first = rows(np.array([0.0, 1.0, 0.5]))
    for p in (0.0, 1.0):
        if p in errors:
            raise errors[p]
    h0, h1 = first[:2, 1] - first[:2, 0]
    if h0 <= tol:
        p_star = 0.0
    elif h1 >= -tol:
        p_star = 1.0
    else:
        stop = min(tol, 1e-12)
        # the width stop ends the walk by level 48, long before the engine's own
        for p_star, h, width, _, _ in _bisection(rows, _FIRST_ROW_UNTABLED, first, 200, stop):
            if p_star in errors:
                raise errors[p_star]
            if abs(h) <= stop or width <= 1e-14:
                break
    return game.loss_vector(np.array([p_star]))


def sg_fixed_point_residual(state: Session, experts: Sequence[SecondGuessExpert],
                            gamma: np.ndarray) -> float:
    """sup-norm residual of the fixed-point equation at ``gamma``; a
    coordinate where the transform's value equals ``gamma``'s (an infinite
    one too) counts 0."""
    gamma = np.asarray(gamma, dtype=float)
    out = _sg_transform(state, experts)(gamma[None])[0]
    with np.errstate(invalid="ignore"):  # inf - inf where both are infinite, replaced
        return float(np.max(np.where(out == gamma, 0.0, np.abs(out - gamma))))


def sg_aa_rounds(state: Session, experts: Sequence[SecondGuessExpert], outcomes, pick,
                 *, tol: float = 1e-10):
    """Fixed-point mixing in a block of rounds (:func:`_sg_rounds`:
    ``outcomes`` are those of the rounds before the last, and
    ``pick(gamma)`` gives the last round's): each round announces the
    solution ``gamma`` for its posterior, and the experts are scored by
    their conditional advice at it.  Returns what
    :func:`~expertmix.aggregating.aa_rounds` returns, plus the advice
    scored, shape (B, k, m)."""
    return _sg_rounds(state, experts, outcomes, pick, lambda log_posterior: (
        sg_fixed_point(state, experts, tol=tol, log_posterior=log_posterior), 0.0, None))


def sg_aa_step(state: Session, experts: Sequence[SecondGuessExpert],
               outcome: int, *, tol: float = 1e-10) -> tuple[np.ndarray, Session]:
    """Fixed-point mixing round: announce the solution, observe, reweigh
    with the experts' realized conditional losses."""
    gammas, *_, rounds, _ = sg_aa_rounds(state, experts, np.empty(0, int), lambda gamma: outcome,
                                         tol=tol)
    return gammas[0], state.after(rounds)
