"""Exponential mixing of expert advice with posterior weights, substitution
into a legal decision, and the two geometric maps used by the constructive
theory: the radial boundary projection and the coordinatewise retraction
onto minimal elements.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .core import (
    MEMBERSHIP_TOL,
    SUBSTITUTION_TOL,
    Game,
    Session,
    as_losses,
    dominated_by,
    domination_gap,
    log_mix,
    start_session,
)
from .errors import AllExpertsDead, DimensionMismatch, NotRealizable, SubstitutionFailure
from .losses import _brier_loss, _brier_retraction, _log_retraction, _safe_neg_log


def _advice_matrix(advice, m: int, k: int) -> np.ndarray:
    """The advice rows of ``k`` experts over ``m`` outcomes, (k, m), or of a
    block of rounds, (B, k, m), validated unless already a float array."""
    if isinstance(advice, np.ndarray) and advice.ndim in (2, 3) and \
            advice.dtype == np.float64:
        A = advice
    else:
        rows = [as_losses(g) for g in advice]
        A = np.stack(rows) if rows else np.empty((0, m))
    if A.shape[-1] != m:
        raise DimensionMismatch(f"advice over {A.shape[-1]} outcomes, game has {m}")
    if A.shape[-2] != k:
        raise DimensionMismatch(f"{A.shape[-2]} advice rows for {k} experts")
    return A


def aa_start(game: Game, *, eta: float, c: float = 1.0,
             prior: Sequence[float] | np.ndarray | None = None,
             n_experts: int | None = None) -> Session:
    return start_session(game, prior, n_experts, c=c, eta=eta)


def aa_mix(state: Session, advice, log_posterior: np.ndarray | None = None) -> np.ndarray:
    """Mixed superprediction
    ``g(w) = -(c/eta) ln sum_t wbar_t exp(-eta * advice_t(w))`` for the
    advice rows (k, m) under the session's posterior, or for a block of
    rounds, advice (B, k, m) under their ``log_posterior`` rows (B, k)."""
    A = _advice_matrix(advice, state.game.m, state.n_experts)
    lwn = state.log_posterior() if log_posterior is None else log_posterior
    return _scaled_mix(state, log_mix(lwn, state.eta, A))


def _scaled_mix(state: Session, logs: np.ndarray) -> np.ndarray:
    """AA's mix ``-(c/eta) logs`` from the log-mix ``logs`` (:func:`log_mix`),
    infinite where it is ``-inf``."""
    g = np.where(np.isneginf(logs), np.inf, -(state.c / state.eta) * logs)
    return np.maximum(g, 0.0)


def substitute(state: Session, g: np.ndarray,
               tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The game's substituted decision for the prediction ``g`` and its loss
    vector, or for a block of predictions (B, m) the decisions and loss
    vectors of each row.  Raises :class:`SubstitutionFailure`, at the first
    failing row, unless that loss vector is dominated by ``g`` up to
    ``tol``, i.e. when (c, eta) is outside the game's realizability
    contract."""
    decision = np.asarray(state.game.substitution(g), dtype=float)
    lv = state.game.loss_vector(decision)
    # dominated_by row by row (an infinite g bounds nothing, and a NaN fails
    # every comparison); a failing row is handed to it for its error
    ok = np.all((lv <= g + tol) & (lv >= 0) & (g >= 0), axis=-1)
    if not np.all(ok):
        i = (np.flatnonzero(~ok)[0],) if ok.ndim else ()
        if not dominated_by(lv[i], g[i], tol):
            raise SubstitutionFailure(
                f"substituted decision exceeds the prediction by "
                f"{float(np.max(np.where(np.isfinite(g[i]), lv[i] - g[i], -np.inf))):.3e}; "
                f"(c={state.c}, eta={state.eta}) is not realizable for {state.game.name!r}"
            )
    return decision, lv


def substituted_rounds(state: Session, forecasts: np.ndarray, advice: np.ndarray,
                       outcomes: np.ndarray, pick, log_weights: np.ndarray,
                       log_value: np.ndarray, slack: np.ndarray,
                       error: Exception | None = None, score=None):
    """The tail of a block of B rounds: one batched substitution of the
    rounds' ``forecasts`` (B', m), then ``error``, raised for a block cut
    short in round B' < B once the rounds before it are substituted, as
    round by round.  Reality then picks the last round's
    outcome, ``pick(loss_vector)``, after the others' ``outcomes``;
    ``score(w)`` gives the last round's learner term and every round's log
    factor (zero and None for mixing); and the weights before each round,
    ``log_weights`` (B, k) and ``log_value`` (B,), give those after it.
    Returns the decisions, Learner's and the experts' losses, the slack and
    the :class:`Rounds`."""
    decisions, lvs = substitute(state, forecasts, SUBSTITUTION_TOL)
    if error is not None:
        raise error
    w = np.concatenate((outcomes, [pick(lvs[-1])]))
    rows = np.arange(len(w))
    learner_losses, expert_losses = lvs[rows, w], advice[rows, :, w]
    term, log_factors = (0.0, None) if score is None else score(w)
    lw, lv, _ = state.reweigh(expert_losses[-1:], term, log_weights[-1])
    lw, lv = np.concatenate((log_weights[1:], lw)), np.concatenate((log_value[1:], lv))
    return decisions, learner_losses, expert_losses, slack, state.rounds(
        lw, lv, learner_losses, expert_losses, slack, log_factors)


def aa_rounds(state: Session, advice: np.ndarray, outcomes: np.ndarray, pick):
    """Play a block of B rounds whose advice, shape (B, k, m), does not
    depend on Learner's moves: ``outcomes`` (B - 1,) are those of the
    rounds before the last, and ``pick(loss_vector)`` gives the last
    round's from Learner's loss vector there (a round that Reality or an
    expert must see before it is decided is a block of one).  One reweigh
    gives the posterior before every round, one batched mix and
    substitution the decisions.  Returns the decisions, Learner's losses,
    the experts' losses, the rounds' (zero) slack and the session's
    :class:`Rounds`, each row what :func:`aa_step` gives that round.
    :class:`AllExpertsDead` and :class:`SubstitutionFailure` are raised for
    the first round that meets them, before Reality picks."""
    lw, lv, lwn = state.before(advice[np.arange(len(outcomes)), :, outcomes])
    g = aa_mix(state, advice[:len(lwn)], lwn)
    return substituted_rounds(state, g, advice, outcomes, pick, lw, lv, np.zeros(len(lv)),
                              AllExpertsDead() if len(lwn) < len(lv) else None)


def aa_step(state: Session, advice, outcome: int) -> tuple[np.ndarray, Session]:
    """One protocol round: mix, substitute, observe, reweigh (a block of
    one of :func:`aa_rounds`)."""
    A = _advice_matrix(advice, state.game.m, state.n_experts)
    decisions, *_, rounds = aa_rounds(state, A[None], np.empty(0, int), lambda lv: outcome)
    return decisions[0], state.after(rounds)


def log_semi_invariant(state: Session) -> float:
    """ln of ``sum_t P0(t) exp(eta (L_N / c - L_N^t))``; never increases
    along a realizable run.  :meth:`~expertmix.core.Session.rounds` gives it
    after each round of a block as the mixing session's
    ``log_supermartingale``."""
    return float(state.eta * state.cumulative_loss / state.c + state.log_value)


# ---------------------------------------------------------------------------
# Geometric maps


def _membership_tol(game: Game) -> float:
    """Closed-form membership is exact, so boundary searches can bisect
    against zero; the numeric grid search needs the one-sided slack."""
    return 0.0 if game.membership_gap is not None else MEMBERSHIP_TOL


def _gap_rule(game: Game, eta: float | None = None) -> Callable[[np.ndarray], np.ndarray]:
    """The gap that :func:`domination_gap` (``eta`` None) or
    :func:`hull_membership_gap` at ``eta`` computes, of each row of a batch
    (n, m) of validated loss vectors of the game's size, picked once for
    the probes of a boundary search: the game's closed form or its hull
    closed form, each one call a batch, or the numeric search, one call a
    row.  Raises ``ValueError`` when ``eta`` has no hull membership rule."""
    if eta is not None and not game.mixable_at(eta):
        if game.hull_membership_gap is None:
            raise ValueError(f"game {game.name!r} has no hull membership rule at eta={eta}")
        return lambda V: game.hull_membership_gap(V, eta)
    if game.membership_gap is not None:
        return game.membership_gap
    return lambda V: np.array([domination_gap(game, v) for v in V])


def _check_tol(tol: float) -> None:
    if not tol >= 0.0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")


def _loss_rows(game: Game, g) -> tuple[np.ndarray, np.ndarray]:
    """A validated copy of ``g`` (m,) or (n, m), and its rows as a view (n, m)."""
    cur = as_losses(g).copy()
    if cur.shape[-1] != game.m:
        raise DimensionMismatch(f"loss vector of size {cur.shape[-1]} for {game.m} outcomes")
    return cur, cur.reshape(-1, game.m)


def _bisect(member: Callable[[np.ndarray, np.ndarray], np.ndarray], hi: np.ndarray,
            tol: float) -> np.ndarray:
    """The upper ends of the brackets that bisection of each ``[0, hi_r]``
    leaves around the least ``x`` with ``member``, for members ``hi`` (n,):
    both boundary searches' loop.  Each level is one call ``member(rows,
    x)`` on the rows still open and their midpoints, each row's midpoints
    those of a one-row bisection.  A row halves until its bracket is at most
    ``tol`` wide, or until a midpoint leaves the bracket unchanged (its ends
    are then adjacent floats, which no ``tol`` below their distance could
    split)."""
    hi, lo = np.array(hi, dtype=float), np.zeros(len(hi))
    rows = np.flatnonzero(hi > tol)
    while rows.size:
        mid = 0.5 * (lo[rows] + hi[rows])
        ok = member(rows, mid)
        stuck = mid == np.where(ok, hi[rows], lo[rows])
        hi[rows] = np.where(ok, mid, hi[rows])
        lo[rows] = np.where(ok, lo[rows], mid)
        rows = rows[~stuck & (hi[rows] - lo[rows] > tol)]
    return hi


def project_boundary(game: Game, g, c: float, eta: float,
                     tol: float = 1e-10) -> np.ndarray:
    """Radial projection ``V(g) = R(g) g`` with
    ``R(g) = min{r in (0, c] : r g in Sigma}``, of ``g`` (m,) or of each
    row of a batch (n, m), each row bisected as a one-row call bisects it
    (:func:`_bisect`).

    Returns the zero vector when it is itself a superprediction.  Raises
    :class:`NotRealizable`, for the first such row, when even ``r = c``
    misses the superprediction set (the scaling constant is too small for
    this game), and ``ValueError`` for a negative or NaN ``tol``.
    """
    _check_tol(tol)
    cur, rows = _loss_rows(game, g)
    # the gap is locally linear in r, so a tiny slack costs ~nothing in R
    # but absorbs rounding at an exactly-critical scaling constant
    mtol = max(_membership_tol(game), 1e-12)
    gap = _gap_rule(game)
    if gap(np.zeros((1, game.m)))[0] <= mtol:
        return np.zeros_like(cur)
    c_gap = gap(c * rows)
    if not np.all(c_gap <= mtol):
        raise NotRealizable(f"{c} * g is not a superprediction of {game.name!r} "
                            f"(gap {c_gap[np.argmin(c_gap <= mtol)]:.3e})")
    r = _bisect(lambda i, r: gap(r[:, None] * rows[i]) <= mtol, np.full(len(rows), float(c)),
                tol)
    return (r[:, None] * rows).reshape(cur.shape)


_EXPAND_CAP = 1e12


def _closed_form_retraction(game: Game, eta: float):
    """The retraction of each row of a batch (n, m) in the ``eta``-hull, in
    closed form where the game has one at a mixable ``eta``:

    - a binary box game with a closed-form gap (log, and square): ``loss(p)``
      at the lower end ``p`` of the row's feasible interval, clipped to
      [0, 1].  Coordinate 0 drops to ``loss(p)[0]``, the least value that
      keeps the row a member, and coordinate 1 then to ``loss(p)[1]``, the
      least that keeps ``loss(p)[0]`` one.  A row whose interval is empty
      by more than ``MEMBERSHIP_TOL`` is not a member.
    - log and kl with simplex decisions
      (:func:`~expertmix.losses._log_retraction`), and brier
      (:func:`~expertmix.losses._brier_retraction`).

    A row that is not a member raises ``ValueError``, and no form probes
    the game's gap.  None for every other rule (hull gaps, the numeric
    search)."""
    if game.membership_gap is None or not game.mixable_at(eta):
        return None
    if game.m == 2 and game.feasible_interval is not None:
        def retract(rows: np.ndarray) -> np.ndarray:
            lo, hi = game.feasible_interval(rows)
            if np.any(lo - hi > MEMBERSHIP_TOL):
                raise ValueError("input is not a superprediction (or hull member)")
            return game.loss(np.minimum(np.maximum(lo, 0.0), 1.0)[:, None])
        return retract
    return {_safe_neg_log: _log_retraction, _brier_loss: _brier_retraction}.get(game.loss)


def retraction_F(game: Game, g, *, eta: float | None = None,
                 tol: float = 1e-10) -> np.ndarray:
    """Coordinatewise retraction onto the minimal elements of ``g`` (m,), or
    of each row of a batch (n, m): lower each coordinate in ascending
    outcome order as far as membership permits.

    When ``eta`` is given, membership means the eta-hull of the
    superprediction set (identical to the base set whenever mixability is
    asserted at that eta).  Different coordinate orders yield different,
    equally minimal points; ascending order is pinned here.

    Each coordinate of each row is the bisection of ``[0, g_w]`` for the
    least member, to width ``tol``, after one probe of 0; an infinite
    coordinate first doubles a finite bound up from 1.  A coordinate is
    lowered in all rows together: one gap call a level on the rows still
    open (:func:`_bisect`), each row with the probes and bits of a one-row
    call.  Raises ``ValueError`` when a row is not a member, or for a
    negative or NaN ``tol``.  The second-guessing fixed point retracts in
    closed form where the game has one (:func:`_closed_form_retraction`).
    """
    _check_tol(tol)
    cur, rows = _loss_rows(game, g)  # the rows are retracted in place
    mtol = _membership_tol(game)
    gap = _gap_rule(game, eta)
    if np.any(gap(rows) > max(mtol, MEMBERSHIP_TOL)):
        raise ValueError("input is not a superprediction (or hull member)")
    for w in range(game.m):
        def member(i: np.ndarray, x) -> np.ndarray:
            probes = rows[i]
            probes[:, w] = x
            return gap(probes) <= mtol

        zero = member(np.arange(len(rows)), 0.0)
        rows[zero, w] = 0.0
        i = np.flatnonzero(~zero & np.isfinite(rows[:, w]))
        for j in np.flatnonzero(~zero & ~np.isfinite(rows[:, w])):
            # an infinite coordinate doubles a finite bound up from 1, row by
            # row; it stays where no finite value restores membership
            hi = 1.0
            while not member([j], hi)[0] and hi < _EXPAND_CAP:
                hi *= 2.0
            if member([j], hi)[0]:
                rows[j, w], i = hi, np.append(i, j)
        rows[i, w] = _bisect(lambda j, x: member(i[j], x), rows[i, w], tol)
    return cur
