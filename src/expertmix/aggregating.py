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
    Rounds,
    Session,
    as_losses,
    dominated_by,
    domination_gap,
    hull_membership_gap,
    log_mix,
    start_session,
)
from .errors import AllExpertsDead, DimensionMismatch, NotRealizable, SubstitutionFailure


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
    lw, lv = state.reweigh(expert_losses[-1:], term, log_weights[-1])
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
    lw, lv = state.reweigh(advice[np.arange(len(outcomes)), :, outcomes])
    # the weights before each round: the session's, then each earlier round's
    lw = np.concatenate([state.log_weights[None], lw])
    lv = np.concatenate([[state.log_value], lv])
    dead = np.isneginf(lv)
    live = int(np.argmax(dead)) if dead.any() else len(lv)
    g = aa_mix(state, advice[:live], lw[:live] - lv[:live, None])
    return substituted_rounds(state, g, advice, outcomes, pick, lw, lv, np.zeros(len(lv)),
                              AllExpertsDead() if live < len(lv) else None)


def aa_step(state: Session, advice, outcome: int) -> tuple[np.ndarray, Session]:
    """One protocol round: mix, substitute, observe, reweigh (a block of
    one of :func:`aa_rounds`)."""
    A = _advice_matrix(advice, state.game.m, state.n_experts)
    decisions, *_, rounds = aa_rounds(state, A[None], np.empty(0, int), lambda lv: outcome)
    return decisions[0], state.after(rounds)


def log_semi_invariant(state: Session, rounds: Rounds | None = None):
    """ln of ``sum_t P0(t) exp(eta (L_N / c - L_N^t))``, now or, shape (B,),
    after each round of ``rounds``; never increases along a realizable
    run."""
    if rounds is None:
        return float(state.eta * state.cumulative_loss / state.c + state.log_value)
    with np.errstate(invalid="ignore"):  # inf + -inf, as in float arithmetic
        return state.eta * rounds.cumulative_loss / state.c + rounds.log_value


# ---------------------------------------------------------------------------
# Geometric maps


def _membership_tol(game: Game) -> float:
    """Closed-form membership is exact, so boundary searches can bisect
    against zero; the numeric grid search needs the one-sided slack."""
    return 0.0 if game.membership_gap is not None else MEMBERSHIP_TOL


def _gap_rule(game: Game, eta: float | None = None) -> Callable[[np.ndarray], float]:
    """The gap that :func:`domination_gap` (``eta`` None) or
    :func:`hull_membership_gap` at ``eta`` computes, picked once for the
    probes of a boundary search, whose points are validated loss vectors
    of the game's size: the game's closed form, its hull closed form, or
    the numeric search."""
    if eta is not None and not game.mixable_at(eta):
        return lambda v: game.hull_membership_gap(v, eta)
    if game.membership_gap is not None:
        return game.membership_gap
    return lambda v: domination_gap(game, v)


def _check_tol(tol: float) -> None:
    if not tol >= 0.0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")


def _bisect(member: Callable[[float], bool], hi: float, tol: float) -> float:
    """The upper end of the bracket that bisection of ``[0, hi]`` leaves
    around the least ``x`` with ``member(x)``, for a member ``hi``: both
    boundary searches' loop.  It halves until the bracket is at most
    ``tol`` wide, or until a midpoint leaves the bracket unchanged (its ends
    are then adjacent floats, which no ``tol`` below their distance could
    split)."""
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if member(mid):
            if mid == hi:
                break
            hi = mid
        else:
            if mid == lo:
                break
            lo = mid
    return hi


def project_boundary(game: Game, g, c: float, eta: float,
                     tol: float = 1e-10) -> np.ndarray:
    """Radial projection ``V(g) = R(g) g`` with
    ``R(g) = min{r in (0, c] : r g in Sigma}``.

    Returns the zero vector when it is itself a superprediction.  Raises
    :class:`NotRealizable` when even ``r = c`` misses the superprediction
    set (the scaling constant is too small for this game), and
    ``ValueError`` for a negative or NaN ``tol``.
    """
    _check_tol(tol)
    arr = as_losses(g)
    # the gap is locally linear in r, so a tiny slack costs ~nothing in R
    # but absorbs rounding at an exactly-critical scaling constant
    mtol = max(_membership_tol(game), 1e-12)
    gap = _gap_rule(game)
    if gap(np.zeros(game.m)) <= mtol:
        return np.zeros(game.m)
    c_gap = domination_gap(game, c * arr)
    if not c_gap <= mtol:
        raise NotRealizable(
            f"{c} * g is not a superprediction of {game.name!r} (gap {c_gap:.3e})"
        )
    return _bisect(lambda r: gap(r * arr) <= mtol, float(c), tol) * arr


_EXPAND_CAP = 1e12


def _closed_form_retraction(game: Game, eta: float):
    """The retraction of each row of a batch (n, 2) in the ``eta``-hull, when
    that is a binary box game's base set with a closed-form gap (log, and
    square at a mixable ``eta``): ``loss(p)`` at the lower end ``p`` of the
    row's feasible interval, clipped to [0, 1].  Coordinate 0 drops to
    ``loss(p)[0]``, the least value that keeps the row a member, and
    coordinate 1 then to ``loss(p)[1]``, the least that keeps
    ``loss(p)[0]`` one.  A row whose interval is empty by more than
    ``MEMBERSHIP_TOL`` is not a member and raises ``ValueError``.  None
    for every other rule (hull gaps, the numeric search, three or more
    outcomes)."""
    if game.membership_gap is None or game.feasible_interval is None or game.m != 2 \
            or not game.mixable_at(eta):
        return None

    def retract(rows: np.ndarray) -> np.ndarray:
        lo, hi = game.feasible_interval(rows)
        if np.any(lo - hi > MEMBERSHIP_TOL):
            raise ValueError("input is not a superprediction (or hull member)")
        return game.loss(np.minimum(np.maximum(lo, 0.0), 1.0)[:, None])

    return retract


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
    coordinate first doubles a finite bound up from 1.  Raises
    ``ValueError`` when a row is not a member, or for a negative or NaN
    ``tol``.  The second-guessing fixed point retracts a binary box game's
    mixes in closed form instead (:func:`_closed_form_retraction`).
    """
    _check_tol(tol)
    cur = as_losses(g).copy()
    if cur.shape[-1] != game.m:
        raise DimensionMismatch(f"loss vector of size {cur.shape[-1]} for {game.m} outcomes")
    rows = cur.reshape(-1, game.m)  # a view: the rows are retracted in place
    mtol = _membership_tol(game)
    gap = _gap_rule(game, eta)
    for row in rows:
        entry = domination_gap(game, row) if eta is None else hull_membership_gap(game, row, eta)
        if entry > max(mtol, MEMBERSHIP_TOL):
            raise ValueError("input is not a superprediction (or hull member)")
        for w in range(game.m):
            probe = row.copy()

            def member(x: float) -> bool:
                probe[w] = x
                return gap(probe) <= mtol

            if member(0.0):
                row[w] = 0.0
                continue
            hi = float(row[w])
            if not np.isfinite(hi):
                hi = 1.0
                while not member(hi) and hi < _EXPAND_CAP:
                    hi *= 2.0
                if not member(hi):
                    continue  # no finite value restores membership
            row[w] = _bisect(member, hi, tol)
    return cur
