"""Probability and extended-real loss vectors, the shared geometry of
prediction games, and the session every protocol runs.

A game is a finite outcome set together with a parametric decision domain
and a loss map; every decision is identified with its per-outcome loss
vector in ``[0, inf]^m``.  Extended-real conventions used throughout:
``exp(-eta * inf) == 0`` exactly, and expectations skip coordinates whose
probability is zero (so ``0 * inf == 0`` inside an expectation).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import (
    AllExpertsDead,
    DimensionMismatch,
    InvalidDistribution,
    InvalidLossVector,
)

#: Normalization tolerance for probability vectors.  Inputs further from
#: summing to one are rejected, never silently renormalized.
PROB_TOL = 1e-12

#: Default one-sided slack for superprediction membership tests.
MEMBERSHIP_TOL = 1e-9

#: How far a substituted decision's loss may exceed the prediction it
#: substitutes, coordinate by coordinate.
SUBSTITUTION_TOL = 1e-7

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def as_probs(pi) -> np.ndarray:
    """Coerce an array-like to a validated probability vector: 1-d,
    nonnegative, and summing to one within ``PROB_TOL``."""
    arr = np.asarray(pi, dtype=float)
    if arr.ndim != 1:
        raise InvalidDistribution(f"expected 1-d probability vector, got shape {arr.shape}")
    if np.any(np.isnan(arr)) or np.any(arr < 0):
        raise InvalidDistribution(f"negative or NaN probabilities: {arr}")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise InvalidDistribution(
            f"probabilities sum to {total!r}, outside tolerance {PROB_TOL}"
        )
    return arr


def as_losses(g) -> np.ndarray:
    """Coerce an array-like to a validated loss vector in ``[0, inf]^m``."""
    arr = np.asarray(g, dtype=float)
    if np.isnan(arr).any():
        raise InvalidLossVector(f"NaN loss entry in {arr}")
    if (arr < 0).any():
        raise InvalidLossVector(f"negative loss entry in {arr}")
    return arr


def dominated_by(candidate, g, tol: float = 0.0) -> bool:
    """Pointwise ``candidate <= g + tol`` (infinite coordinates of ``g``
    dominate everything)."""
    cand = as_losses(candidate)
    target = as_losses(g)
    finite = np.isfinite(target)
    return bool(np.all(cand[~finite] >= 0)) and bool(
        np.all(cand[finite] <= target[finite] + tol)
    )


def log_sum_exp(a: np.ndarray, axis: int | None = None):
    """Lean log-sum-exp for small arrays; all-(-inf) slices give -inf."""
    a = np.asarray(a, dtype=float)
    if axis is None:
        top = a.max()
        if math.isfinite(top):  # the common case, in the general path's bits
            return float(np.log(np.exp(a - top).sum()) + top)
    hi = a.max(axis=axis, keepdims=True)
    if np.isfinite(hi).all():  # the common case again
        return np.log(np.exp(a - hi).sum(axis=axis)) + hi.squeeze(axis)
    safe_hi = np.where(np.isfinite(hi), hi, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.log(np.sum(np.exp(a - safe_hi), axis=axis)) + np.squeeze(safe_hi, axis=axis)
    out = np.where(np.isneginf(np.squeeze(hi, axis=axis)), -np.inf, out)
    return out if axis is not None else float(out)


def log_normalise(log_weights: np.ndarray):
    """The log-sum-exp of log weights, one row (k,) or rows (B, k), and the
    normalised log weights (the log posterior) of each row, from one exp
    pass.  The posterior is centred (Blanchard, Higham & Higham 2021): each
    row less its largest entry, which is exact for the leading expert, less
    the log of the small sum that is left, so it sums to one within a few
    ulps however far the weights have drifted.  A row whose weights are all
    zero has log value ``-inf`` and a posterior of NaN, which no caller
    reads."""
    if log_weights.ndim == 1 and math.isfinite(top := log_weights.max()):  # one live row
        shifted = log_weights - top
        log_s = np.log(np.exp(shifted).sum())
        return log_s + top, shifted - log_s
    top = log_weights.max(axis=-1, keepdims=True)
    safe = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # a row with no weight
        shifted = log_weights - safe
        log_s = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        return np.where(np.isfinite(top), log_s + safe, top)[..., 0], shifted - log_s


def live_posterior(log_value, log_posterior: np.ndarray) -> np.ndarray:
    """``log_posterior``, a row's normalised log weights from
    :func:`log_normalise`; raises :class:`AllExpertsDead` when every
    expert carries zero weight (``log_value`` is ``-inf``)."""
    if log_value == -math.inf:
        raise AllExpertsDead()
    return log_posterior


def log_mix(lwn: np.ndarray, eta, A: np.ndarray) -> np.ndarray:
    """``ln sum_t exp(lwn_t - eta A_t(w))`` for every outcome ``w``: the log
    of the weighted exponential mix of the advice rows ``A``, shape (k, m),
    or of a block of rounds, ``lwn`` (B, k) and ``A`` (B, k, m).  Infinite
    advice entries contribute nothing, so a coordinate is ``-inf`` exactly
    when every positively-weighted row is infinite there."""
    with np.errstate(invalid="ignore"):
        shifted = np.where(np.isinf(A), -np.inf,
                           lwn[..., None] - eta * np.where(np.isinf(A), 0.0, A))
    return log_sum_exp(shifted, axis=-2)


def expected_loss(pi, g) -> float:
    """Expectation of ``g`` under ``pi``, skipping zero-probability
    coordinates; ``inf`` iff some positive-probability coordinate is
    infinite."""
    p = as_probs(pi)
    v = as_losses(g)
    if p.shape != v.shape:
        raise DimensionMismatch(f"shapes {p.shape} vs {v.shape}")
    live = p > 0
    if np.any(np.isinf(v[live])):
        return float("inf")
    return float(np.dot(p[live], v[live]))


def exp_mix(points, weights, eta: float) -> np.ndarray:
    """Exponential mixture ``-(1/eta) * ln(sum_i w_i exp(-eta g_i))``.

    A coordinate is ``inf`` exactly when every positively-weighted point is
    infinite there.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    pts = [as_losses(g) for g in points]
    if not pts:
        raise ValueError("empty point list")
    G = np.stack(pts)
    w = np.asarray(weights, dtype=float)
    if w.shape != (G.shape[0],):
        raise DimensionMismatch(f"{G.shape[0]} points but weight shape {w.shape}")
    if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= PROB_TOL):  # NaN fails too
        raise InvalidDistribution("weights must be a probability vector")
    E = np.where(np.isinf(G), 0.0, np.exp(-eta * np.where(np.isinf(G), 0.0, G)))
    s = w @ E
    out = np.full(G.shape[1], np.inf)
    pos = s > 0
    out[pos] = -np.log(s[pos]) / eta
    # mixtures of nonnegative vectors stay nonnegative up to rounding
    return np.maximum(out, 0.0)


# ---------------------------------------------------------------------------
# Games


@dataclass(frozen=True, eq=False)
class Game:
    """A prediction game over a finite outcome space.

    ``loss`` maps a decision (shape ``(decision_dim,)``, or a batch
    ``(n, decision_dim)``) to per-outcome losses.  ``substitution`` maps any
    superprediction (shape ``(m,)``, or a batch ``(n, m)``) to a decision
    whose loss vector minorizes it.  Optional
    closed forms (membership gap, entropy, proper loss, hull machinery)
    override the generic numeric search where a game supplies them.
    ``membership_gap`` and ``hull_membership_gap`` take a batch (n, m) as
    well as one ``g``, and so do ``hull_proper_loss`` and, on a binary
    game, ``feasible_interval``.  ``forecast_of``
    maps a decision, or a batch, to the forecast whose ``proper_loss``
    vector is the decision's loss vector: the identity where the proper
    loss is the game's loss (log, kl, brier with simplex decisions), and
    ``(1 - p, p)`` for a binary box decision ``p``.
    """

    name: str
    m: int  # the number of outcomes
    decision_kind: str  # "box" ([0,1]^d) or "simplex" (P(Omega))
    decision_dim: int
    loss: Callable[[np.ndarray], np.ndarray]
    substitution: Callable[[np.ndarray], np.ndarray]
    eta_mixable_range: tuple[float, float] | None = None
    proper_loss: Callable[[np.ndarray], np.ndarray] | None = None
    membership_gap: Callable[[np.ndarray], float] | None = None
    hull_membership_gap: Callable[[np.ndarray, float], float] | None = None
    hull_proper_loss: Callable[[np.ndarray, float], np.ndarray] | None = None
    boundary_proper_loss: Callable[[np.ndarray, float, float], np.ndarray] | None = None
    entropy: Callable[[np.ndarray], float] | None = None
    feasible_interval: Callable[[np.ndarray], tuple[float, float]] | None = None
    forecast_of: Callable[[np.ndarray], np.ndarray] = np.asarray

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("a game needs at least two outcomes")

    def mixable_at(self, eta: float) -> bool:
        """True iff mixability is asserted for this eta (False when the
        range is unknown or empty)."""
        if self.eta_mixable_range is None:
            return False
        lo, hi = self.eta_mixable_range
        return lo < eta <= hi

    def loss_vector(self, decision) -> np.ndarray:
        dec = np.atleast_1d(np.asarray(decision, dtype=float))
        return np.asarray(self.loss(dec), dtype=float)

    def loss_rows(self, decisions) -> np.ndarray:
        """The loss vectors of decisions of shape (..., decision_dim), shape
        (..., m), from one batched loss call."""
        dec = np.asarray(decisions, dtype=float)
        rows = self.loss(dec.reshape(-1, self.decision_dim))
        return np.asarray(rows, dtype=float).reshape(*dec.shape[:-1], self.m)


def simplex_grid(m: int, n: int) -> np.ndarray:
    """All points ``k/n`` with ``k`` a composition of ``n`` into ``m``
    nonnegative parts, in lexicographic order of ``k`` (first coordinate
    slowest).  This ordering is part of the oracle contract."""
    if m == 2:
        k = np.arange(n + 1)
        return np.column_stack([k, n - k]) / n
    rows = []
    for head in itertools.product(range(n + 1), repeat=m - 1):
        rest = n - sum(head)
        if rest >= 0:
            rows.append(head + (rest,))
    return np.asarray(rows, dtype=float) / n


def decision_grid(game: Game, per_dim: int = 1024) -> np.ndarray:
    """Dense grid over the game's decision domain, shape (n, decision_dim)."""
    if game.decision_kind == "box":
        axes = [np.linspace(0.0, 1.0, per_dim + 1)] * game.decision_dim
        if game.decision_dim == 1:
            return axes[0][:, None]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([ax.ravel() for ax in mesh])
    if game.decision_kind == "simplex":
        d = game.decision_dim
        # cap the subdivision count so the grid stays enumerable for d >= 3
        n = per_dim if d <= 2 else max(32, int(round(2.0e5 ** (1.0 / (d - 1)))))
        return simplex_grid(d, n)
    raise ValueError(f"unknown decision kind {game.decision_kind!r}")


def _batch_losses(game: Game, decisions: np.ndarray) -> np.ndarray:
    out = game.loss(decisions)
    arr = np.asarray(out, dtype=float)
    if arr.shape == (decisions.shape[0], game.m):
        return arr
    # scalar-only loss callable: fall back to a row loop
    return np.stack([np.asarray(game.loss(d), dtype=float) for d in decisions])


def golden_min(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-12, max_iter: int = 200) -> tuple[float, float]:
    """Golden-section minimizer on [lo, hi]; returns (x, f(x))."""
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _grid_gap(game: Game, g: np.ndarray, per_dim: int) -> tuple[np.ndarray, float]:
    grid = decision_grid(game, per_dim)
    L = _batch_losses(game, grid)
    finite = np.isfinite(g)
    if not np.any(finite):
        return grid[0], -np.inf
    excess = L[:, finite] - g[finite]
    worst = np.where(np.isfinite(L[:, finite]), excess, np.inf).max(axis=1)
    i = int(np.argmin(worst))
    return grid[i], float(worst[i])


def _refine_gap(game: Game, g: np.ndarray, dec: np.ndarray, step: float) -> tuple[np.ndarray, float]:
    finite = np.isfinite(g)

    def gap_at(d: np.ndarray) -> float:
        lv = game.loss_vector(d)
        ex = lv[finite] - g[finite]
        return float(np.max(np.where(np.isfinite(lv[finite]), ex, np.inf))) if finite.any() else -np.inf

    best = dec.copy()
    best_val = gap_at(best)
    for _ in range(3):
        if game.decision_kind == "box":
            for j in range(len(best)):
                lo = max(0.0, best[j] - step)
                hi = min(1.0, best[j] + step)

                def f(x, j=j):
                    cand = best.copy()
                    cand[j] = x
                    return gap_at(cand)

                x, val = golden_min(f, lo, hi)
                if val < best_val:
                    best_val = val
                    best[j] = x
        else:
            d = len(best)
            for i, j in itertools.combinations(range(d), 2):
                lo = -min(best[i], step)
                hi = min(best[j], step)
                if hi <= lo:
                    continue

                def f(t, i=i, j=j):
                    cand = best.copy()
                    cand[i] += t
                    cand[j] -= t
                    return gap_at(cand)

                t, val = golden_min(f, lo, hi)
                if val < best_val:
                    best_val = val
                    best[i] += t
                    best[j] -= t
        step /= 16.0
    return best, best_val


def domination_gap(game: Game, g, per_dim: int = 1024) -> float:
    """``min over decisions of max_omega (loss - g)``; <= 0 means ``g`` is a
    superprediction.  Uses the game's closed form when provided, otherwise a
    dense grid plus golden-section refinement."""
    arr = as_losses(g)
    if arr.shape[0] != game.m:
        raise DimensionMismatch(f"loss vector of size {arr.shape[0]} for {game.m} outcomes")
    if game.membership_gap is not None:
        return float(game.membership_gap(arr))
    if not np.any(np.isfinite(arr)):
        return -np.inf
    dec, _ = _grid_gap(game, arr, per_dim)
    step = 1.0 / (per_dim if game.decision_kind == "box" else 32)
    _, val = _refine_gap(game, arr, dec, max(step, 1e-3))
    return val


def is_superprediction(game: Game, g, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff some decision's loss vector minorizes ``g`` up to a
    one-sided slack of ``tol``."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return domination_gap(game, g) <= tol


def hull_membership_gap(game: Game, g, eta: float) -> float:
    """Membership gap for the eta-exponential hull of the superprediction
    set.  Equals the base gap whenever mixability is asserted at ``eta``;
    otherwise requires a game-supplied closed form."""
    arr = as_losses(g)
    if game.mixable_at(eta):
        return domination_gap(game, arr)
    if game.hull_membership_gap is not None:
        return float(game.hull_membership_gap(arr, eta))
    raise ValueError(
        f"game {game.name!r} has no hull membership rule at eta={eta} "
        "(not asserted mixable and no closed form supplied)"
    )


# ---------------------------------------------------------------------------
# Sessions: the prior-weighted product of pair-exponent factors


def pair_exponent(lam, g, c, eta):
    """Exponent ``eta (lam/c - g)`` under the extended-real conventions:
    both infinite -> 0 (the factors cancel), ``g`` infinite alone -> -inf
    (the factor vanishes), ``lam`` infinite alone -> +inf.  ``c`` and
    ``eta`` are scalars or per-expert arrays."""
    with np.errstate(invalid="ignore"):
        out = eta * (np.divide(lam, c) - g)
    # NaN arises only from inf - inf, where the two factors cancel
    return np.where(np.isnan(out), 0.0, out)


def expected_factor(pi: np.ndarray, lam, g, c, eta) -> float:
    """``E_pi exp(pair_exponent(lam, g, c, eta))``, skipping outcomes of
    zero probability; ``inf`` when a live factor is infinite."""
    expo = pair_exponent(lam, g, c, eta)
    live = pi > 0
    if np.any(np.isposinf(expo[live])):
        return np.inf
    return float(np.dot(pi[live], np.exp(expo[live])))


@dataclass(frozen=True, eq=False)
class Session:
    """One session of any protocol: the paper's prior-weighted product of
    factors ``exp(eta (l/c - g))``, kept in log space.

    ``log_weights[t] = ln P0(t) + sum_n eta_t (l_n / c_t - g_n^t)`` and
    ``log_value`` is their log-sum-exp.  With scalar ``(c, eta)`` the
    learner term ``eta l_n / c`` adds the same amount to every expert, so
    it leaves the posterior as it is: mixing and forecasting sessions keep
    only the expert part ``ln P0 - eta sum g`` in their weights, and a
    forecasting session's posterior is AA's, bit for bit.  A forecasting
    session (scalar ``proper``) carries its log supermartingale apart, as
    ``log_supermartingale = ln sum P0 + sum_n ln q(pi_n, w_n)``, each term
    the log of the factor the solver bounded; a mixing session (no
    ``proper``) adds its learner's share when it reads the semi-invariant
    (:meth:`rounds`).  This class alone does the product's arithmetic:
    reweighing (:meth:`reweigh`), normalising (:func:`log_normalise`) and
    reading its log after each round (:meth:`rounds`).  A round whose
    learner term is infinite keeps the extended-real rule of
    :func:`pair_exponent` (an expert infinite there too keeps its weight),
    where AA's posterior would lose every such expert.

    ``c`` and ``eta`` are scalars, or per-expert arrays for evaluator
    sessions, whose ``proper`` is then one proper loss per expert, whose
    learner terms ``lambda_t(pi_n, w_n)`` stay in the weights (they differ
    by expert, so ``log_value`` is the log supermartingale), and whose
    ``cumulative_loss`` holds Learner's loss under each expert's evaluator.
    ``game`` is the scored game (a simplex game for simplex sessions, None
    for evaluator sessions).  A session whose preconditions were not
    checked has ``verified`` False and refuses to step.
    """

    game: Any
    c: Any
    eta: Any
    prior: np.ndarray
    log_weights: np.ndarray
    log_value: float | None = None
    step_count: int = 0
    cumulative_loss: Any = 0.0
    per_expert_loss: np.ndarray | None = None
    slack_log_total: float = 0.0
    proper: Any = None
    verified: bool = True
    log_supermartingale: float | None = None

    def __post_init__(self):
        if self.log_value is None:
            object.__setattr__(self, "log_value", log_sum_exp(self.log_weights))
        if self.per_expert_loss is None:
            object.__setattr__(self, "per_expert_loss", np.zeros(len(self.prior)))
        if self.log_supermartingale is None and self.proper is not None \
                and not isinstance(self.proper, tuple):
            object.__setattr__(self, "log_supermartingale", self.log_value)

    @property
    def n_experts(self) -> int:
        return len(self.prior)

    def log_posterior(self) -> np.ndarray:
        """Normalized log weights ``ln wbar_t`` (:func:`log_normalise`);
        raises :class:`AllExpertsDead` when every expert carries zero
        weight."""
        return live_posterior(*log_normalise(self.log_weights))

    def _log_factors(self, learner_terms, expert_losses, log_weights=None) -> np.ndarray:
        """Each round's log factor ``eta_t (learner_term / c_t - expert_loss
        [t])``, zero for an expert of weight zero in ``log_weights`` (the
        session's by default), even where its factor is infinite."""
        if math.isfinite(learner_terms) if isinstance(learner_terms, float) \
                else np.isfinite(learner_terms).all():  # no factor is NaN or +inf
            return self.eta * (learner_terms / self.c - expert_losses)
        expo = pair_exponent(learner_terms, expert_losses, self.c, self.eta)
        lw = self.log_weights if log_weights is None else log_weights
        return np.where(np.isneginf(lw), 0.0, expo)

    def reweigh(self, expert_losses, learner_terms=0.0, log_weights=None):
        """The reweigh of a block of B rounds from ``log_weights`` (the
        session's by default): the log weights after each round, shape (B,
        k), and their log-sum-exps (B,) and log posteriors (B, k) from
        :func:`log_normalise`.  Round ``n`` adds expert ``t``'s log factor
        ``eta_t (learner_terms[n] / c_t - expert_losses[n, t])``, zero for
        an expert of weight zero.  With scalar (c, eta) the learner terms,
        shape (B,), stay out of the weights unless infinite (finite, they
        add the same amount to every expert), and with none the rows are
        AA's posterior path; an evaluator session's, shape (B, k), differ
        by expert and stay in.  The rows are one cumulative sum of the
        factors, so each holds the bits of adding them round by round."""
        start = self.log_weights if log_weights is None else log_weights
        if not isinstance(self.c, np.ndarray):  # a finite term adds alike to every weight
            learner_terms = np.where(np.isinf(learner_terms), learner_terms, 0.0)[..., None] \
                if np.ndim(learner_terms) else learner_terms if math.isinf(learner_terms) else 0.0
        factors = self._log_factors(learner_terms, expert_losses, start)
        if len(factors) == 1:  # one round: its one sum, with no cumsum's overhead
            lw = start + factors
            value, posterior = log_normalise(lw[0])
            return lw, value[None], posterior[None]
        lw = np.concatenate([start[None], factors]).cumsum(axis=0)[1:]
        # a weight that reaches zero inside the block keeps it
        lw[np.logical_or.accumulate(np.isneginf(lw), axis=0)] = -np.inf
        return (lw, *log_normalise(lw))

    def before(self, expert_losses, log_weights=None):
        """The log weights (B, k) and log values (B,) before each of B rounds
        whose first B - 1 rounds the experts lost ``expert_losses`` (B - 1,
        k), from ``log_weights`` (the session's by default; the learner
        terms stay out), and the log posteriors of the rounds before the
        first whose weights are all zero, (live, k)."""
        start = self.log_weights if log_weights is None else log_weights
        lw, lv, lwn = (np.concatenate((first[None], rest)) for first, rest in
                       zip((start, *log_normalise(start)), self.reweigh(expert_losses, 0.0, start)))
        # a row with no weight leaves none to the rows after it
        return lw, lv, lwn[:len(lv) - int(np.isneginf(lv).sum())]

    def rounds(self, log_weights, log_value, learner_losses, expert_losses, slack,
               log_factors=None) -> "Rounds":
        """The session's fields after each round of a block that reweighed
        to ``log_weights`` (B, k) and ``log_value`` (B,): Learner's losses
        ((B, k) for an evaluator session), the experts' losses (B, k) and
        the slack totals as running sums, added in order as round by round,
        and the log of the paper's product: for a forecasting session the
        running sum of the rounds' ``log_factors``, for an evaluator session
        ``log_value``, and for a mixing session the semi-invariant ``eta
        L / c + log_value`` (:func:`expertmix.aggregating.log_semi_invariant`)."""
        def running(start, steps):
            if len(steps) == 1:  # a block of one: its one sum, with no cumsum's overhead
                return start + steps
            return np.concatenate(([start], steps)).cumsum(axis=0)[1:]

        cumulative = running(self.cumulative_loss, learner_losses)
        with np.errstate(invalid="ignore"):  # inf + -inf, as in float arithmetic
            product = running(self.log_supermartingale, log_factors) \
                if self.log_supermartingale is not None else log_value \
                if isinstance(self.c, np.ndarray) else self.eta * cumulative / self.c + log_value
        return Rounds(log_weights, log_value, cumulative,
                      running(self.per_expert_loss, expert_losses),
                      running(self.slack_log_total, np.log1p(slack)), product)

    def after(self, rounds: "Rounds") -> "Session":
        """The session after the last of ``rounds``."""
        cum = rounds.cumulative_loss[-1]
        return replace(
            self,
            log_weights=rounds.log_weights[-1],
            log_value=float(rounds.log_value[-1]),
            step_count=self.step_count + len(rounds.log_value),
            cumulative_loss=float(cum) if cum.ndim == 0 else cum,
            per_expert_loss=rounds.per_expert_loss[-1],
            slack_log_total=float(rounds.slack_log_total[-1]),
            log_supermartingale=None if self.log_supermartingale is None
            else float(rounds.log_supermartingale[-1]),
        )

    def bound_margins(self, rounds: "Rounds | None" = None) -> np.ndarray:
        """``L - c L^t - (c/eta)(ln(1/P0(t)) + slack)`` for every expert
        ``t``, now or, shape (B, k), after each round of ``rounds``;
        nonpositive entries mean the guarantee holds."""
        if rounds is None:
            per, cum, slack = self.per_expert_loss, self.cumulative_loss, self.slack_log_total
        else:
            per, slack = rounds.per_expert_loss, rounds.slack_log_total[:, None]
            cum = rounds.cumulative_loss.reshape(len(slack), -1)  # (B, 1), or (B, k)
        with np.errstate(divide="ignore", invalid="ignore"):
            penalty = -np.log(self.prior)
            rhs = self.c * per + (self.c / self.eta) * (penalty + slack)
            return np.where(np.isinf(rhs), -np.inf, cum - rhs)


class Rounds(NamedTuple):
    """A session's fields after each round of a block, one row per round;
    the last row is :meth:`Session.after` the block."""

    log_weights: np.ndarray  # (B, k)
    log_value: np.ndarray  # (B,)
    cumulative_loss: np.ndarray  # (B,), or (B, k) for evaluator sessions
    per_expert_loss: np.ndarray  # (B, k)
    slack_log_total: np.ndarray  # (B,)
    log_supermartingale: np.ndarray  # (B,), the log of the paper's product


def start_session(game, prior=None, n_experts: int | None = None, *,
                  c=1.0, eta=1.0, **fields) -> Session:
    """Open a session with prior ``prior`` (uniform over ``n_experts`` when
    omitted).  Raises ``ValueError`` unless the prior is a probability
    vector and ``1 <= c < inf`` and ``0 < eta < inf``, for scalar constants
    or each entry of per-expert ones."""
    if prior is None:
        if n_experts is None:
            raise ValueError("need prior or n_experts")
        prior = np.full(n_experts, 1.0 / n_experts)
    prior = np.asarray(prior, dtype=float)
    if not (np.all(prior >= 0) and abs(prior.sum() - 1.0) <= 1e-9):  # NaN fails both
        raise ValueError("prior must be a probability vector")
    if not (all(1.0 <= x < math.inf for x in np.atleast_1d(c))
            and all(0.0 < x < math.inf for x in np.atleast_1d(eta))):
        raise ValueError("need 1 <= c < inf and 0 < eta < inf")
    with np.errstate(divide="ignore"):
        log_weights = np.log(prior)
    return Session(game=game, c=c, eta=eta, prior=prior,
                   log_weights=log_weights, **fields)
