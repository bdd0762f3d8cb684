"""Two protocol extensions: expert evaluators with heterogeneous loss
functions, and outcomes drawn from the probability simplex.

Evaluator sessions keep one supermartingale whose per-expert factors carry
that expert's own (c, eta, loss); the simplex sessions run the vertex
solver and transfer the guarantee through relative exp-convexity.  Both
play a block of rounds whose advice and outcomes are fixed in advance.  An
evaluator block scores its advice with one proper-loss call per evaluator
group; its learner terms differ by expert, so its posterior stays round by
round, each root reading its first batch from the groups' tables and
taking about one q call more (:func:`ml_dfa_rounds`).  A simplex session's weights
are AA's posterior on the losses at the realized points, so its block is
played from one reweigh, with one q call at the barycentre for every round
and one at AA's point for the rounds it misses (:func:`simplex_dfa_rounds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (PROB_TOL, Game, Session, as_probs, live_posterior, log_normalise,
                   log_sum_exp, pair_exponent, start_session)
from .defensive import (
    choose_forecast,
    default_proper_loss,
    evaluator_groups,
    fixed_advice_q,
    forecast_rounds,
    require_supermartingale,
)
from .errors import ContractViolation, PreconditionUnverified
from .losses import ProperLoss, builtin_game


# ---------------------------------------------------------------------------
# Protocol with expert evaluators (several loss functions)


@dataclass(frozen=True, eq=False)
class EvaluatedExpert:
    """An expert judged, and judging Learner, by its own proper loss."""

    proper: ProperLoss
    c: float
    eta: float
    prior: float
    name: str = ""


def ml_dfa_start(experts: Sequence[EvaluatedExpert], m: int, *,
                 verify: bool = True, samples: int = 2000, seed: int = 0,
                 check_tol: float = 1e-7) -> Session:
    """Validate the evaluator triples and open a session with per-expert
    ``(c, eta)`` and one proper loss per expert.

    Each distinct (loss, c, eta) triple must pass the supermartingale
    property check; failures raise :class:`ContractViolation`.
    """
    if any(e.proper.game.m != m for e in experts):
        raise ValueError(f"every evaluator must score {m} outcomes")
    session = start_session(
        None, [e.prior for e in experts], c=np.array([e.c for e in experts]),
        eta=np.array([e.eta for e in experts]),
        proper=tuple(e.proper for e in experts),
        cumulative_loss=np.zeros(len(experts)))
    if verify:
        seen: set[tuple[int, float, float]] = set()
        for e in experts:
            key = (id(e.proper), e.c, e.eta)
            if key in seen:
                continue
            seen.add(key)
            require_supermartingale(e.proper, e.c, e.eta, e.proper.game, samples,
                                    seed, check_tol, f"evaluator {e.name!r}")
    return session


def ml_dfa_rounds(state: Session, advice: np.ndarray, outcomes: np.ndarray, pick, *,
                  epsilon: float = 1e-6, tol: float = 1e-9):
    """Play a block of B evaluator rounds whose advice, distributions of
    shape (B, k, m), does not depend on Learner's moves, from the outcomes
    (B - 1,) of the rounds before the last and ``pick(None)``, the last
    round's (a forecast has no single loss vector).  The advice is checked
    and scored (one proper-loss call per evaluator group), and the records'
    columns and running sums are built, once per block; a round whose
    advice might fail the check, and the rounds after it, are scored round
    by round.  Each expert's learner term ``lambda_t / c_t`` differs, so
    the posterior is not AA's: each round's chain stays round by round (the
    q, its root, whose first batch the groups' tables hold, every expert's
    loss at the forecast from one proper-loss call per evaluator group,
    then the round's reweigh), and every party is scored by
    each evaluator's own loss.  Returns the
    forecasts (B, m), Learner's and the experts' losses (B, k), the slack
    and the session's :class:`~expertmix.core.Rounds`, each row what
    :func:`ml_dfa_step` gives that round; an error is raised in the first
    round that meets it."""
    B, k, m = advice.shape
    if (k, m) != (state.n_experts, state.proper[0].game.m):
        raise ValueError(f"advice shape {advice.shape}, expected "
                         f"(B, {state.n_experts}, {state.proper[0].game.m})")
    # rounds whose rows might fail as_probs' check are checked row by row
    doubtful = ~((advice >= 0.0).all(axis=(1, 2))
                 & (np.abs(advice.sum(axis=-1) - 1.0) <= 0.5 * PROB_TOL).all(axis=1))
    groups = evaluator_groups(state)
    # the advice losses of the rounds before the first doubtful one, one call
    # per group: a batch gives each row the bits of its one-row call
    scored = int(np.argmax(doubtful)) if doubtful.any() else B
    G = np.empty(advice.shape)
    for proper, _, _, idx in groups:
        G[:scored, idx] = proper(advice[:scored, idx].reshape(-1, m)).reshape(scored, len(idx), m)
    pis, slack = np.empty((B, m)), np.zeros(B)
    learner, expert_losses, lw, lv = np.empty((B, k)), np.empty((B, k)), np.empty((B, k)), \
        np.empty(B)
    lam = np.empty((k, m))
    ws, weights = outcomes.tolist(), state.log_weights
    value, posterior = log_normalise(weights)
    for i in range(B):
        if doubtful[i]:
            for a in advice[i]:
                as_probs(a)
        if i >= scored:
            for proper, _, _, idx in groups:
                G[i, idx] = proper(advice[i, idx])
        pis[i], slack[i] = choose_forecast(
            fixed_advice_q(state, G[i], live_posterior(value, posterior)), m, epsilon=epsilon,
            tol=tol, select="root", table=True)
        for proper, _, _, idx in groups:
            lam[idx] = proper(pis[i])
        w = ws[i] if i < len(ws) else pick(None)
        learner[i], expert_losses[i] = lam[:, w], G[i, :, w]
        # the round's reweigh, whose learner terms differ by expert; the
        # other running sums come once a block
        (weights,), (value,), (posterior,) = state.reweigh(expert_losses[i:i + 1],
                                                           learner[i:i + 1], weights)
        lw[i], lv[i] = weights, value
    return pis, learner, expert_losses, slack, state.rounds(lw, lv, learner, expert_losses, slack)


def ml_dfa_step(state: Session, advice, outcome: int, *,
                epsilon: float = 1e-6, tol: float = 1e-9,
                ) -> tuple[np.ndarray, Session, float]:
    """One evaluator round (a block of one of :func:`ml_dfa_rounds`)."""
    adv = np.stack([as_probs(a) for a in advice])
    pis, *_, slack, rounds = ml_dfa_rounds(state, adv[None], np.empty(0, int), lambda _: outcome,
                                           epsilon=epsilon, tol=tol)
    return pis[0], state.after(rounds), float(slack[0])


# ---------------------------------------------------------------------------
# Simplex-valued outcomes


@dataclass(frozen=True, eq=False)
class SimplexGame:
    """A game whose outcomes are distributions over the base outcome set.

    ``loss_on_simplex(decision, p)`` restricted to the vertices must equal
    the base game's loss; the canonical extension map for the built-in
    games is the same closed form evaluated at the simplex point, so the
    inverse-of-restriction requirement holds by construction.  It also
    takes decisions (..., d) and points (..., m) that broadcast against
    each other, and returns their losses (...), each the bits of its
    one-pair call.
    """

    base: Game
    loss_on_simplex: Callable[[np.ndarray, np.ndarray], float]
    name: str

    @property
    def m(self) -> int:
        return self.base.m


def _scalar_or_rows(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def brier_simplex(m: int) -> SimplexGame:
    base = builtin_game("brier", m)

    def loss(dec, p):
        dec = np.asarray(dec, dtype=float)
        p = np.asarray(p, dtype=float)
        return _scalar_or_rows(np.sum((p - dec) ** 2, axis=-1))

    return SimplexGame(base=base, loss_on_simplex=loss, name="brier-simplex")


def kl_simplex(m: int) -> SimplexGame:
    base = builtin_game("kl", m)

    def loss(dec, p):
        # sum over the outcomes p gives mass of p ln p - p ln dec: infinite
        # where dec gives such an outcome none
        dec = np.asarray(dec, dtype=float)
        p = np.asarray(p, dtype=float)
        live = p > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(live, p * np.log(p) - p * np.log(dec), 0.0)
        starved = np.any(live & (dec <= 0), axis=-1)
        return _scalar_or_rows(np.where(starved, np.inf, terms.sum(axis=-1)))

    return SimplexGame(base=base, loss_on_simplex=loss, name="kl-simplex")


def absolute_simplex() -> SimplexGame:
    """Absolute loss extended to p in [0, 1]; the standard counterexample
    to relative exp-convexity."""
    base = builtin_game("absolute", 2)

    def loss(dec, p):
        dec = np.asarray(dec, dtype=float)
        p = np.asarray(p, dtype=float)
        return _scalar_or_rows(np.abs(dec[..., 0] - p[..., 1]))

    return SimplexGame(base=base, loss_on_simplex=loss, name="absolute-simplex")


#: game name -> its simplex-outcome extension
SIMPLEX_GAMES = {"brier": brier_simplex, "kl": kl_simplex}


@dataclass(frozen=True)
class RelExpConvexityReport:
    holds: bool
    worst_violation: float
    witness: tuple | None  # (decision_1, decision_2, p, lhs, rhs)


def check_relative_exp_convexity(sg: SimplexGame, c: float, eta: float,
                                 samples: int = 1000, *, seed: int = 0,
                                 tol: float = 1e-9,
                                 probes: Sequence[tuple] | None = None,
                                 ) -> RelExpConvexityReport:
    """Sample decision pairs and simplex outcomes and compare
    ``exp(eta (g1(p)/c - g2(p)))`` against the p-expectation of the vertex
    factors.  A positive excess with its witnessing triple falsifies the
    transfer property.  The pairs are scored in one batch, each right-hand
    side what :func:`~expertmix.core.expected_factor` gives its triple."""
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    base = sg.base
    m = base.m
    pairs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    if probes:
        for d1, d2, p in probes:
            pairs.append((np.asarray(d1, dtype=float), np.asarray(d2, dtype=float),
                          np.asarray(p, dtype=float)))
    if base.decision_kind == "box":
        for _ in range(samples):
            d1 = rng.random(base.decision_dim)
            d2 = rng.random(base.decision_dim)
            pairs.append((d1, d2, rng.dirichlet(np.ones(m))))
    else:  # d1, d2 and p are uniform points of the simplex, drawn in that order
        pairs.extend(rng.dirichlet(np.ones(m), size=(samples, 3)))
    D1, D2, P = (np.stack(col) for col in zip(*pairs))
    g1p, g2p = sg.loss_on_simplex(D1, P), sg.loss_on_simplex(D2, P)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.exp(eta * (g1p / c - g2p))
        expo = pair_exponent(base.loss_rows(D1), base.loss_rows(D2), c, eta)
        factors = np.where(P > 0, np.exp(expo), 0.0)
        rhs = (P[:, None, :] @ factors[:, :, None])[:, 0, 0]
        # an infinite right-hand side dominates trivially
        scored = np.isfinite(g1p) & np.isfinite(g2p) & ~np.isinf(rhs)
        excess = np.where(scored, lhs - rhs, -np.inf)
    i = int(np.argmax(excess))
    witness = (D1[i], D2[i], P[i], float(lhs[i]), float(rhs[i])) if scored[i] else None
    return RelExpConvexityReport(holds=bool(excess[i] <= tol),
                                 worst_violation=float(excess[i]), witness=witness)


def simplex_dfa_start(sg: SimplexGame, *, eta: float, c: float = 1.0,
                      prior: Sequence[float] | np.ndarray | None = None,
                      n_experts: int | None = None,
                      proper: ProperLoss | None = None,
                      verify: bool = True, samples: int = 800, seed: int = 0,
                      check_tol: float = 1e-7) -> Session:
    """Open a simplex-outcome session, verifying relative exp-convexity and
    the vertex supermartingale property unless explicitly skipped (a step
    on an unverified state raises)."""
    session = start_session(
        sg, prior, n_experts, c=c, eta=eta, verified=verify,
        proper=default_proper_loss(sg.base, c, eta) if proper is None else proper)
    if verify:
        rec = check_relative_exp_convexity(sg, c, eta, samples, seed=seed)
        if not rec.holds:
            raise ContractViolation(
                f"{sg.name} lacks relative exp-convexity at c={c}, eta={eta}: "
                f"violation {rec.worst_violation:.3e} at {rec.witness!r}"
            )
        require_supermartingale(session.proper, c, eta, sg.base, samples, seed,
                                check_tol, "the vertex loss")
    return session


def _require_verified(state: Session) -> None:
    if not state.verified:
        raise PreconditionUnverified(
            "simplex session was started with verify=False; "
            "re-create it with verification to run steps"
        )


def simplex_dfa_rounds(state: Session, advice: np.ndarray, outcomes: np.ndarray, pick, *,
                       epsilon: float = 1e-6, tol: float = 1e-9):
    """Play a block of B simplex-outcome rounds whose advice, decisions of
    shape (B, k, d), does not depend on Learner's moves, from the outcomes,
    points (B - 1, m), of the rounds before the last and ``pick(None)``,
    the last round's point (:func:`expertmix.defensive.forecast_rounds`):
    one ``game.loss`` call for the vertex advice, one batched
    ``loss_on_simplex`` for the experts' losses, one q call at the
    barycentre for every round, one batched substitution of AA's mix and
    one q call at its forecast-coordinate point for the rounds whose
    barycentre misses its target, and the vertex solver one round at a
    time for the rounds where both miss, as ``dfa``'s rounds do.  The
    outcome scored is a point of the simplex, at which every party's
    decision is extended: each round's learner term is Learner's loss at
    the realized point, and its log factor ``ln sum_t wbar_t exp(eta (l/c
    - g_t))``,
    which relative exp-convexity bounds by the point's expectation of the
    vertex q; there is no substitution check.  Returns the decisions,
    Learner's losses, the experts' losses, the rounds' slack and the
    session's :class:`~expertmix.core.Rounds`, each row what
    :func:`simplex_dfa_step` gives that round; an error is raised for the
    first round that meets it."""
    _require_verified(state)
    sg = state.game
    known = sg.loss_on_simplex(advice[:len(outcomes)], outcomes[:, None])

    def play(pi):  # the substituted decisions at the forecasts
        return np.asarray(sg.base.substitution(state.proper(pi)), dtype=float)

    pi, slack, _, lw, lv, lwn, error = forecast_rounds(
        state, sg.base.loss_rows(advice), known,
        lambda block, pi: sg.loss_on_simplex(play(pi), outcomes[block]),
        epsilon=epsilon, tol=tol, select="midpoint")
    if error is not None:
        raise error
    decisions = play(pi)
    points = np.concatenate((outcomes, pick(None)[None]))
    expert_losses = np.concatenate((known, sg.loss_on_simplex(advice[-1], points[-1])[None]))
    learner = sg.loss_on_simplex(decisions, points)
    # each round's log factor, its factors under the posterior before it
    log_factors = log_sum_exp(lwn + state._log_factors(learner[:, None], expert_losses, lw),
                              axis=-1)
    after, after_v, _ = state.reweigh(expert_losses[-1:], learner[-1:], lw[-1])
    return decisions, learner, expert_losses, slack, state.rounds(
        np.concatenate((lw[1:], after)), np.concatenate((lv[1:], after_v)), learner,
        expert_losses, slack, log_factors)


def simplex_dfa_step(state: Session, advice, p_outcome, *,
                     epsilon: float = 1e-6, tol: float = 1e-9,
                     ) -> tuple[np.ndarray, Session, float]:
    """One simplex-outcome round (a block of one of
    :func:`simplex_dfa_rounds`), scored at the realized point
    ``p_outcome``."""
    point = as_probs(p_outcome)
    advice = np.stack([np.asarray(a, dtype=float) for a in advice])
    decisions, _, _, slack, rounds = simplex_dfa_rounds(
        state, advice[None], np.empty((0, state.game.m)), lambda _: point, epsilon=epsilon,
        tol=tol)
    return decisions[0], state.after(rounds), float(slack[0])
