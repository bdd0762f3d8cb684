"""Two protocol extensions: expert evaluators with heterogeneous loss
functions, and outcomes drawn from the probability simplex.

Evaluator sessions keep one supermartingale whose per-expert factors carry
that expert's own (c, eta, loss); the simplex sessions run the vertex
solver and transfer the guarantee through relative exp-convexity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (Game, Proposal, Session, as_probs, expected_factor, log_sum_exp,
                   start_session)
from .defensive import (
    choose_forecast,
    default_proper_loss,
    fixed_advice_q,
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


#: Evaluator and simplex-outcome sessions are the shared session type.
MLState = SimplexState = Session


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


def ml_dfa_proposal(state: Session, advice, *, epsilon: float = 1e-6,
                    tol: float = 1e-9) -> Proposal:
    """Learner announces a distribution (the root selection for binary
    outcomes); every party is then scored by each evaluator's own loss."""
    adv = np.stack([as_probs(a) for a in advice])
    m = state.proper[0].game.m
    if adv.shape != (state.n_experts, m):
        raise ValueError(f"advice shape {adv.shape}, expected "
                         f"({state.n_experts}, {m})")
    G = np.stack([proper(a) for proper, a in zip(state.proper, adv)])
    pi, slack = choose_forecast(fixed_advice_q(state, G), m, epsilon=epsilon,
                                tol=tol, select="root")
    lam = np.stack([proper(pi) for proper in state.proper])
    return Proposal(pi, None, slack, lambda w: (lam[:, w], lam[:, w], G[:, w], None), pi)


def ml_dfa_step(state: Session, advice, outcome: int, *,
                epsilon: float = 1e-6, tol: float = 1e-9,
                ) -> tuple[np.ndarray, Session, float]:
    """One evaluator round (see :func:`ml_dfa_proposal`)."""
    p = ml_dfa_proposal(state, advice, epsilon=epsilon, tol=tol)
    return p.decision, state.advance(*p.score(outcome), p.slack), p.slack


#: Per-evaluator guarantee margins
#: ``L^(t) - c_t L^t - (c_t/eta_t)(ln(1/P0) + slack)``.
ml_bound_margins = Session.bound_margins


def duplicate_evaluators(specs: Sequence[tuple[ProperLoss, float, float]],
                         n_base: int) -> list[EvaluatedExpert]:
    """The several-losses reduction: each of ``n_base`` base predictions is
    entered once per (loss, c, eta) spec, with equal priors over all
    copies.  Advice rows must then be tiled spec-major (see
    :func:`tile_advice`)."""
    total = len(specs) * n_base
    out = []
    for s_idx, (proper, c, eta) in enumerate(specs):
        for k in range(n_base):
            out.append(EvaluatedExpert(
                proper=proper, c=c, eta=eta, prior=1.0 / total,
                name=f"{proper.label or proper.game.name}[{s_idx}]#{k}",
            ))
    return out


def tile_advice(base_advice: np.ndarray, n_specs: int) -> np.ndarray:
    """Repeat the base advice block once per evaluator spec (spec-major)."""
    return np.tile(np.asarray(base_advice, dtype=float), (n_specs, 1))


# ---------------------------------------------------------------------------
# Simplex-valued outcomes


@dataclass(frozen=True, eq=False)
class SimplexGame:
    """A game whose outcomes are distributions over the base outcome set.

    ``loss_on_simplex(decision, p)`` restricted to the vertices must equal
    the base game's loss; the canonical extension map for the built-in
    games is the same closed form evaluated at the simplex point, so the
    inverse-of-restriction requirement holds by construction.
    """

    base: Game
    loss_on_simplex: Callable[[np.ndarray, np.ndarray], float]
    name: str

    @property
    def m(self) -> int:
        return self.base.m


def brier_simplex(m: int) -> SimplexGame:
    base = builtin_game("brier", m)

    def loss(dec, p):
        dec = np.asarray(dec, dtype=float)
        p = np.asarray(p, dtype=float)
        return float(np.sum((p - dec) ** 2))

    return SimplexGame(base=base, loss_on_simplex=loss, name="brier-simplex")


def kl_simplex(m: int) -> SimplexGame:
    base = builtin_game("kl", m)

    def loss(dec, p):
        dec = np.asarray(dec, dtype=float)
        p = np.asarray(p, dtype=float)
        live = p > 0
        if np.any(dec[live] <= 0):
            return float("inf")
        plogp = np.where(p[live] > 0, p[live] * np.log(p[live]), 0.0)
        return float(np.sum(plogp - p[live] * np.log(dec[live])))

    return SimplexGame(base=base, loss_on_simplex=loss, name="kl-simplex")


def absolute_simplex() -> SimplexGame:
    """Absolute loss extended to p in [0, 1]; the standard counterexample
    to relative exp-convexity."""
    base = builtin_game("absolute", 2)

    def loss(dec, p):
        dec = np.asarray(dec, dtype=float)
        p = np.asarray(p, dtype=float)
        return float(abs(dec[0] - p[1]))

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
    transfer property."""
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    base = sg.base
    m = base.m
    worst = -np.inf
    witness = None
    pairs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    if probes:
        for d1, d2, p in probes:
            pairs.append((np.asarray(d1, dtype=float), np.asarray(d2, dtype=float),
                          np.asarray(p, dtype=float)))
    for _ in range(samples):
        if base.decision_kind == "box":
            d1 = rng.random(base.decision_dim)
            d2 = rng.random(base.decision_dim)
        else:
            d1 = rng.dirichlet(np.ones(base.decision_dim))
            d2 = rng.dirichlet(np.ones(base.decision_dim))
        p = rng.dirichlet(np.ones(m))
        pairs.append((d1, d2, p))
    for d1, d2, p in pairs:
        g1p = sg.loss_on_simplex(d1, p)
        g2p = sg.loss_on_simplex(d2, p)
        if not (np.isfinite(g1p) and np.isfinite(g2p)):
            continue
        lhs = float(np.exp(eta * (g1p / c - g2p)))
        rhs = expected_factor(p, base.loss_vector(d1), base.loss_vector(d2), c, eta)
        if np.isinf(rhs):
            continue  # infinite right-hand side dominates trivially
        excess = lhs - rhs
        if excess > worst:
            worst = excess
            witness = (d1, d2, p, lhs, rhs)
    return RelExpConvexityReport(holds=bool(worst <= tol),
                                 worst_violation=float(worst),
                                 witness=witness)


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


def simplex_dfa_proposal(state: Session, advice, *, epsilon: float = 1e-6,
                         tol: float = 1e-9, select: str = "midpoint") -> Proposal:
    """Run the vertex solver on the restricted advice and substitute a
    decision; the outcome scored later is a point of the simplex, at which
    every party's decision is extended."""
    if not state.verified:
        raise PreconditionUnverified(
            "simplex session was started with verify=False; "
            "re-create it with verification to run steps"
        )
    sg = state.game
    decisions = [np.asarray(a, dtype=float) for a in advice]
    vertex_advice = np.stack([sg.base.loss_vector(d) for d in decisions])
    pi, slack = choose_forecast(fixed_advice_q(state, vertex_advice), sg.m,
                                epsilon=epsilon, tol=tol, select=select)
    decision = np.asarray(sg.base.substitution(state.proper(pi)), dtype=float)

    def score(p_outcome):
        # the factor at a point of the simplex, which relative
        # exp-convexity bounds by the p-expectation of the vertex q
        p = as_probs(p_outcome)
        learner = sg.loss_on_simplex(decision, p)
        g = np.array([sg.loss_on_simplex(d, p) for d in decisions])
        log_factor = log_sum_exp(state.log_posterior() + state._log_factors(learner, g))
        return learner, float(learner), g, log_factor

    return Proposal(decision, None, slack, score, pi)


def simplex_dfa_step(state: Session, advice, p_outcome, *,
                     epsilon: float = 1e-6, tol: float = 1e-9,
                     select: str = "midpoint",
                     ) -> tuple[np.ndarray, Session, float]:
    """One simplex-outcome round (see :func:`simplex_dfa_proposal`), scored
    at the realized point ``p_outcome``."""
    p = simplex_dfa_proposal(state, advice, epsilon=epsilon, tol=tol,
                             select=select)
    return p.decision, state.advance(*p.score(p_outcome), p.slack), p.slack


simplex_bound_margins = Session.bound_margins
