"""Built-in games, generalized entropy, proper-loss construction, and the
properness / mixability checkers.

Built-in games carry closed forms (loss, membership gap, substitution,
entropy, canonical proper loss) so membership and properness tests are
exact; the generic numeric machinery is reserved for user-supplied games.
scipy runs in one place, ``_argmin_decision``'s SLSQP on the simplex: the
generalized entropy of a simplex game with no closed-form entropy, or at
an eta outside its asserted mixable range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    MEMBERSHIP_TOL,
    Game,
    as_probs,
    domination_gap,
    exp_mix,
    golden_min,
    simplex_grid,
)
from .errors import NonExtendable

BUILTIN_GAMES = ("log", "square", "brier", "hellinger", "kl", "absolute")


def _safe_neg_log(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    pos = x > 0
    return np.where(pos, -np.log(np.where(pos, x, 1.0)), np.inf)


def _log_gap(g):
    """``ln sum_w exp(-g_w)``, of one ``g`` or of each row of a batch (n, m)."""
    with np.errstate(divide="ignore"):  # ln 0 = -inf: every coordinate infinite
        out = np.log(np.exp(np.negative(g)).sum(axis=-1))
    return float(out) if np.ndim(out) == 0 else out


def _shannon(pi) -> float:
    pi = np.asarray(pi, dtype=float)
    live = pi > 0
    return float(-np.sum(pi[live] * np.log(pi[live])))


def _equalizer_gap(l0, l1):
    """Membership gap of a binary game whose loss curves cross at the
    decision ``p = (1 + g0 - g1) / 2`` (square and absolute loss), of one
    ``g`` in Python floats or of each row of a batch (n, 2) in numpy, with
    the same operations (``l0`` and ``l1`` use only ``+``, ``-`` and
    ``*``), so each row's gap is its one-row gap."""
    def gap(g):
        if np.ndim(g) == 2:
            g0, g1 = g[:, 0], g[:, 1]
            with np.errstate(invalid="ignore"):  # both infinite: a NaN p, replaced
                p = np.minimum(np.maximum(0.5 * (1.0 + g0 - g1), 0.0), 1.0)
                out = np.maximum(l0(p) - g0, l1(p) - g1)
            return np.where(np.isinf(g0) & np.isinf(g1), -np.inf, out)
        g0, g1 = float(g[0]), float(g[1])
        if np.isinf(g0) and np.isinf(g1):
            return -np.inf
        p = min(max(0.5 * (1.0 + g0 - g1), 0.0), 1.0)
        return float(max(l0(p) - g0, l1(p) - g1))

    return gap


def _binary_box(name: str, l0, l1, feasible_interval, **closed_forms) -> Game:
    """A binary game with decisions ``p`` in [0, 1] and losses
    ``(l0(p), l1(p))``.  Its substitution is the midpoint of the feasible
    interval ``{p : loss(p) <= g}``, the same rule as DFA's midpoint
    selection; ``feasible_interval`` takes one ``g`` or a batch (n, 2)."""
    def loss(dec):
        dec = np.asarray(dec, dtype=float)
        p = dec[:, 0] if dec.ndim == 2 else np.atleast_1d(dec)
        out = np.empty((len(p), 2))
        out[:, 0], out[:, 1] = l0(p), l1(p)
        return out if dec.ndim == 2 else out[0]

    def substitution(g):
        lo, hi = feasible_interval(np.asarray(g, dtype=float))
        # neither lo nor the midpoint is ever -0.0, so no tie of signed
        # zeros sets these apart from the min and max of Python floats
        p = np.minimum(np.maximum(0.5 * (np.maximum(lo, 0.0) + np.minimum(hi, 1.0)), 0.0), 1.0)
        return p[..., None]

    def forecast_of(dec):
        # the forecast (1 - p, p), at which a proper loss that reads p is loss(p)
        dec = np.asarray(dec, dtype=float)
        return np.concatenate([1.0 - dec, dec], axis=-1)

    return Game(name=name, m=2, decision_kind="box",
                decision_dim=1, loss=loss, substitution=substitution,
                feasible_interval=feasible_interval, forecast_of=forecast_of, **closed_forms)


# ---------------------------------------------------------------------------
# The six built-in games


def _log_binary() -> Game:
    # log1p and expm1 keep a relative precision near p = 0 that 1 - p and
    # 1 - exp(-g0) lose; log1p(-1) and log(0) are -inf
    def l0(p):
        with np.errstate(divide="ignore"):
            return -np.log1p(-p)

    def l1(p):
        with np.errstate(divide="ignore"):
            return -np.log(p)

    def feasible_interval(g):
        return np.exp(-g[..., 1]), -np.expm1(-g[..., 0])

    def proper(pi):
        # the loss at the decision p = pi[1], bit for bit, as square's
        p = np.asarray(pi, dtype=float)[..., 1]
        out = np.empty(p.shape + (2,))
        with np.errstate(divide="ignore"):
            np.log1p(-p, out=out[..., 0])
            np.log(p, out=out[..., 1])
        return np.negative(out, out=out)

    return _binary_box(
        "log", l0, l1, feasible_interval, eta_mixable_range=(0.0, 1.0), proper_loss=proper,
        membership_gap=_log_gap, entropy=_shannon)


def _log_simplex(m: int, name: str = "log") -> Game:
    def substitution(g):
        q = np.exp(-np.where(np.isinf(g), np.inf, np.asarray(g, dtype=float)))
        s = q.sum(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            return np.where(s == 0.0, 1.0 / m, q / s)

    return Game(
        name=name,
        m=m,
        decision_kind="simplex",
        decision_dim=m,
        loss=_safe_neg_log,
        substitution=substitution,
        eta_mixable_range=(0.0, 1.0),
        proper_loss=_safe_neg_log,
        membership_gap=_log_gap,
        entropy=_shannon,
    )


def _square_binary() -> Game:
    def feasible_interval(g):
        return 1.0 - np.sqrt(g[..., 1]), np.sqrt(g[..., 0])

    def proper(pi):
        pi = np.asarray(pi, dtype=float)
        p = pi[..., 1]
        return np.stack([p * p, (1.0 - p) * (1.0 - p)], axis=-1)

    def entropy(pi):
        p = float(np.asarray(pi, dtype=float)[1])
        return p * (1.0 - p)

    l0, l1 = (lambda p: p * p), (lambda p: (1.0 - p) * (1.0 - p))
    return _binary_box(
        "square", l0, l1, feasible_interval, eta_mixable_range=(0.0, 2.0),
        proper_loss=proper, membership_gap=_equalizer_gap(l0, l1), entropy=entropy)


def _absolute_binary() -> Game:
    def feasible_interval(g):
        return 1.0 - g[..., 1], g[..., 0]

    def hull_gap(g, eta):
        # exp(-eta * Sigma) has convex hull {u + v <= 1 + e^(-eta)} in the
        # unit square, so hull membership is a one-line test.
        beta = np.exp(-eta)
        s = np.sum(np.exp(-eta * np.where(np.isinf(g), np.inf, g)), axis=-1)
        with np.errstate(divide="ignore"):  # ln 0 = -inf: every coordinate infinite
            out = np.log(s / (1.0 + beta)) / eta
        return out if np.ndim(out) else float(out)

    def hull_proper(pi, eta):
        # argmin of the expected loss over the hull boundary; clipping keeps
        # the curve parameter inside [e^(-eta), 1].
        beta = np.exp(-eta)
        u = np.clip(np.asarray(pi, dtype=float) * (1.0 + beta), beta, 1.0)
        return -np.log(u) / eta

    def boundary_proper(pi, c, eta):
        # radial projection of the hull point onto {x + y = 1}: both
        # coordinates sit in [0, 1] and their sum is at least 1/c, so the
        # scaling 1/(g0 + g1) is the projection's R(g)
        g = hull_proper(pi, eta)
        if g.ndim == 2:
            return g / g.sum(axis=1, keepdims=True)
        return g / g.sum()

    def entropy(pi):
        p = float(np.asarray(pi, dtype=float)[1])
        return min(p, 1.0 - p)

    l0, l1 = (lambda p: p), (lambda p: 1.0 - p)
    return _binary_box(
        "absolute", l0, l1, feasible_interval,
        membership_gap=_equalizer_gap(l0, l1), hull_membership_gap=hull_gap,
        hull_proper_loss=hull_proper, boundary_proper_loss=boundary_proper,
        entropy=entropy)


def _brier_loss(dec):
    """``sum_o (delta_w(o) - pi(o))^2``, kept in this exact form so vertex
    evaluations of the simplex extension agree bit for bit."""
    pi = np.asarray(dec, dtype=float)
    eye = np.eye(pi.shape[-1])
    if pi.ndim == 2:
        return np.sum((pi[:, None, :] - eye[None, :, :]) ** 2, axis=-1)
    return np.sum((pi[None, :] - eye) ** 2, axis=-1)


def _brier_point(G):
    """The water-filling point of each row of ``G`` (n, m):
    ``pi_w = (t - g_w)^+ / 2`` with ``t`` such that ``sum pi = 1``, the
    Euclidean projection of ``-g / 2`` onto the simplex and the minimiser
    of ``max_w (loss(pi)_w - g_w)``.  One sort finds each row's active
    outcomes; an infinite ``g_w`` gets 0, and an all-infinite row the
    uniform distribution."""
    m = G.shape[1]
    # the level (2 + the sum of the k least g_w) / k falls while the next
    # g_w is below it and rises after, so its least value is t; the sums
    # and the least level run column by column, in elementwise ufuncs
    cols = np.sort(G, axis=1).T
    running, least = cols[0], 2.0 + cols[0]
    for j in range(1, m):
        running = running + cols[j]
        least = np.minimum(least, (2.0 + running) / (j + 1))
    active = G < least[:, None]
    k = active.sum(axis=1, keepdims=True)
    # t again, over the active outcomes, as the inversion of the standard
    # form g = 1 - 2 pi + ||pi||^2 writes it: a row with every outcome
    # active is that inversion bit for bit
    with np.errstate(invalid="ignore", divide="ignore"):  # k = 0: replaced
        t = 1.0 + (2.0 - k + np.where(active, G, 0.0).sum(axis=1, keepdims=True)) / k
        pi = np.maximum(np.where(active, 0.5 * (t - G), 0.0), 0.0)
        pi = pi / pi.sum(axis=1, keepdims=True)
    return np.where(k == 0, 1.0 / m, pi)


def _brier_gap(g):
    """Brier's membership gap ``max_w (loss(pi)_w - g_w)`` at the
    water-filling point, of one ``g`` or of each row of a batch (n, m); an
    infinite ``g_w`` gives -inf, so a row of them gives -inf."""
    g = np.asarray(g, dtype=float)
    out = np.max(_brier_loss(_brier_point(np.atleast_2d(g))) - g, axis=-1)
    return out if g.ndim == 2 else float(out[0])


def _brier(m: int) -> Game:
    def substitution(g):
        pi = _brier_point(np.atleast_2d(np.asarray(g, dtype=float)))
        return pi if np.ndim(g) == 2 else pi[0]

    def entropy(pi):
        pi = np.asarray(pi, dtype=float)
        return float(1.0 - np.sum(pi**2))

    return Game(
        name="brier",
        m=m,
        decision_kind="simplex",
        decision_dim=m,
        loss=_brier_loss,
        substitution=substitution,
        eta_mixable_range=(0.0, 1.0),
        proper_loss=_brier_loss,
        membership_gap=_brier_gap,
        entropy=entropy,
    )


def _hellinger(m: int) -> Game:
    # 0.5 * sum_o (sqrt(delta) - sqrt(pi))^2 collapses to 1 - sqrt(pi(omega))
    def loss(dec):
        return 1.0 - np.sqrt(np.asarray(dec, dtype=float))

    def membership_gap(g):
        g = np.asarray(g, dtype=float)
        top = np.max(1.0 - g, axis=-1)  # -inf when every g_w is infinite
        # the mass sum_w ((1 - g_w - t)^+)^2 is at least 1 at top - 1, where
        # its largest term is 1, and 0 at top; a row of each is bisected alike
        lo, hi = top - 1.0, top
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            with np.errstate(invalid="ignore"):  # inf - inf in a -inf row, which stays -inf
                over = np.sum(np.clip(1.0 - g - mid[..., None], 0.0, None) ** 2, axis=-1) > 1.0
            lo, hi = np.where(over, mid, lo), np.where(over, hi, mid)
        return hi if g.ndim == 2 else float(hi)

    def substitution(g):
        a = np.clip(1.0 - np.asarray(g, dtype=float), 0.0, None) ** 2
        total = a.sum(axis=-1, keepdims=True)
        over = 1.0 - total < 0
        with np.errstate(invalid="ignore"):
            return np.where(over, a / total, a) + np.where(over, 0.0, 1.0 - total) / m

    def proper(pi):
        pi = np.asarray(pi, dtype=float)
        norm = np.sqrt(np.sum(pi**2, axis=-1, keepdims=True))
        return 1.0 - pi / norm

    def entropy(pi):
        pi = np.asarray(pi, dtype=float)
        return float(1.0 - np.sqrt(np.sum(pi**2)))

    def forecast_of(dec):
        # pi proportional to sqrt(d) has pi / ||pi|| = sqrt(d): proper(pi) = loss(d)
        root = np.sqrt(np.asarray(dec, dtype=float))
        return root / root.sum(axis=-1, keepdims=True)

    return Game(
        name="hellinger",
        m=m,
        decision_kind="simplex",
        decision_dim=m,
        loss=loss,
        substitution=substitution,
        eta_mixable_range=None,
        proper_loss=proper,
        membership_gap=membership_gap,
        entropy=entropy,
        forecast_of=forecast_of,
    )


def _log_retraction(rows: np.ndarray) -> np.ndarray:
    """The retraction of each member row (n, m) of the log (and kl) game:
    coordinate 0 drops to ``-log1p(-sum_{w>0} e^{-g_w})``, which puts the
    row on the boundary ``sum_w e^{-g_w} = 1``, so no later coordinate can
    drop.  A row whose gap is above ``MEMBERSHIP_TOL`` raises ``ValueError``."""
    tail = np.exp(-rows[:, 1:]).sum(axis=1)
    if np.any(_log_gap(rows) > MEMBERSHIP_TOL):
        raise ValueError("input is not a superprediction (or hull member)")
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf: the tail fills the boundary
        return np.column_stack([np.minimum(rows[:, 0], -np.log1p(-np.minimum(tail, 1.0))),
                                rows[:, 1:]])


def _brier_retraction(rows: np.ndarray) -> np.ndarray:
    """The retraction of each member row (n, m) of the brier game:
    ``loss(pi*)`` for the ``pi*`` of least ``loss_0`` with ``loss_w(pi*) <=
    g_w`` for every ``w > 0`` (unique, as ``loss_0`` is strictly convex), so
    coordinate 0 drops to ``loss_0(pi*)`` and each later one to
    ``loss_w(pi*)``.  ``pi*`` is the water-filling point of ``(s, g_1, ...)``
    at the least member ``s``: ``pi_w = (t - g_w)^+ / 2`` for ``w > 0`` and
    ``pi_0`` the rest, where ``t`` is the root of ``||pi||^2 + 1 - t``, a
    quadratic in ``t`` once the outcomes active at it are known.  It falls
    as ``t`` rises while ``pi_0 >= 0``, so ``g_w`` is active (below ``t``)
    exactly where it is positive at ``t = g_w`` with ``pi_0 >= 0`` there.
    A row whose gap is above ``MEMBERSHIP_TOL`` raises ``ValueError``."""
    if np.any(_brier_gap(rows) > MEMBERSHIP_TOL):
        raise ValueError("input is not a superprediction (or hull member)")
    tail = rows[:, 1:]
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite g_w, never active
        share = np.maximum(tail[:, :, None] - tail[:, None, :], 0.0) / 2.0  # pi at t = g_w
        rest = 1.0 - share.sum(axis=2)
        active = (rest >= 0.0) & ((share ** 2).sum(axis=2) + rest ** 2 + 1.0 - tail > 0.0)
    k = active.sum(axis=1)
    s, q = (np.where(active, tail ** p, 0.0).sum(axis=1) for p in (1, 2))
    b, c = s / 2.0 + (1.0 + s / 2.0) * k + 1.0, q / 4.0 + (1.0 + s / 2.0) ** 2 + 1.0
    t = 2.0 * c / (b + np.sqrt(np.maximum(b * b - k * (k + 1) * c, 0.0)))
    pi = np.where(active, (t[:, None] - tail) / 2.0, 0.0)
    return _brier_loss(np.column_stack([np.maximum(1.0 - pi.sum(axis=1), 0.0), pi]))


def builtin_game(name: str, m: int) -> Game:
    """Construct one of the built-in games over ``m`` outcomes."""
    if name == "log":
        if m == 2:
            return _log_binary()
        if m > 2:
            return _log_simplex(m)
    elif name == "kl":
        if m >= 2:
            return _log_simplex(m, name="kl")
    elif name == "square":
        if m == 2:
            return _square_binary()
    elif name == "absolute":
        if m == 2:
            return _absolute_binary()
    elif name == "brier":
        if m >= 2:
            return _brier(m)
    elif name == "hellinger":
        if m >= 2:
            return _hellinger(m)
    else:
        raise ValueError(f"unknown game {name!r}; choose from {BUILTIN_GAMES}")
    raise ValueError(f"unsupported pair: game {name!r} with m={m}")


def realizability_constant(game: str, eta: float) -> float:
    """Smallest scaling constant printed for the absolute-loss game:
    ``eta / (2 ln(2 / (1 + e^-eta)))``."""
    if game != "absolute":
        raise ValueError(f"no realizability constant known for game {game!r}")
    if eta <= 0:
        raise ValueError("eta must be positive")
    return float(eta / (2.0 * np.log(2.0 / (1.0 + np.exp(-eta)))))


# ---------------------------------------------------------------------------
# Generalized entropy and proper losses


@dataclass(frozen=True, eq=False)
class ProperLoss:
    """A loss map ``pi -> loss vector`` proper with respect to the game's
    eta-hull.  ``domain_flag`` records whether boundary points are covered."""

    game: Game
    eta: float
    fn: Callable[[np.ndarray], np.ndarray]
    domain_flag: str = "whole-simplex"  # or "interior-only"
    label: str = ""

    def __call__(self, pi) -> np.ndarray:
        arr = np.asarray(pi, dtype=float)
        return np.asarray(self.fn(arr), dtype=float)


@dataclass(frozen=True, eq=False)
class EntropyResult:
    value: float
    exact: bool
    used_mixtures: bool


def _argmin_decision(game: Game, pi: np.ndarray) -> tuple[np.ndarray, float]:
    """A decision minimizing E_pi loss over the decision domain, with its
    expected loss (numeric: grid plus golden section on the unit interval,
    two-start SLSQP on the simplex, scored at feasible points only)."""
    pi = np.asarray(pi, dtype=float)
    live = pi > 0

    def expect(dec):
        lv = game.loss_vector(dec)
        if np.any(np.isinf(lv[live])):
            return np.inf
        return float(np.dot(pi[live], lv[live]))

    if game.decision_kind == "box" and game.decision_dim == 1:
        grid = np.linspace(0.0, 1.0, 513)
        vals = [expect(np.array([p])) for p in grid]
        i = int(np.argmin(vals))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        x, val = golden_min(lambda p: expect(np.array([p])), lo, hi, tol=1e-14)
        return (np.array([x]), val) if val <= vals[i] else (grid[i:i + 1], vals[i])

    m = game.decision_dim
    cons = [{"type": "eq", "fun": lambda x: np.sum(x) - 1.0}]
    best, best_val = None, np.inf
    from scipy import optimize  # imported where it runs: it is most of the import time
    for start in (np.full(m, 1.0 / m), np.clip(pi, 1e-9, None) / np.clip(pi, 1e-9, None).sum()):
        res = optimize.minimize(
            expect,
            start,
            bounds=[(1e-12, 1.0)] * m,
            constraints=cons,
            method="SLSQP",
            options={"maxiter": 400, "ftol": 1e-15},
        )
        # score the feasible projection so constraint drift cannot produce
        # a value below the true minimum
        x = np.clip(res.x, 1e-15, None)
        x = x / x.sum()
        val = expect(x)
        if best is None or val < best_val:
            best, best_val = x, val
    return best, best_val


def _mixture_min(game: Game, pi: np.ndarray, eta: float,
                 samples: int, seed: int) -> float:
    """Sampled lower estimate of min E_pi over the eta-hull for games where
    mixability at eta is not asserted."""
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(samples):
        k = int(rng.integers(2, 6))
        if game.decision_kind == "box":
            decs = rng.random((k, game.decision_dim))
        else:
            decs = rng.dirichlet(np.ones(game.decision_dim), size=k)
        pts = [game.loss_vector(d) for d in decs]
        w = rng.dirichlet(np.ones(k))
        mix = exp_mix(pts, w, eta)
        live = pi > 0
        if np.any(np.isinf(mix[live])):
            continue
        best = min(best, float(np.dot(pi[live], mix[live])))
    return best


def generalized_entropy(game: Game, pi, eta: float, *, full_output: bool = False,
                        mixture_samples: int = 256, seed: int = 0):
    """Minimal expected loss over the eta-hull of the superprediction set.

    For eta inside the game's asserted mixable range the minimum over the
    hull equals the minimum over the decisions and the game's closed form
    (when present) is exact.  Outside that range the hull can dip below the
    decision set; the value is then the min of the decision-domain search,
    the game's hull closed form when supplied, and sampled exponential
    mixtures, and is flagged as approximate unless a closed form covered it.
    """
    p = as_probs(pi)
    mixable = game.mixable_at(eta)
    if mixable and game.entropy is not None:
        res = EntropyResult(float(game.entropy(p)), exact=True, used_mixtures=False)
        return res if full_output else res.value
    value = _argmin_decision(game, p)[1]
    exact = mixable
    used_mixtures = False
    if not mixable:
        if game.hull_proper_loss is not None:
            hp = game.hull_proper_loss(p, eta)
            live = p > 0
            value = min(value, float(np.dot(p[live], hp[live])))
            exact = True
        else:
            value = min(value, _mixture_min(game, p, eta, mixture_samples, seed))
            used_mixtures = True
    res = EntropyResult(float(max(value, 0.0)), exact=exact, used_mixtures=used_mixtures)
    return res if full_output else res.value


_RICHARDSON_T = (1e-3, 1e-4, 1e-5)


def _richardson(values: np.ndarray) -> np.ndarray:
    """Extrapolate f(t) -> f(0) from samples at t, t/10, t/100 assuming a
    smooth first-order error term."""
    v1 = (10.0 * values[1] - values[0]) / 9.0
    v2 = (10.0 * values[2] - values[1]) / 9.0
    return (10.0 * v2 - v1) / 9.0


def _boundary_anchor(m: int) -> np.ndarray:
    w = np.arange(m, 0, -1, dtype=float)
    return w / w.sum()


def proper_loss_from_entropy(game: Game, eta: float, *, fd_step: float = 1e-6,
                             prefer_closed_form: bool = True,
                             probe_boundary: bool = True,
                             consistency_tol: float = 1e-3) -> ProperLoss:
    """Construct the canonical proper loss as the entropy gradient.

    Interior values come from the Savage identity
    ``lambda(pi, w) = phi(pi) - sum_o pi_o phi'_o(pi) + phi'_w(pi)`` with
    central finite differences on the positively-homogeneous extension
    ``phi(x) = |x| H(x / |x|)``.  Boundary values are limits from the
    interior along two fixed approach paths, Richardson-extrapolated;
    construction raises :class:`NonExtendable` when the two paths disagree
    on a face (limits that diverge consistently count as ``inf``).
    """
    m = game.m
    if prefer_closed_form and game.proper_loss is not None:
        return ProperLoss(game=game, eta=eta, fn=game.proper_loss,
                          domain_flag="whole-simplex", label=f"{game.name}-canonical")

    def H(p: np.ndarray) -> float:
        return generalized_entropy(game, p, eta)

    def phi(x: np.ndarray) -> float:
        s = float(np.sum(x))
        if s <= 0:
            return 0.0
        return s * H(x / s)

    def savage(pi: np.ndarray) -> np.ndarray:
        pi = np.asarray(pi, dtype=float)
        # truncation error scales with (h / min coordinate)^2, so the step
        # must shrink proportionally on approach paths to the boundary
        h = min(fd_step, 1e-3 * float(pi.min()))
        base = phi(pi)
        grads = np.empty(m)
        for o in range(m):
            e = np.zeros(m)
            e[o] = h
            grads[o] = (phi(pi + e) - phi(pi - e)) / (2.0 * h)
        return base - float(np.dot(pi, grads)) + grads

    uniform = np.full(m, 1.0 / m)
    anchor = _boundary_anchor(m)

    def limit_along(pi_b: np.ndarray, target: np.ndarray) -> np.ndarray:
        samples = np.stack([savage((1.0 - t) * pi_b + t * target) for t in _RICHARDSON_T])
        out = np.empty(m)
        for w in range(m):
            col = samples[:, w]
            d1, d2 = col[1] - col[0], col[2] - col[1]
            # increments below the finite-difference noise floor mean the
            # sequence has converged as far as we can resolve
            if max(abs(d1), abs(d2)) <= 1e-5 or abs(d2) <= 0.5 * abs(d1):
                # increments shrink with t: a finite limit, extrapolate
                out[w] = _richardson(col)
            elif d1 > 0 and d2 > 0:
                # increments persist while t -> 0: divergence to +inf
                # (log-divergence keeps increments constant per decade)
                out[w] = np.inf
            else:
                face = tuple(int(i) for i in np.flatnonzero(pi_b > 0))
                raise NonExtendable(
                    f"no limit at boundary point {pi_b} along path toward "
                    f"{target} (samples {col})",
                    face=face,
                    point=pi_b.copy(),
                )
        return out

    def boundary_value(pi_b: np.ndarray, *, check: bool) -> np.ndarray:
        lim_u = limit_along(pi_b, uniform)
        if not check:
            return np.maximum(lim_u, 0.0)
        lim_a = limit_along(pi_b, anchor)
        both_fin = np.isfinite(lim_u) & np.isfinite(lim_a)
        agree_inf = np.isinf(lim_u) == np.isinf(lim_a)
        if not np.all(agree_inf) or \
                np.any(np.abs(lim_u[both_fin] - lim_a[both_fin]) > consistency_tol):
            face = tuple(int(i) for i in np.flatnonzero(pi_b > 0))
            raise NonExtendable(
                f"interior limits disagree at boundary point {pi_b} "
                f"(uniform path {lim_u}, skew path {lim_a})",
                face=face,
                point=pi_b.copy(),
            )
        return np.maximum(lim_u, 0.0)

    if probe_boundary:
        supports = []
        for size in range(1, m):
            from itertools import combinations

            supports.extend(combinations(range(m), size))
        for sup in supports:
            pi_b = np.zeros(m)
            pi_b[list(sup)] = 1.0 / len(sup)
            boundary_value(pi_b, check=True)
        domain = "whole-simplex"
    else:
        domain = "interior-only"

    def fn(pi: np.ndarray) -> np.ndarray:
        pi = np.asarray(pi, dtype=float)
        if pi.ndim == 2:
            return np.stack([fn(row) for row in pi])
        if np.all(pi > 0):
            return np.maximum(savage(pi), 0.0)
        return boundary_value(pi, check=False)

    return ProperLoss(game=game, eta=eta, fn=fn, domain_flag=domain,
                      label=f"{game.name}-entropy-gradient")


def direct_argmin_loss(game: Game, pi, eta: float) -> np.ndarray:
    """Loss vector of the decision minimizing E_pi over the decision domain;
    the independent cross-check for the Savage-formula construction."""
    return game.loss_vector(_argmin_decision(game, as_probs(pi))[0])


# ---------------------------------------------------------------------------
# Property checkers


@dataclass(frozen=True)
class ProperReport:
    max_violation: float
    strictness: bool
    witness: tuple | None = None  # (pi, pi_prime) attaining max_violation


def _pi_grid(m: int, density: int) -> np.ndarray:
    if m == 2:
        p = np.linspace(0.0, 1.0, density)
        return np.column_stack([1.0 - p, p])
    return simplex_grid(m, density - 1)


def check_proper(proper: ProperLoss, grid_density: int = 50,
                 *, interior_margin: float = 0.0) -> ProperReport:
    """Scan E_pi lambda(pi) - E_pi lambda(pi') over a (pi, pi') grid.

    ``max_violation`` is the largest positive excess (0 for a proper loss up
    to rounding); ``strictness`` is true iff the defining inequality is
    strict at every grid pair with pi != pi'.
    """
    if grid_density < 2:
        raise ValueError("grid_density must be at least 2")
    m = proper.game.m
    P = _pi_grid(m, grid_density)
    if interior_margin > 0.0:
        P = interior_margin + (1.0 - m * interior_margin) * P
    L = proper(P)
    if L.shape != P.shape:
        L = np.stack([proper(row) for row in P])
    Lfin = np.where(np.isinf(L), 0.0, L)
    D = P @ Lfin.T
    has_inf = (P > 0).astype(float) @ np.isinf(L).astype(float).T
    D = np.where(has_inf > 0, np.inf, D)
    own = np.diag(D)
    finite_own = np.isfinite(own)
    diff = own[:, None] - D  # positive entries are properness violations
    with np.errstate(invalid="ignore"):
        viol = np.where(np.isinf(D) & np.isinf(own)[:, None], -np.inf, diff)
    viol = np.where(finite_own[:, None] | np.isfinite(D), viol, -np.inf)
    max_violation = float(np.nanmax(viol)) if viol.size else 0.0
    i, j = np.unravel_index(int(np.nanargmax(viol)), viol.shape)
    off = ~np.eye(len(P), dtype=bool)
    gaps = np.where(off, D - own[:, None], np.inf)
    strict = bool(np.nanmin(gaps) > 0.0)
    return ProperReport(max_violation=max_violation, strictness=strict,
                        witness=(P[i].copy(), P[j].copy()))


@dataclass(frozen=True)
class MixabilityReport:
    mixable: bool
    worst_gap: float


def check_mixability(game: Game, eta: float, samples: int = 200,
                     tol: float = 1e-6, *, seed: int = 0,
                     set_size_range: tuple[int, int] = (2, 5)) -> MixabilityReport:
    """Sample finite prediction sets and Dirichlet weights, form their
    eta-exponential mixtures, and test superprediction membership with
    c = 1.  ``worst_gap`` is the largest membership deficit seen."""
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = set_size_range
    worst = -np.inf
    for _ in range(samples):
        k = int(rng.integers(lo, hi + 1))
        if game.decision_kind == "box":
            decs = rng.random((k, game.decision_dim))
        else:
            decs = rng.dirichlet(np.ones(game.decision_dim), size=k)
        pts = [game.loss_vector(d) for d in decs]
        w = rng.dirichlet(np.ones(k))
        mix = exp_mix(pts, w, eta)
        gap = domination_gap(game, mix)
        worst = max(worst, gap)
    return MixabilityReport(mixable=bool(worst <= tol), worst_gap=float(worst))
