"""Game-theoretic supermartingales and the defensive forecasting step.

The per-step factor is ``q_g(pi, w) = exp(eta (lambda(pi, w)/c - g(w)))``;
a forecast distribution is chosen so that the prior-weighted product of
these factors cannot grow, whatever the outcome.  With scalar (c, eta)
the learner's share of a factor is common to every expert, so a
forecasting session's weights are AA's posterior, and its log
supermartingale is the running sum of ``ln q(pi_n, w_n)``, read from the
solver's q row at the forecast.
Under the game's canonical proper loss, ``q(p, w) <= 1`` exactly where
``lambda(p, w) <= gamma_w`` for AA's mix ``gamma``, so the admissible
interval is AA's feasible interval, and DFA's binary midpoint forecast is
AA's decision (the source paper's identity): a block of rounds with fixed
advice takes AA's point in forecast coordinates for every round, from one
batched substitution, and checks it in one q call
(:func:`_block_forecasts`); with three or more outcomes it tries every
round's barycentre first.  Any other binary round, and one whose check
fails, is solved one at a time by a bisection with two selection rules,
the midpoint of the admissible interval (:func:`admissible_interval`) and
the root of ``h(p) = q(p, 1) - q(p, 0)``: for the interval each q call
holds the nodes of the next six levels of both brackets, and the bisection
replays over their values; the root's calls hold six levels and the path
that inverse interpolation predicts, after a first batch that an evaluator
q reads from a table.  That root engine (:func:`_bisection`) is the one
binary bisection for a sign change: the second-guessing fixed point runs
it too.
With three or more outcomes, a round that both points miss takes the
labelled-grid search (:func:`dfa_solve_simplex`), Sperner's constructive
proof of Levin's lemma: levels of one q call on a Kuhn-triangulated grid,
each zooming in on a cell whose vertices carry every label.  It runs on the
delta-interior of the simplex with an explicit epsilon slack that is
surfaced and accumulated into the regret audit instead of being ignored.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .aggregating import _advice_matrix, _scaled_mix, project_boundary, substituted_rounds
from .core import (Game, Session, _batch_losses, log_mix, pair_exponent, simplex_grid,
                   start_session)
from .errors import AllExpertsDead, ContractViolation, SlackExceeded
from .losses import ProperLoss, proper_loss_from_entropy


def default_proper_loss(game: Game, c: float, eta: float) -> ProperLoss:
    """The loss parameterization used by the forecasting step.

    With ``c == 1`` this is the game's canonical proper loss, else its
    hull proper loss in closed form (absolute's, labelled
    ``absolute-hull``), else the entropy-gradient construction.  With
    ``c > 1`` it is the hull proper loss pushed to the boundary of the
    superprediction set by the radial projection (the game's
    ``boundary_proper_loss`` where it has one), which is what makes the
    factors supermartingales for non-mixable games.
    """
    if c == 1.0 and (game.proper_loss is not None or game.hull_proper_loss is None):
        return proper_loss_from_entropy(game, eta)
    if game.hull_proper_loss is None and game.boundary_proper_loss is None:
        raise ValueError(
            f"game {game.name!r} supplies no hull proper loss; "
            "a c > 1 session needs one"
        )

    def fn(pi: np.ndarray) -> np.ndarray:  # a float array: ProperLoss.__call__ makes it one
        if c == 1.0:
            return game.hull_proper_loss(pi, eta)
        if game.boundary_proper_loss is not None:
            return game.boundary_proper_loss(pi, c, eta)
        return project_boundary(game, game.hull_proper_loss(pi, eta), c, eta)

    return ProperLoss(game=game, eta=eta, fn=fn, domain_flag="whole-simplex",
                      label=f"{game.name}-hull" if c == 1.0 else f"{game.name}-boundary(c={c})")


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
    if a % u == 0.0 and step % u == 0.0 and step * n == b - a:
        # every node is a multiple of ulp(b) in [a, b]: exact, like each midpoint
        # (subnormal brackets can round the step)
        return a + step * (_RAMP[:n + 1] if n < len(_RAMP) else np.arange(n + 1.0))
    return _row_nodes(np.array([a]), np.array([b]), depth)[0]


#: levels of dyadic nodes in the root's first batch when q reads it from a
#: table (an evaluator group's plan, :func:`_groups`)
_TABLE_LEVELS = 10
#: the root's first batch: p = 0, 1, then the dyadic nodes of levels 1 to
#: ``_TABLE_LEVELS``, level by level, so that its first three are 0, 1, 1/2
_FIRST_NODES = np.concatenate([[0.0, 1.0], *(np.arange(1.0, 2.0 ** level, 2.0) / 2.0 ** level
                                             for level in range(1, _TABLE_LEVELS + 1))])
#: the first batch as forecasts ``(1 - p, p)``; a tabled q knows this array
_FIRST_FORECASTS = np.column_stack([1.0 - _FIRST_NODES, _FIRST_NODES])
_FIRST_FORECASTS.setflags(write=False)
#: node -> its row of the first batch, all of it or its first three rows
_FIRST_ROW = {p: i for i, p in enumerate(_FIRST_NODES.tolist())}
_FIRST_ROW_UNTABLED = {p: i for p, i in _FIRST_ROW.items() if i < 3}


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


def _q_at(q: Callable, p: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """q at the binary forecasts ``(1 - p, p)``, each of row ``rows[i]``
    when given."""
    P = np.column_stack([1.0 - p, p])
    return np.asarray(q(P) if rows is None else q(P, rows), dtype=float)


def _root_estimate(lo: float, hi: float, h_at) -> tuple[float, float, float] | None:
    """The root of :func:`_bisection`'s ``h`` in the bracket [lo, hi] by
    inverse interpolation (Neville's scheme for p as a polynomial in h, at
    h = 0) over the known values ``h_at(p)`` at the bracket's ends and one
    width beyond each: the estimate, its uncertainty (the scheme's last
    correction) and the slope of h between the first two values.  None
    when fewer than three of those values are finite, or the estimate
    leaves the bracket."""
    w = hi - lo
    ps, hs = [], []
    for p in (lo, hi, lo - w, hi + w):
        h = h_at(p)
        if h is not None and -math.inf < h < math.inf:
            ps.append(p)
            hs.append(float(h))
    if len(ps) < 3:
        return None
    est, last = ps[:], ps[0]
    for k in range(1, len(ps)):
        last = est[0]
        for i in range(len(ps) - k):
            d = hs[i + k] - hs[i]
            if d == 0.0:
                return None
            est[i] = (hs[i + k] * est[i] - hs[i] * est[i + 1]) / d
    r = est[0]
    slope = abs((hs[1] - hs[0]) / (ps[1] - ps[0]))
    return (r, abs(r - last), slope) if lo <= r <= hi else None


def _predicted_nodes(lo: float, hi: float, levels: int, tol: float, h_at) -> np.ndarray:
    """The nodes of :func:`_bisection`'s next call from the bracket [lo,
    hi], with ``levels`` levels left: the ``2**6 - 1`` nodes of the next
    six levels of [lo, hi], so that a wrong estimate still leaves six
    levels, then the bisection path toward :func:`_root_estimate`'s root
    r, and, where the path gets past those six levels, its end.  The path
    ends at the first node whose ``|h|`` the estimate puts under ``tol /
    2`` (within ``tol / (2 slope) - uncertainty`` of r), or else before the
    first node whose side the uncertainty leaves open, with the nodes of
    the next six levels of the bracket there.  Each node is the
    bisection's ``0.5 * (lo + hi)``, and none repeats."""
    depth = min(levels, _BATCH_LEVELS)
    here = _nodes(lo, hi, depth)[1:-1]
    guess = _root_estimate(lo, hi, h_at)
    if guess is None:
        return here
    r, u, slope = guess
    reach = 0.5 * tol / slope - u if slope > 0.0 else -1.0
    a, b, path, below = lo, hi, [], None
    while len(path) < levels:
        mid = 0.5 * (a + b)
        if abs(mid - r) <= reach:
            path.append(mid)
            break
        if abs(mid - r) <= u or mid == a or mid == b:
            below = _nodes(a, b, min(levels - len(path), _BATCH_LEVELS))[1:-1]
            break
        path.append(mid)
        if mid < r:
            a = mid
        else:
            b = mid
    if len(path) < depth:  # the path's nodes are among [lo, hi]'s
        return here
    return np.concatenate([here, path[depth:]] + ([] if below is None else [below]))


def _bisection(values: Callable[[np.ndarray], np.ndarray], index: dict, rows: np.ndarray,
               levels: int, tol: float):
    """Bisect [0, 1] for a sign change of ``h(p) = row[1] - row[0]`` over
    rows that come in batches, for at most ``levels`` levels and until the
    bracket is ``1e-17`` wide: ``values(p)`` gives the rows (n, 2) at the
    nodes ``p``, and ``index`` (node -> row) and ``rows`` are the first
    call's.  Each node is the bisection's ``0.5 * (lo + hi)``; where no
    call has held it, the next call holds :func:`_predicted_nodes` toward
    ``|h| <= tol``.  The root lies left of a node where ``h <= 0`` (a NaN
    h moves left too).  Yields each node, level by level, as ``(p, h,
    width, rows, i)``: the width of the bracket it splits, and its row
    ``rows[i]``, which only a caller that stops there takes; the caller
    stops by leaving the loop.  The bisection reads only real values, so
    its nodes and rows are those of one level per call, bit for bit: a
    wrong prediction costs a call, never a bit, and no more calls than six
    levels a call."""
    hs = rows[:, 1] - rows[:, 0]
    calls = [(index, hs)]  # each call's (node -> row, h at its rows), the latest first

    def h_at(p: float):
        for index, hs in calls:
            i = index.get(p)
            if i is not None:
                return hs[i]
        return None

    lo, hi = 0.0, 1.0
    for level in range(levels):
        mid = 0.5 * (lo + hi)
        i = index.get(mid)
        if i is None:  # the nodes of the latest call lie deepest
            p = _predicted_nodes(lo, hi, levels - level, tol, h_at)
            rows = values(p)
            index, hs = dict(zip(p.tolist(), range(len(p)))), (rows[:, 1] - rows[:, 0]).tolist()
            calls.insert(0, (index, hs))
            i = index[mid]
        h = hs[i]
        yield mid, h, hi - lo, rows, i
        if h > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17:
            return


def dfa_solve_binary(q: Callable[[np.ndarray], np.ndarray], C: float,
                     tol: float = 1e-9, max_iter: int = 200, *,
                     full_output: bool = False, table: bool = False):
    """Find p with ``q(p, 0) <= C + tol`` and ``q(p, 1) <= C + tol``.

    ``q`` maps a batch of forecasts ``(1 - p, p)``, shape (n, 2), to the
    rows ``(q(p, 0), q(p, 1))``.  Caller's contract: q is forecast-
    continuous and ``E_p q(p, .) <= C`` for all p.  Early exits: p = 0 when
    ``q(0, 1) <= C``, then p = 1 when ``q(1, 0) <= C``; otherwise the
    difference ``h(p) = q(p,1) - q(p,0)`` has a sign change and is bisected
    (at most ``max_iter`` levels, until the bracket is ``1e-17`` wide) to
    the first node with ``|h| <= tol``, which together with the expectation
    bound forces both coordinates under ``C + tol``.

    The first q call holds ``p = 0, 1, 1/2``, or with ``table`` (a q that
    reads them from a table, such as :func:`fixed_advice_q`'s evaluator q)
    the first batch ``_FIRST_FORECASTS``, every dyadic node of the first
    ``_TABLE_LEVELS`` levels.  The rest is :func:`_bisection`, the binary
    engine :func:`~expertmix.secondguess.sg_fixed_point` runs too: where
    it meets a node no call has held, the next call holds six levels of
    the bracket and the path that inverse interpolation predicts, and it
    gives the same root, bit for bit, as one level per call, in no more
    calls than six levels a call.  An evaluator round at ``tol = 1e-9``
    takes about one call besides the table's, where one level per call
    takes 31.  ``tol`` must be finite and at least ``2**-52``.  With
    ``full_output`` it returns ``(p, q row at p)``, the row its batch
    already holds.
    """
    _require_tol(tol)
    qv = np.asarray(q(_FIRST_FORECASTS if table else _FIRST_FORECASTS[:3]), dtype=float)
    q0, q1 = qv[0], qv[1]
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
    index = _FIRST_ROW if table else _FIRST_ROW_UNTABLED
    for p, h, _, rows, i in _bisection(functools.partial(_q_at, q), index, qv, max_iter, tol):
        if abs(h) <= tol:
            return (p, rows[i]) if full_output else p
    raise ContractViolation(
        "bisection failed to equalize the coordinates; q appears discontinuous"
    )


def _row_nodes(a: np.ndarray, b: np.ndarray, depth: int) -> np.ndarray:
    """:func:`_nodes` of each bracket ``[a[r], b[r]]``, shape (N, 2**depth
    + 1), built level by level: each node the midpoint the bisection gives."""
    n = 2 ** depth
    x = np.empty((len(a), n + 1))
    x[:, 0], x[:, -1] = a, b
    while n > 1:  # level by level: node j is the midpoint of j - n/2 and j + n/2
        h = n // 2
        x[:, h::n] = 0.5 * (x[:, :-h:n] + x[:, n::n])
        n = h
    return x


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


#: levels of :func:`dfa_solve_simplex` before it gives up
_LEVELS = 40


@functools.lru_cache(maxsize=None)
def _kuhn_grid(m: int) -> tuple[int, np.ndarray, np.ndarray]:
    """A level's grid over the simplex: its subdivisions n (at most 32, and
    as many as keep it to 1,024 points: 32, 16 and 10 at m = 3, 4 and 5),
    its points as compositions k of n into m parts, (P, m), and the cells
    of the Kuhn (Freudenthal) triangulation as rows of m point indices.  A
    point is held as the cumulative sums ``0 <= y_1 <= ... <= y_{m-1} <= n``
    of its k, in lexicographic order; a cell is a base y and a step order
    that raises each ``y_j`` by 1 once, kept where every vertex stays
    ordered."""
    n = 32
    while n > 5 and math.comb(n + m - 1, m - 1) > 1024:
        n -= 1
    y = np.array(list(itertools.combinations_with_replacement(range(n + 1), m - 1)))
    path = np.array(list(itertools.combinations_with_replacement(range(n), m - 1)))[:, None]
    for _ in range(m - 1):  # each step raises a y_j not yet raised that stays <= y_{j+1}
        last = path[:, -1]
        free = (last == path[:, 0]) & np.column_stack(
            [last[:, :-1] < last[:, 1:], np.ones(len(last), dtype=bool)])
        c, j = np.nonzero(free)
        step = path[c, -1] + (np.arange(m - 1) == j[:, None])
        path = np.concatenate([path[c], step[:, None]], axis=1)
    code = (n + 1) ** np.arange(m - 2, -1, -1)  # y's rank in lexicographic order is its code's
    k = np.diff(y, axis=1, prepend=0, append=n)
    cells = np.searchsorted(y @ code, path @ code)
    k.setflags(write=False)
    cells.setflags(write=False)
    return n, k, cells


def _labels(k: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Each grid point's Sperner label ``argmin_{w: k_w > 0} q(pi, w)`` from
    its composition ``k`` and its values ``vals`` (P, m): a point on the
    face ``k_w = 0`` never takes label w, even where q is infinite or NaN."""
    return np.argmin(np.where(k > 0, np.minimum(vals, np.finfo(float).max), np.inf), axis=1)


def dfa_solve_simplex(q: Callable[[np.ndarray], np.ndarray], C: float,
                      m: int, epsilon: float = 1e-6, tol: float = 1e-9) -> np.ndarray:
    """Find pi on the delta-interior of the simplex with
    ``max_w q(pi, w) <= (1+epsilon) C + tol``.

    ``q`` accepts a batch of distributions, shape (n, m), and returns
    the per-outcome values, shape (n, m); the caller's contract is
    ``E_pi q(pi, .) <= C`` for every pi.  The barycentre is tried first, so
    trivially-satisfiable instances return it unchanged.  The search is
    then the constructive proof of Levin's lemma by Sperner labels (Scarf
    1967; Kuhn 1968), in levels of one q call each on :func:`_kuhn_grid`'s
    grid over a sub-simplex, the whole delta-interior first; a level
    returns its first point under target.  Otherwise each point takes the
    label :func:`_labels`, ``argmin_{w: k_w > 0} q(pi, w)``, which no point
    on the face ``k_w = 0`` takes, so Sperner's lemma leaves a cell whose
    vertices carry every label.  On the whole delta-interior, whose face
    ``k_w = 0`` is ``pi_w = delta``, the vertex labelled w has ``q(pi, w)
    <= (1 + epsilon) C``, so such cells close in on a solution as the grid
    refines.  The next level
    zooms in on the fully labelled cell whose worst vertex value is least:
    its sub-simplex is the least one that holds that cell and the level's
    best point, half a cell wider on each face inside the current one.
    After ``_LEVELS`` levels :class:`SlackExceeded` is raised with the best
    point seen.  A session with one mix reaches the search only where the
    barycentre and AA's point both miss the target
    (:func:`_block_forecasts`).
    """
    delta = interior_delta(epsilon, m)
    target = (1.0 + epsilon) * C + tol
    best = np.full(m, 1.0 / m)
    best_val = float(np.max(q(best[None, :])))
    if best_val <= target:
        return best
    n, k, cells = _kuhn_grid(m)
    corner, width = np.zeros(m), 1.0  # the level's sub-simplex: corner + width * x
    for _ in range(_LEVELS):
        pts = delta + (1.0 - m * delta) * (corner + (width / n) * k)
        vals = np.asarray(q(pts), dtype=float)
        worst = vals.max(axis=1)
        hit = np.flatnonzero(worst <= target)
        if hit.size:
            return pts[hit[0]]
        i = int(np.argmin(worst))
        if worst[i] < best_val:
            best, best_val = pts[i], float(worst[i])
        full = cells[np.bitwise_or.reduce(1 << _labels(k, vals)[cells], axis=1) == (1 << m) - 1]
        cell = full[np.argmin(worst[full].max(axis=1))]
        # the least sub-simplex holding the cell and the best point, half a cell wider
        lower = np.maximum(np.minimum(k[cell].min(axis=0), k[i]) - 0.5, 0.0)
        corner = corner + (width / n) * lower
        width -= (width / n) * lower.sum()
    raise SlackExceeded(
        f"interior solve stalled at max_w q = {best_val:.6e} > target {target:.6e}",
        best_point=best,
        best_value=best_val,
    )


# ---------------------------------------------------------------------------
# The forecasting protocol step


def dfa_start(game: Game, *, eta: float, c: float = 1.0,
              prior: Sequence[float] | np.ndarray | None = None,
              n_experts: int | None = None,
              proper: ProperLoss | None = None) -> Session:
    return start_session(
        game, prior, n_experts, c=c, eta=eta,
        proper=default_proper_loss(game, c, eta) if proper is None else proper)


def _table(proper: ProperLoss, c: float, eta: float) -> tuple:
    """A binary group's proper loss at the root's first batch
    ``_FIRST_FORECASTS``, as :func:`fixed_advice_q`'s group q scales it
    before adding a round's log-mix: ``eta * lam / c``, with 0 where lam is
    infinite, and the (row, outcome) indices of those entries."""
    lam = proper(_FIRST_FORECASTS)
    inf = np.isinf(lam)
    scaled = np.multiply(eta, np.where(inf, 0.0, lam))
    np.divide(scaled, c, out=scaled)
    scaled.setflags(write=False)
    return scaled, np.nonzero(inf)


@functools.lru_cache(maxsize=16)
def _groups(proper: tuple, c: tuple, eta: tuple) -> tuple:
    """An evaluator session's plan: its groups, and each binary group's
    :func:`_table` (None for three or more outcomes)."""
    keys = list(zip(proper, c, eta))
    groups = []
    for key in dict.fromkeys(keys):
        idx = np.array([t for t, k in enumerate(keys) if k == key])
        idx.setflags(write=False)
        groups.append((*key, idx))
    return tuple(groups), tuple(_table(*key) if key[0].game.m == 2 else None
                                for key in dict.fromkeys(keys))


def _plan(state: Session) -> tuple:
    return _groups(state.proper, tuple(state.c.tolist()), tuple(state.eta.tolist()))


def evaluator_groups(state: Session) -> tuple:
    """The groups of an evaluator session's experts that share (proper
    loss, c, eta), in the order first seen: ``(proper, c, eta, indices)``
    each, worked out once per session's constants."""
    return _plan(state)[0]


def fixed_advice_q(state: Session, G: np.ndarray, log_posterior: np.ndarray | None = None,
                   log_a: np.ndarray | None = None):
    """The supermartingale factor
    ``q(pi, w) = sum_t wbar_t exp(eta_t (lambda_t(pi, w)/c_t - G_t(w)))``
    for advice ``G`` (one loss row per expert) that does not depend on pi,
    under the session's posterior or the given ``log_posterior``.

    Experts sharing (proper loss, c, eta) form one group
    (:func:`evaluator_groups`), whose sum factors into per-outcome
    constants ``ln a_w = log_mix(...)``, AA's mix, so each candidate costs
    one proper-loss call per group.  A standard session is the one-group
    case.  The returned q takes one distribution, shape
    (m,), or a batch, shape (n, m).  A binary evaluator q reads the root's
    first batch ``_FIRST_FORECASTS`` from its groups' tables (:func:`_table`)
    with no proper-loss call, by the same ufuncs in the same order, so its
    rows keep their bits.  A standard session's q can also hold a
    block of B rounds, ``log_posterior`` (B, k) and ``G`` (B, k, m): it then
    takes a batch and the round of each row, ``q(P, rows)``.  A standard
    session's caller that already holds the log-mix ``log_mix(lwn, eta,
    G)`` hands it over as ``log_a``.
    """
    lwn = state.log_posterior() if log_posterior is None else log_posterior

    def group_q(proper, c, eta, lwn_g, G_g, mass, log_a=None, table=None):
        if log_a is None:
            log_a = log_mix(lwn_g, eta, G_g)
        # where every weighted expert is infinite, an infinite lam cancels
        # each factor to 1: the group contributes its posterior mass
        dead = np.isneginf(log_a)

        def q(P: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
            la = log_a if rows is None else log_a[rows]
            if P is _FIRST_FORECASTS and table is not None:
                scaled, (inf_rows, inf_cols) = table
                out = np.add(scaled, la)
                np.exp(out, out=out)
                if inf_rows.size:
                    out[inf_rows, inf_cols] = np.where(dead[inf_cols], mass, np.inf)
                return out
            lam = proper(P)
            lam_inf = np.isinf(lam)
            if not lam_inf.any():  # the common case, in the general path's bits,
                out = np.multiply(eta, lam)  # in place: a block's batch is large
                np.divide(out, c, out=out)
                np.add(out, la, out=out)
                return np.exp(out, out=out)
            gone = dead if rows is None else dead[rows]
            vals = np.exp(eta * np.where(lam_inf, 0.0, lam) / c + la)
            vals = np.where(lam_inf & ~gone, np.inf, vals)
            return np.where(lam_inf & gone, mass, vals)

        return q

    if not isinstance(state.proper, tuple):
        return group_q(state.proper, state.c, state.eta, lwn, G, 1.0, log_a)
    groups, tables = _plan(state)
    qs = [group_q(proper, c, eta, lwn[idx], G[idx],
                  1.0 if len(groups) == 1 else float(np.exp(lwn[idx]).sum()), table=table)
          for (proper, c, eta, idx), table in zip(groups, tables)]
    return qs[0] if len(qs) == 1 else lambda P: sum(qg(P) for qg in qs)


def choose_forecast(q, m: int, *, C: float = 1.0, epsilon: float = 1e-6,
                    tol: float = 1e-9, select: str = "midpoint",
                    full_output: bool = False, table: bool = False):
    """Pick a forecast distribution keeping every coordinate of q under C
    (up to the documented slack); returns (pi, slack), and with
    ``full_output`` also the row ``q(pi, .)``, shape (m,).

    ``q`` maps a batch of distributions, shape (n, m), to its values, shape
    (n, m).  A binary forecast is the midpoint of the admissible interval
    (``select="midpoint"``) or the coordinate-equalizing root
    (``select="root"``, with ``table`` as :func:`dfa_solve_binary` takes
    it); larger outcome spaces run the simplex solver.
    """
    qpi = None  # q at pi, when the solve already has it
    if m == 2:
        if select == "midpoint":
            lo, hi = admissible_interval(q, C, tol)
            p = 0.5 * (lo + hi)
        elif select == "root":
            p, qpi = dfa_solve_binary(q, C, tol, full_output=True, table=table)
        else:
            raise ValueError(f"unknown selection rule {select!r}")
        pi = np.array([1.0 - p, p])
    else:
        pi = dfa_solve_simplex(q, C, m, epsilon, tol)
    if qpi is None:
        qpi = q(pi[None, :])[0]
    slack = max(0.0, float(np.max(qpi)) - C)
    return (pi, slack, qpi) if full_output else (pi, slack)


def _forecast(state: Session, lwn: np.ndarray, A: np.ndarray, epsilon: float,
              tol: float, select: str) -> tuple[np.ndarray, float, np.ndarray]:
    """The forecast pi for the advice ``A`` under the log posterior
    ``lwn``, its slack and the row ``q(pi, .)``: what
    :func:`_block_forecasts` gives it as a block of one (with three or more
    outcomes, the barycentre, then AA's point), else
    :func:`choose_forecast`'s solve, whose :class:`SlackExceeded`
    propagates."""
    pi, slack, qpi, served = _block_forecasts(state, lwn[None], A[None], epsilon, tol, select)
    if served[0]:
        return pi[0], slack[0], qpi[0]
    return choose_forecast(fixed_advice_q(state, A, lwn), state.game.m, epsilon=epsilon,
                           tol=tol, select=select, full_output=True)


def _log_q(qpi: np.ndarray) -> np.ndarray:
    """``ln q(pi, w)`` for each outcome: the log factor of the round."""
    with np.errstate(divide="ignore"):
        return np.log(qpi)


def _block_forecasts(state: Session, lwn: np.ndarray, A: np.ndarray, epsilon: float,
                     tol: float, select: str):
    """The forecasts that one batch gives a block of B rounds under their
    log posteriors ``lwn`` (B, k), from one batched log-mix: the first
    point that keeps q under :func:`dfa_solve_simplex`'s target ``(1 +
    epsilon) C + tol``.  With three or more outcomes that is the barycentre
    (one q call for all rows), then, for the rows it misses, AA's point in
    forecast coordinates, ``game.forecast_of(game.substitution(gamma))``
    for AA's mix ``gamma`` (one batched substitution and one q call).  A
    binary midpoint round takes AA's point alone, and only under the
    game's canonical proper loss.  There ``q(pi, w) = exp(eta (lambda(pi,
    w) - gamma_w) / c)`` with ``lambda(pi) = loss(p)`` at ``pi = (1 - p,
    p)``, so the admissible interval is ``game.feasible_interval(gamma)``
    and its midpoint is AA's decision, which keeps q under 1 up to
    rounding.
    Returns the forecasts (B, m), their slack, the rows ``q(pi, .)`` and
    the mask of rounds served; each row's bits do not depend on the other
    rows.  A round that misses, every binary round of any other session
    or of the root selection, and every round of a batch that raises are
    served none: those rounds are solved one at a time."""
    B, m = A.shape[0], A.shape[-1]
    game = getattr(state.game, "base", state.game)
    pi, qpi, served = np.full((B, m), 1.0 / m), np.zeros((B, m)), np.zeros(B, dtype=bool)
    if m > 2 or (select == "midpoint" and state.proper.fn is game.proper_loss):
        try:
            logs = log_mix(lwn, state.eta, A)
            q = fixed_advice_q(state, A, lwn, logs)
            target = (1.0 + epsilon) * 1.0 + tol
            if m > 2:
                qpi = q(pi, np.arange(B))
                served = qpi.max(axis=1) <= target
            miss = np.flatnonzero(~served)
            if miss.size:
                pi[miss] = game.forecast_of(game.substitution(_scaled_mix(state, logs[miss])))
                qpi[miss] = q(pi[miss], miss)
                served[miss] = qpi[miss].max(axis=1) <= target
        except Exception:  # the rounds one at a time find the one that raises
            pass
    excess = qpi.max(axis=1) - 1.0
    return pi, np.where(excess > 0.0, excess, 0.0), qpi, served


def forecast_rounds(state: Session, A: np.ndarray, expert_losses: np.ndarray, terms,
                    *, epsilon: float, tol: float, select: str):
    """The solve of a block of B forecasting rounds whose advice ``A`` (B,
    k, m) does not depend on Learner's moves, from the experts' losses (B -
    1, k) of the rounds before the last, whose outcome Reality picks later.

    The session's posterior is AA's, so one reweigh gives the posterior
    before every round (:meth:`~expertmix.core.Session.before`).  One batch
    serves the rounds it can (:func:`_block_forecasts`: each round's
    barycentre or AA's point), and
    :func:`_forecast` each other round, one at a time on the same
    posteriors, which takes :func:`admissible_interval` for a binary
    midpoint and the labelled-grid search only where both points miss.
    ``terms(block, pi)`` gives the learner terms of the rounds ``block``
    before the last, played at the forecasts ``pi``; a round whose
    learner term is infinite keeps weights that AA's posterior drops, so
    the rounds after it are solved again from
    its weights.  Returns the forecasts, slack and ``q(pi, .)`` rows of the
    rounds solved, the log weights, values and posteriors before each, and
    the error of the first round that raised (None when all were solved)."""
    B, k, m = A.shape
    lw, lv, lwn = np.empty((B, k)), np.empty(B), np.empty((B, k))  # before each round
    lw[0] = state.log_weights
    pi, slack, qpi = np.empty((B, m)), np.zeros(B), np.empty((B, m))
    n, error = 0, None
    while n < B and error is None:
        lw[n:], lv[n:], post = state.before(expert_losses[n:], lw[n])
        lwn[n:n + len(post)] = post
        p, s, q, served = _block_forecasts(state, post, A[n:n + len(post)], epsilon, tol, select)
        played = len(post)
        for i in np.flatnonzero(~served):
            try:
                p[i], s[i], q[i] = _forecast(state, post[i], A[n + i], epsilon, tol, select)
            except Exception as exc:  # raised once the rounds before it are played
                error, played = exc, int(i)
                break
        if error is None and len(post) < B - n:
            error = AllExpertsDead()
        pi[n:n + played], slack[n:n + played], qpi[n:n + played] = \
            p[:played], s[:played], q[:played]
        known = min(played, B - 1 - n)  # the rounds whose outcome is picked
        infinite = np.flatnonzero(np.isinf(terms(slice(n, n + known), p[:known]))) \
            if known else ()
        if len(infinite):  # its weights by the extended-real rule; solve on from them
            i = n + int(infinite[0])
            (lw[i + 1],), _, _ = state.reweigh(expert_losses[i:i + 1], np.inf, lw[i])
            played, error = i + 1 - n, None
        n += played
    return pi[:n], slack[:n], qpi[:n], lw[:n], lv[:n], lwn[:n], error


def dfa_rounds(state: Session, advice: np.ndarray, outcomes: np.ndarray, pick, *,
               epsilon: float = 1e-6, tol: float = 1e-9, select: str = "midpoint"):
    """Play a block of B rounds whose advice, shape (B, k, m), does not
    depend on Learner's moves, from the outcomes (B - 1,) of the rounds
    before the last and ``pick(loss_vector)``, the last round's
    (:func:`forecast_rounds`): one batch takes each round's barycentre
    where it holds (three or more outcomes) and AA's point in forecast
    coordinates where that holds, which under the game's canonical proper
    loss is every binary midpoint round's; the others are solved one at a
    time.  The learner term is ``lambda(pi, w)``, from one proper-loss
    pass over the block's forecasts, and the log factor ``ln q(pi, w)``
    from the solver's row at pi.  Returns what
    :func:`aggregating.aa_rounds` returns, each row what :func:`dfa_step`
    gives that round; an error is raised for the first round that meets
    it, before Reality picks.  With the default loss parameterizations,
    :class:`SubstitutionFailure` means that (c, eta) violates the game's
    contract."""
    lam = np.empty((len(advice), advice.shape[-1]))  # lambda at each round's forecast

    def terms(block, pi):
        lam[block] = state.proper(pi)
        return lam[block][np.arange(len(pi)), outcomes[block]]

    pi, slack, qpi, lw, lv, _, error = forecast_rounds(
        state, advice, advice[np.arange(len(outcomes)), :, outcomes], terms,
        epsilon=epsilon, tol=tol, select=select)
    if len(pi) == len(advice):  # the last round, whose outcome no term has scored
        lam[-1] = state.proper(pi[-1:])[0]
    lam = lam[:len(pi)]
    return substituted_rounds(state, lam, advice, outcomes, pick, lw, lv, slack, error,
                              lambda w: (lam[-1, w[-1]], _log_q(qpi)[np.arange(len(w)), w]))


def dfa_step(state: Session, advice, outcome: int, *,
             epsilon: float = 1e-6, tol: float = 1e-9,
             select: str = "midpoint") -> tuple[np.ndarray, Session, float]:
    """One forecasting round: choose pi, substitute, observe, reweigh (a
    block of one of :func:`dfa_rounds`).

    Binary games default to the midpoint of the admissible interval (the
    same selection the midpoint substitution makes on the mixing side);
    pass ``select="root"`` for the coordinate-equalizing bisection point.
    Returns ``(decision, new_state, slack)`` where ``slack`` is the step's
    worst-case excess of q over 1 across outcomes.
    """
    A = _advice_matrix(advice, state.game.m, state.n_experts)
    decisions, _, _, slack, rounds = dfa_rounds(
        state, A[None], np.empty(0, int), lambda lv: outcome, epsilon=epsilon, tol=tol,
        select=select)
    return decisions[0], state.after(rounds), float(slack[0])
