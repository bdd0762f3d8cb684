"""Re-audit of recorded trajectories against the guarantee
``L_N <= c L_N^theta + (c/eta) ln(1/P0(theta)) + slack allowance``.

The audit recomputes prefix margins from the cumulative loss fields (it
does not trust the margins stored in the records), so tampered
trajectories are caught at the offending step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class BoundReport:
    ok: bool
    worst_margin: float
    worst_step: int
    theta: int


def _columns(trajectory) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """The audited fields of every step record: the steps, Learner's
    cumulative loss (N,), or (N, k) under each expert's evaluator, the
    experts' (N, k) and the slack totals (N,), each read as floats once
    (``"inf"``/``"-inf"`` as infinities, a ``null`` as NaN)."""
    steps = [int(rec["step"]) for rec in trajectory]
    learner = np.array([rec["cumulative_learner_loss"] for rec in trajectory], dtype=float)
    experts = np.array([rec["cumulative_expert_losses"] for rec in trajectory], dtype=float)
    slack = np.array([rec.get("slack_total", 0.0) for rec in trajectory], dtype=float)
    return steps, learner, experts, slack


def _reports(columns, thetas, constants, strict: bool,
             margin_tol: float) -> list[BoundReport]:
    """Every prefix margin ``L - (c L^t + (c/eta)(ln(1/P0) + slack))`` of
    the experts ``thetas`` with their ``(c, eta, P0)``, and each expert's
    worst: the first step with the largest margin.  An infinite right-hand
    side bounds nothing (margin -inf).  A run records losses in [0, inf]
    and slack totals >= 0, so a NaN or negative input makes the margin
    NaN, which fails the audit at its step."""
    steps, learner, experts, slack = columns
    if not (steps and thetas):
        return [BoundReport(ok=True, worst_margin=-math.inf, worst_step=-1, theta=theta)
                for theta in thetas]
    c, eta, prior = (np.array(v, dtype=float) for v in zip(*constants))
    # ln with the float math of a per-record audit; a zero prior bounds nothing
    log_inv = np.array([math.log(1.0 / p) if p > 0.0 else math.inf for p in prior])
    cum_e = experts[:, thetas]
    cum_l = learner[:, thetas] if learner.ndim == 2 else learner[:, None]
    slack_log = 0.0 if strict else slack[:, None]
    with np.errstate(invalid="ignore"):
        rhs = c * cum_e + (c / eta) * log_inv + (c / eta) * slack_log
        margins = np.where(np.isinf(rhs), -np.inf, cum_l - rhs)
        broken = np.isnan(cum_l) | (cum_l < 0) | np.isnan(cum_e) | (cum_e < 0)
        if not strict:
            broken |= np.isnan(slack_log) | (slack_log < 0)
    margins[broken] = np.nan
    margins[:, prior <= 0.0] = -np.inf
    worst_rows = np.argmax(margins, axis=0)  # the first maximum, or the first NaN
    reports = []
    for t, (theta, i) in enumerate(zip(thetas, worst_rows.tolist())):
        worst = float(margins[i, t])
        reports.append(BoundReport(ok=bool(worst <= margin_tol), worst_margin=worst,
                                   worst_step=-1 if worst == -math.inf else steps[i],
                                   theta=theta))
    return reports


def verify_bound(trajectory, theta: int, c: float, eta: float,
                 prior: float, *, strict: bool = False,
                 margin_tol: float = 1e-7) -> BoundReport:
    """Worst prefix margin for expert ``theta``.

    ``trajectory`` is a list of step-record dicts.  ``strict`` sets the
    slack allowance to zero (the bound must hold exactly).  ``ok`` iff the
    worst margin is at most ``margin_tol``; a NaN, ``null`` or negative
    loss or slack total fails at its step.
    """
    return _reports(_columns(trajectory), [theta], [(c, eta, prior)],
                    strict, margin_tol)[0]


def read_trajectory(path: str | Path) -> tuple[dict, list[dict]]:
    """Load a JSONL trajectory; returns (meta, step records)."""
    meta: dict = {}
    steps: list[dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("type") == "meta":
                meta = obj
            else:
                steps.append(obj)
    return meta, steps


def verify_all(meta: dict, steps: list[dict], *, strict: bool = False,
               margin_tol: float = 1e-7) -> list[BoundReport]:
    """Audit every expert of a recorded run using the constants echoed in
    its meta line.  The records are read into columns once, and every
    expert's prefix margins are computed together."""
    config = meta.get("config", {})
    k = len(config.get("experts", []))
    if config.get("algorithm") == "ml-dfa":
        # each base expert once per evaluator, equal priors (as the runner does)
        evaluators = config.get("evaluators", [])
        constants = [(float(ev.get("c", 1.0)), float(ev.get("eta", 1.0)),
                      1.0 / (len(evaluators) * k)) for ev in evaluators for _ in range(k)]
    else:
        prior = config.get("prior")
        constants = [(float(config.get("c", 1.0)), float(config.get("eta", 1.0)),
                      (1.0 / k) if prior in (None, "uniform") else float(prior[t]))
                     for t in range(k)]
    return _reports(_columns(steps), list(range(len(constants))), constants,
                    strict, margin_tol)
