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


@dataclass(frozen=True)
class BoundReport:
    ok: bool
    worst_margin: float
    worst_step: int
    theta: int


def _num(x) -> float:
    if x == "inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    return float(x)


def verify_bound(trajectory, theta: int, c: float, eta: float,
                 prior: float, *, strict: bool = False,
                 margin_tol: float = 1e-7) -> BoundReport:
    """Worst prefix margin for expert ``theta``.

    ``trajectory`` is a list of step-record dicts.  ``strict`` sets the
    slack allowance to zero (the bound must hold exactly).  ``ok`` iff the
    worst margin is at most ``margin_tol``.
    """
    if prior <= 0.0:
        return BoundReport(ok=True, worst_margin=-math.inf, worst_step=-1,
                           theta=theta)
    penalty = (c / eta) * math.log(1.0 / prior)
    worst = -math.inf
    worst_step = -1
    for rec in trajectory:
        cum_l = rec["cumulative_learner_loss"]
        if isinstance(cum_l, list):
            cum_l = cum_l[theta]
        cum_l = _num(cum_l)
        cum_e = _num(rec["cumulative_expert_losses"][theta])
        slack_log = 0.0 if strict else _num(rec.get("slack_total", 0.0))
        rhs = c * cum_e + penalty + (c / eta) * slack_log
        margin = -math.inf if math.isinf(rhs) else cum_l - rhs
        if margin > worst:
            worst = margin
            worst_step = int(rec["step"])
    return BoundReport(ok=bool(worst <= margin_tol), worst_margin=worst,
                       worst_step=worst_step, theta=theta)


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
    its meta line."""
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
    return [verify_bound(steps, t, c, eta, p0, strict=strict, margin_tol=margin_tol)
            for t, (c, eta, p0) in enumerate(constants)]
