"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
inline).  Tolerances are pinned here, not configured.
"""

import time

import numpy as np

from expertmix.aggregating import aa_start, aa_step
from expertmix.core import Game
from expertmix.defensive import (
    default_proper_loss,
    dfa_solve_binary,
    dfa_solve_simplex,
    dfa_start,
    dfa_step,
    fixed_advice_q,
    supermartingale_property_check,
)
from expertmix.errors import ContractViolation, NonExtendable, NotRealizable, SubstitutionFailure
from expertmix.extensions import absolute_simplex, brier_simplex, check_relative_exp_convexity, kl_simplex
from expertmix.harness.oracle import oracle_dfa_solve
from expertmix.harness.runner import run_scenario, trajectory_lines
from expertmix.harness.scenarios import SCENARIOS, builtin_scenario, run_disconnected_flip
from expertmix.losses import (
    ProperLoss,
    builtin_game,
    check_proper,
    direct_argmin_loss,
    generalized_entropy,
    proper_loss_from_entropy,
    realizability_constant,
)

LN2 = np.log(2.0)


def report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def advice_rows(game, decisions):
    return np.stack([game.loss_vector(np.atleast_1d(d)) for d in decisions])


def test_criterion_01_mixing_bound_log_k10():
    cfg = builtin_scenario("aa-log-k10")
    t0 = time.perf_counter()
    res = run_scenario(cfg)
    elapsed = time.perf_counter() - t0
    ok = res.summary["max_bound_margin"] <= 1e-7 and elapsed < 5.0
    report(1, ok, f"mixing bound, K=10, N=10^4: worst margin "
                  f"{res.summary['max_bound_margin']:.3e}, {elapsed:.2f}s")


def test_criterion_02_forecasting_bound_log_k10():
    cfg = builtin_scenario("dfa-log-k10")
    res = run_scenario(cfg)
    margins_ok = res.summary["max_bound_margin"] <= 1e-7
    prev = 0.0
    nonincrease_ok = True
    for rec in res.records:
        if rec.log_supermartingale > prev + np.log1p(rec.slack) + 1e-9:
            nonincrease_ok = False
            break
        prev = rec.log_supermartingale
    slack_ok = res.records[-1].slack_total < 1e-4
    ok = margins_ok and nonincrease_ok and slack_ok
    report(2, ok, f"forecasting bound, N=10^4: worst margin "
                  f"{res.summary['max_bound_margin']:.3e}, per-step non-increase "
                  f"{nonincrease_ok}, slack {res.records[-1].slack_total:.3e}")


def test_criterion_03_mixing_forecasting_equivalence():
    worst = {}
    for name, eta in (("log", 1.0), ("square", 2.0)):
        game = builtin_game(name, 2)
        rng = np.random.default_rng(42)
        K = 4
        sa = aa_start(game, eta=eta, n_experts=K)
        sd = dfa_start(game, eta=eta, n_experts=K)
        w_max = 0.0
        for _ in range(200):
            adv = advice_rows(game, rng.random(K))
            w = int(rng.integers(0, 2))
            dd, sd, _ = dfa_step(sd, adv, w)
            da, sa = aa_step(sa, adv, w)
            w_max = max(w_max, abs(float(da[0]) - float(dd[0])))
        worst[name] = w_max
    ok = all(v <= 1e-6 for v in worst.values())
    report(3, ok, f"per-step prediction agreement over 200 steps: "
                  f"log {worst['log']:.2e}, square {worst['square']:.2e}")


def test_criterion_04_supermartingale_suites():
    results = []
    for eta in (0.25, 0.5, 1.0):
        g = builtin_game("log", 2)
        lam = default_proper_loss(g, 1.0, eta)
        rep = supermartingale_property_check(lam, 1.0, eta, g, samples=10_000, seed=0)
        results.append(("log", eta, rep.max_excess, rep.max_excess <= 1e-9))
    for eta in (0.5, 1.0, 2.0):
        g = builtin_game("square", 2)
        lam = default_proper_loss(g, 1.0, eta)
        rep = supermartingale_property_check(lam, 1.0, eta, g, samples=10_000, seed=0)
        results.append(("square", eta, rep.max_excess, rep.max_excess <= 1e-9))
    g = builtin_game("log", 2)
    neg_log = supermartingale_property_check(
        default_proper_loss(g, 1.0, 1.0), 1.0, 1.3, g, samples=10_000, seed=0)
    gs = builtin_game("square", 2)
    neg_sq = supermartingale_property_check(
        default_proper_loss(gs, 1.0, 2.0), 1.0, 2.5, gs, samples=10_000, seed=0)
    ok = all(r[3] for r in results) and neg_log.max_excess > 1e-4 \
        and neg_sq.max_excess > 1e-4
    worst_pos = max(r[2] for r in results)
    report(4, ok, f"expectation bound over 10^4 samples: worst excess "
                  f"{worst_pos:.2e}; negative controls {neg_log.max_excess:.2e} "
                  f"(log@1.3), {neg_sq.max_excess:.2e} (square@2.5)")


def log_with_dummy_game() -> Game:
    def loss(dec):
        dec = np.asarray(dec, dtype=float)
        batched = dec.ndim == 2
        p = dec[:, 0] if batched else np.atleast_1d(dec)
        l1 = np.where(p > 0, -np.log(np.where(p > 0, p, 1.0)), np.inf)
        l2 = np.where(p < 1, -np.log(np.where(p < 1, 1.0 - p, 1.0)), np.inf)
        out = np.stack([l1, l2, np.ones_like(p)], axis=-1)
        return out if batched else out[0]

    return Game(name="log-dummy", m=3,
                decision_kind="box", decision_dim=1, loss=loss,
                substitution=lambda g: np.array([np.exp(-g[0])]),
                eta_mixable_range=(0.0, 1.0))


def test_criterion_05_properness():
    stats = []
    for name, m in (("log", 2), ("brier", 2), ("hellinger", 2)):
        game = builtin_game(name, m)
        pl = default_proper_loss(game, 1.0, 1.0)
        rep = check_proper(pl, 50)
        stats.append((name, rep.max_violation, rep.strictness))
    proper_ok = all(v <= 1e-9 and s for _, v, s in stats)
    gh = builtin_game("hellinger", 2)
    raw = ProperLoss(game=gh, eta=1.0, fn=lambda pi: gh.loss(pi), label="raw")
    raw_rep = check_proper(raw, 50)
    raw_ok = raw_rep.max_violation > 0 and raw_rep.witness is not None
    try:
        proper_loss_from_entropy(log_with_dummy_game(), 1.0)
        counter_ok = False
        face = None
    except NonExtendable as err:
        counter_ok = err.face == (2,)
        face = err.face
    ok = proper_ok and raw_ok and counter_ok
    report(5, ok, f"log/Brier/spherical strictly proper on 50x50; raw Hellinger "
                  f"violation {raw_rep.max_violation:.2e}; 3-outcome corner "
                  f"non-extendable at face {face}")


def test_criterion_06_entropy_gradient_consistency():
    rng = np.random.default_rng(6)
    worst_grad = 0.0
    worst_h = 0.0
    for name, m in (("brier", 3), ("log", 2)):
        game = builtin_game(name, m)
        stripped = builtin_game(name, m)
        object.__setattr__(stripped, "entropy", None)
        pl = proper_loss_from_entropy(game, 1.0, prefer_closed_form=False,
                                      probe_boundary=False)
        for _ in range(100):
            pi = 0.02 + 0.9 * rng.dirichlet(np.ones(m))
            pi = pi / pi.sum()
            grad = pl(pi)
            am = direct_argmin_loss(game, pi, 1.0)
            worst_grad = max(worst_grad, float(np.max(np.abs(grad - am))))
            h_num = generalized_entropy(stripped, pi, 1.0)
            h_closed = (1.0 - np.sum(pi**2)) if name == "brier" else \
                float(-np.sum(pi[pi > 0] * np.log(pi[pi > 0])))
            worst_h = max(worst_h, abs(h_num - h_closed))
    ok = worst_grad <= 1e-5 and worst_h <= 1e-9
    report(6, ok, f"gradient vs direct argmin on 100 interior points: "
                  f"{worst_grad:.2e}; numeric entropy vs closed form: {worst_h:.2e}")


def test_criterion_07_absolute_loss_scaling():
    c = realizability_constant("absolute", 1.0)
    res_aa = run_scenario(builtin_scenario("absolute-aa"))
    res_dfa = run_scenario(builtin_scenario("absolute-dfa"))
    bounds_ok = res_aa.summary["bound_ok"] and res_dfa.summary["bound_ok"]
    g = builtin_game("absolute", 2)
    adv = advice_rows(g, [0.0, 1.0])
    try:
        aa_step(aa_start(g, eta=1.0, c=1.0, n_experts=2), adv, 0)
        aa_fired = False
    except SubstitutionFailure:
        aa_fired = True
    try:
        dfa_step(dfa_start(g, eta=1.0, c=1.0, n_experts=2), adv, 0)
        dfa_fired = False
    except (SubstitutionFailure, NotRealizable, ContractViolation):
        dfa_fired = True
    ok = bounds_ok and aa_fired and dfa_fired
    report(7, ok, f"absolute loss with c={c:.6f} holds over 10^3 adversarial "
                  f"steps (margins {res_aa.summary['max_bound_margin']:.2e} / "
                  f"{res_dfa.summary['max_bound_margin']:.2e}); c=1 controls fire")


def test_criterion_08_second_guessing_forecaster():
    res = run_scenario(builtin_scenario("sg-contrarian-log"))
    bound_ok = res.summary["max_bound_margin"] <= 1e-7
    flip = run_disconnected_flip(300)
    failure_ok = flip.summary["regret"] >= 0.4 * 300 and not flip.summary["bound_ok"]
    ok = bound_ok and failure_ok
    report(8, ok, f"continuous contrarian N=300: worst margin "
                  f"{res.summary['max_bound_margin']:.2e}; discontinuous flip "
                  f"regret {flip.summary['regret']:.0f} >= 120 (expected failure)")


def test_criterion_09_fixed_point_mixing():
    from expertmix.secondguess import (
        SecondGuessExpert,
        sg_aa_step,
        sg_dfa_step,
        sg_fixed_point,
        sg_fixed_point_residual,
    )

    g = builtin_game("log", 2)
    experts = [SecondGuessExpert.coordinate_swap(),
               SecondGuessExpert.constant(g.loss_vector([0.5]))]
    sa = aa_start(g, eta=1.0, n_experts=2)
    sd = dfa_start(g, eta=1.0, n_experts=2)
    rng = np.random.default_rng(11)
    worst_resid = 0.0
    worst_dp = 0.0
    for _ in range(300):
        w = int(rng.integers(0, 2))
        gamma_a = sg_fixed_point(sa, experts, tol=1e-12)
        worst_resid = max(worst_resid, sg_fixed_point_residual(sa, experts, gamma_a))
        gamma_d, sd, _ = sg_dfa_step(sd, experts, w)
        worst_dp = max(worst_dp, abs(float(g.substitution(gamma_a)[0])
                                     - float(g.substitution(gamma_d)[0])))
        _, sa = sg_aa_step(sa, experts, w, tol=1e-12)
    ok = worst_resid <= 1e-8 and worst_dp <= 1e-4 \
        and np.all(sa.bound_margins() <= 1e-7)
    report(9, ok, f"fixed-point residual {worst_resid:.2e}; agreement with the "
                  f"forecasting variant {worst_dp:.2e}; bound holds")


def test_criterion_10_evaluator_replication():
    res = run_scenario(builtin_scenario("ml-log-square-k4"))
    K = 4
    margins_ok = res.summary["max_bound_margin"] <= 1e-7
    final_learner = np.array(res.summary["final_learner_loss"])
    final_expert = np.array(res.summary["final_expert_losses"])
    regrets = final_learner - final_expert
    slack = res.records[-1].slack_total
    log_ok = np.all(regrets[:K] <= np.log(2 * K) + slack + 1e-7)
    sq_ok = np.all(regrets[K:] <= 0.5 * np.log(2 * K) + 0.5 * slack + 1e-7)
    ok = margins_ok and log_ok and sq_ok
    report(10, ok, f"2K=8 evaluators, N=2000: worst margin "
                   f"{res.summary['max_bound_margin']:.2e}; regrets within "
                   f"ln(2K)={np.log(2*K):.4f} and 0.5 ln(2K)={0.5*np.log(2*K):.4f}")


def test_criterion_11_simplex_outcomes():
    res_b = run_scenario(builtin_scenario("brier-simplex"))
    res_k = run_scenario(builtin_scenario("kl-simplex"))
    bounds_ok = res_b.summary["max_bound_margin"] <= 1e-7 \
        and res_k.summary["max_bound_margin"] <= 1e-7
    rb = check_relative_exp_convexity(brier_simplex(3), 1.0, 1.0, 10_000, seed=0)
    rk = check_relative_exp_convexity(kl_simplex(3), 1.0, 1.0, 10_000, seed=0)
    probe = (np.array([0.0]), np.array([0.5]), np.array([0.5, 0.5]))
    ra = check_relative_exp_convexity(absolute_simplex(), 1.0, 1.0, 100,
                                      seed=0, probes=[probe])
    witness_ok = (not ra.holds) and ra.worst_violation >= \
        np.exp(0.5) - np.cosh(0.5) - 1e-9
    ok = bounds_ok and rb.holds and rb.worst_violation <= 1e-9 \
        and rk.holds and rk.worst_violation <= 1e-9 and witness_ok
    report(11, ok, f"simplex-outcome bounds hold (margins "
                   f"{res_b.summary['max_bound_margin']:.2e} / "
                   f"{res_k.summary['max_bound_margin']:.2e}); transfer "
                   f"inequality holds for Brier/KL and fails for the absolute "
                   f"extension with excess {ra.worst_violation:.4f}")


def test_criterion_12_solver_oracle_equivalence():
    checks = []
    # binary: log two point experts -> the half point
    g = builtin_game("log", 2)
    st = dfa_start(g, eta=1.0, n_experts=2)
    qrow = fixed_advice_q(st, advice_rows(g, [0.0, 1.0]))
    grid = 10_000
    pi_star = oracle_dfa_solve(lambda pi: qrow(pi), 1.0, 2, grid)
    p = dfa_solve_binary(qrow, 1.0, tol=1e-12)
    checks.append(abs(p - pi_star[1]) <= 2.0 / grid)
    # binary: asymmetric square mixture, compare objective values
    gs = builtin_game("square", 2)
    sts = dfa_start(gs, eta=2.0, n_experts=2)
    qrow_s = fixed_advice_q(sts, advice_rows(gs, [0.3, 0.9]))
    p = dfa_solve_binary(qrow_s, 1.0, tol=1e-12)
    pi_star = oracle_dfa_solve(lambda pi: qrow_s(pi), 1.0, 2, 4000)
    checks.append(float(np.max(qrow_s(np.array([1 - p, p]))))
                  <= float(np.max(qrow_s(pi_star))) + 1e-9)
    # binary: absolute with its scaling constant
    ga = builtin_game("absolute", 2)
    c = realizability_constant("absolute", 1.0)
    sta = dfa_start(ga, eta=1.0, c=c, n_experts=2)
    qrow_a = fixed_advice_q(sta, advice_rows(ga, [0.0, 1.0]))
    p = dfa_solve_binary(qrow_a, 1.0, tol=1e-12)
    pi_star = oracle_dfa_solve(lambda pi: qrow_a(pi), 1.0, 2, 4000)
    checks.append(float(np.max(qrow_a(np.array([1 - p, p]))))
                  <= float(np.max(qrow_a(pi_star))) + 1e-9)
    # m=3: single barycenter expert under the quadratic score
    gb = builtin_game("brier", 3)
    stb = dfa_start(gb, eta=1.0, n_experts=1)
    qrow_b = qbatch_b = fixed_advice_q(stb, np.stack([gb.loss_vector(np.full(3, 1 / 3))]))
    eps, tol = 1e-6, 1e-9
    pi = dfa_solve_simplex(qbatch_b, 1.0, 3, eps, tol)
    pi_star = oracle_dfa_solve(lambda x: qrow_b(x), 1.0, 3, grid=60)
    checks.append(float(np.max(qrow_b(pi)))
                  <= float(np.max(qrow_b(pi_star))) + (1 + eps) * tol + 0.05 / 60)
    # m=3: two log experts (the mixture lands on the minimal surface)
    gl3 = builtin_game("log", 3)
    stl = dfa_start(gl3, eta=1.0, n_experts=2)
    adv = np.stack([gl3.loss_vector(np.array([0.6, 0.2, 0.2])),
                    gl3.loss_vector(np.array([0.1, 0.3, 0.6]))])
    qrow_l = qbatch_l = fixed_advice_q(stl, adv)
    pi = dfa_solve_simplex(qbatch_l, 1.0, 3, eps, tol)
    pi_star = oracle_dfa_solve(lambda x: qrow_l(x), 1.0, 3, grid=100)
    v_solver = float(np.max(qrow_l(pi)))
    v_oracle = float(np.max(qrow_l(pi_star)))
    checks.append(v_solver <= v_oracle + (1 + eps) * tol + 0.05 / 100 + eps)
    ok = all(checks)
    report(12, ok, f"solver vs brute-force grid on 5 scenarios (m <= 3): {checks}")


def test_criterion_13_determinism():
    mismatches = []
    for name in sorted(SCENARIOS):
        cfg_a = builtin_scenario(name, horizon=25)
        cfg_b = builtin_scenario(name, horizon=25)
        la = trajectory_lines(run_scenario(cfg_a))
        lb = trajectory_lines(run_scenario(cfg_b))
        if la != lb:
            mismatches.append(name)
    ok = not mismatches
    report(13, ok, f"byte-identical JSONL for all {len(SCENARIOS)} shipped "
                   f"scenarios{'' if ok else ': mismatches ' + str(mismatches)}")
