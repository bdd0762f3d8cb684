import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expertmix
from expertmix.errors import ConfigError
from expertmix.harness.audit import BoundReport, read_trajectory, verify_all, verify_bound
from expertmix.harness.cli import main as cli_main
from expertmix.harness.config import load_config, parse_config
from expertmix.harness.runner import run_scenario, trajectory_lines, write_outputs
from expertmix.harness.scenarios import builtin_scenario, run_disconnected_flip


def small_config(**overrides):
    doc = {
        "name": "t",
        "game": {"name": "log", "m": 2},
        "algorithm": "aa",
        "c": 1.0,
        "eta": 1.0,
        "experts": [{"kind": "iid-random"}, {"kind": "constant", "value": 0.5},
                    {"kind": "trailing-average"}],
        "reality": {"kind": "iid", "probs": [0.5, 0.5]},
        "horizon": 60,
        "seed": 9,
    }
    doc.update(overrides)
    return parse_config(doc)


class TestConfig:
    def test_parse_and_roundtrip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg.to_jsonable()))
        again = load_config(path)
        assert again.to_jsonable() == cfg.to_jsonable()

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            small_config(algorithm="magic")

    def test_rejects_unknown_expert_kind(self):
        with pytest.raises(ConfigError):
            small_config(experts=[{"kind": "psychic"}])

    def test_rejects_bad_reality(self):
        with pytest.raises(ConfigError):
            small_config(reality={"kind": "vibes"})

    def test_ml_requires_evaluators(self):
        with pytest.raises(ConfigError):
            small_config(algorithm="ml-dfa")


class TestRunner:
    def test_zero_horizon_empty(self):
        res = run_scenario(small_config(horizon=0))
        assert res.records == []
        assert res.summary["bound_ok"]

    def test_determinism_byte_identical(self):
        a = trajectory_lines(run_scenario(small_config()))
        b = trajectory_lines(run_scenario(small_config()))
        assert a == b

    def test_seed_changes_trajectory(self):
        a = trajectory_lines(run_scenario(small_config()))
        b = trajectory_lines(run_scenario(small_config(seed=10)))
        assert a != b

    def test_cumulative_fields_are_prefix_sums(self):
        res = run_scenario(small_config())
        total = 0.0
        per_expert = np.zeros(3)
        for rec in res.records:
            total += rec.learner_loss
            per_expert += np.array(rec.expert_losses)
            assert rec.cumulative_learner_loss == pytest.approx(total, rel=1e-12)
            assert np.allclose(rec.cumulative_expert_losses, per_expert, rtol=1e-12)

    def test_aa_dfa_same_seed_predictions_match(self):
        ra = run_scenario(small_config(algorithm="aa", horizon=120))
        rd = run_scenario(small_config(algorithm="dfa", horizon=120))
        worst = max(abs(a.learner_decision[0] - d.learner_decision[0])
                    for a, d in zip(ra.records, rd.records))
        assert worst <= 1e-6

    def test_adversarial_reality_absolute(self):
        cfg = builtin_scenario("absolute-aa", horizon=80)
        res = run_scenario(cfg)
        assert res.summary["bound_ok"]
        # reality always picks the outcome where the learner loses more
        for rec in res.records:
            p = rec.learner_decision[0]
            assert rec.outcome == (1 if p < 0.5 else 0)

    def test_all_builtin_scenarios_short(self):
        for name in ("aa-log-k10", "dfa-log-k10", "absolute-aa", "absolute-dfa",
                     "sg-contrarian-log", "sg-contrarian-log-aa",
                     "ml-log-square-k4", "brier-simplex", "kl-simplex"):
            cfg = builtin_scenario(name, horizon=25)
            res = run_scenario(cfg)
            assert res.summary["bound_ok"], name
            assert len(res.records) == 25

    @pytest.mark.parametrize("algorithm", ["sg-dfa", "sg-aa"])
    def test_sg_adversarial_runs(self, algorithm):
        experts = [{"kind": "sg-contrarian"}, {"kind": "sg-constant", "value": 0.4}]
        res = run_scenario(small_config(algorithm=algorithm, experts=experts,
                                        reality={"kind": "adversarial"}))
        assert res.summary["bound_ok"]


    @pytest.mark.parametrize("seed", [2, 5])
    def test_brier_dfa_simplex_solve_does_not_stall(self, seed):
        cfg = small_config(algorithm="dfa", game={"name": "brier", "m": 3},
                           experts=[{"kind": "iid-random"}, {"kind": "trailing-average"}],
                           reality={"kind": "iid", "probs": [0.2, 0.3, 0.5]},
                           horizon=30, seed=seed)
        assert run_scenario(cfg).bound_ok


class TestAudit:
    def test_verify_matches_runner_margins(self):
        res = run_scenario(small_config())
        steps = [r.to_obj() for r in res.records]
        for t in range(3):
            rep = verify_bound(steps, t, 1.0, 1.0, 1.0 / 3.0)
            assert rep.ok
        worst = max(verify_bound(steps, t, 1.0, 1.0, 1 / 3).worst_margin
                    for t in range(3))
        assert worst == pytest.approx(res.summary["max_bound_margin"], abs=1e-9)

    def test_corrupted_trajectory_detected(self):
        res = run_scenario(small_config())
        steps = [r.to_obj() for r in res.records]
        victim = steps[40]
        victim["cumulative_expert_losses"] = [
            v - 30.0 for v in victim["cumulative_expert_losses"]]
        reports = [verify_bound(steps, t, 1.0, 1.0, 1 / 3) for t in range(3)]
        assert any(not r.ok for r in reports)
        bad = next(r for r in reports if not r.ok)
        assert bad.worst_step == 40

    def test_roundtrip_through_files(self, tmp_path):
        res = run_scenario(small_config())
        paths = write_outputs(res, tmp_path, fmt="both")
        meta, steps = read_trajectory(paths["jsonl"])
        assert meta["config"]["algorithm"] == "aa"
        assert len(steps) == 60
        reports = verify_all(meta, steps)
        assert all(r.ok for r in reports)
        assert paths["csv"].exists()
        header = paths["csv"].read_text().splitlines()[0]
        assert header.startswith("theta,prior,c,eta")

    def test_infinite_losses_serialize_as_strings(self, tmp_path):
        cfg = small_config(experts=[{"kind": "constant", "value": 1.0},
                                    {"kind": "constant", "value": 0.5}],
                           reality={"kind": "fixed", "sequence": [0]}, horizon=5)
        paths = write_outputs(run_scenario(cfg), tmp_path, fmt="jsonl")
        text = paths["jsonl"].read_text()
        assert "Infinity" not in text and '"inf"' in text
        meta, steps = read_trajectory(paths["jsonl"])
        assert all(r.ok for r in verify_all(meta, steps))

    def test_strict_mode_zeroes_allowance(self):
        res = run_scenario(small_config(algorithm="dfa"))
        steps = [r.to_obj() for r in res.records]
        loose = verify_bound(steps, 1, 1.0, 1.0, 1 / 3, strict=False)
        strict = verify_bound(steps, 1, 1.0, 1.0, 1 / 3, strict=True)
        assert strict.worst_margin >= loose.worst_margin


def _num(x) -> float:
    """A recorded number: ``"inf"``, ``"-inf"`` and ``"nan"`` as floats,
    ``null`` as NaN."""
    return math.nan if x is None else float(x)


def reference_bound(trajectory, theta, c, eta, prior, *, strict=False, margin_tol=1e-7):
    """The per-record audit of one expert: its prefix margins one record at
    a time, the worst being the first step with the largest margin, or the
    first whose inputs hold a NaN, a null or a negative value."""
    if prior <= 0.0:
        return BoundReport(ok=True, worst_margin=-math.inf, worst_step=-1, theta=theta)
    penalty = (c / eta) * math.log(1.0 / prior)
    worst, worst_step = -math.inf, -1
    for rec in trajectory:
        cum_l = rec["cumulative_learner_loss"]
        cum_l = _num(cum_l[theta] if isinstance(cum_l, list) else cum_l)
        cum_e = _num(rec["cumulative_expert_losses"][theta])
        slack_log = 0.0 if strict else _num(rec.get("slack_total", 0.0))
        if any(math.isnan(v) or v < 0 for v in (cum_l, cum_e, slack_log)):
            return BoundReport(ok=False, worst_margin=math.nan,
                               worst_step=int(rec["step"]), theta=theta)
        rhs = c * cum_e + penalty + (c / eta) * slack_log
        margin = -math.inf if math.isinf(rhs) else cum_l - rhs
        if margin > worst:
            worst, worst_step = margin, int(rec["step"])
    return BoundReport(ok=bool(worst <= margin_tol), worst_margin=worst,
                       worst_step=worst_step, theta=theta)


def same_report(got, want):
    return (got.ok, got.worst_step, got.theta) == (want.ok, want.worst_step, want.theta) \
        and (got.worst_margin == want.worst_margin
             or math.isnan(got.worst_margin) and math.isnan(want.worst_margin))


def probe_reports(mutate):
    """verify_all on a 50-step ``aa-log-k10`` trajectory after ``mutate``
    edits every record."""
    res = run_scenario(builtin_scenario("aa-log-k10", horizon=50))
    meta, steps = {"config": res.config.to_jsonable()}, [r.to_obj() for r in res.records]
    for rec in steps:
        mutate(rec)
    return verify_all(meta, steps)


class TestColumnarAudit:
    @pytest.mark.parametrize("cfg", [
        builtin_scenario("aa-log-k10", horizon=300),
        builtin_scenario("dfa-log-k10", horizon=100),
        builtin_scenario("ml-log-square-k4", horizon=30),
        small_config(prior=[0.5, 0.0, 0.5], experts=[
            {"kind": "constant", "value": 1.0}, {"kind": "constant", "value": 0.0},
            {"kind": "iid-random"}], reality={"kind": "fixed", "sequence": [0, 1]}),
        small_config(horizon=0),
    ], ids=["aa", "dfa", "ml-dfa", "zero-prior-inf", "empty"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_the_per_record_audit(self, cfg, strict):
        res = run_scenario(cfg)
        meta = {"config": cfg.to_jsonable()}
        steps = [json.loads(json.dumps(r.to_obj())) for r in res.records]
        got = verify_all(meta, steps, strict=strict)
        consts = [(c["c"], c["eta"], c["prior"]) for c in res.summary["bound_constants"]]
        assert len(got) == len(consts)
        for t, (rep, (c, eta, p0)) in enumerate(zip(got, consts)):
            assert same_report(rep, reference_bound(steps, t, c, eta, p0, strict=strict))
            assert same_report(verify_bound(steps, t, c, eta, p0, strict=strict), rep)

    def test_matches_on_tampered_records(self):
        res = run_scenario(small_config(horizon=80))
        steps = [r.to_obj() for r in res.records]
        rng = np.random.default_rng(0)
        for i in rng.choice(80, 12, replace=False).tolist():
            field = ["cumulative_learner_loss", "slack_total"][i % 2]
            steps[i][field] = [None, "nan", "-inf", -1e-9, 1e6, "inf"][i % 6]
        for t in range(3):
            for strict in (False, True):
                assert same_report(verify_bound(steps, t, 1.0, 1.0, 1 / 3, strict=strict),
                                   reference_bound(steps, t, 1.0, 1.0, 1 / 3, strict=strict))

    def test_nan_learner_loss_fails(self):
        reports = probe_reports(lambda rec: rec.update(cumulative_learner_loss="nan"))
        assert not any(r.ok for r in reports) and {r.worst_step for r in reports} == {0}

    def test_nan_slack_total_fails(self):
        reports = probe_reports(lambda rec: rec.update(slack_total="nan",
                                                       cumulative_learner_loss=1e9))
        assert not any(r.ok for r in reports) and {r.worst_step for r in reports} == {0}

    def test_minus_inf_expert_losses_fail(self):
        reports = probe_reports(lambda rec: rec.update(
            cumulative_expert_losses=["-inf"] * len(rec["cumulative_expert_losses"])))
        assert not any(r.ok for r in reports) and {r.worst_step for r in reports} == {0}

    def test_null_and_negative_fail_at_their_step(self):
        res = run_scenario(small_config())
        for field, value in (("cumulative_learner_loss", None), ("slack_total", -1e-12),
                             ("cumulative_learner_loss", -0.5)):
            steps = [r.to_obj() for r in res.records]
            steps[17][field] = value
            reports = [verify_bound(steps, t, 1.0, 1.0, 1 / 3) for t in range(3)]
            assert [(r.ok, r.worst_step) for r in reports] == [(False, 17)] * 3

    def test_an_infinite_expert_loss_bounds_nothing(self):
        reports = probe_reports(lambda rec: rec.update(
            cumulative_expert_losses=["inf"] * len(rec["cumulative_expert_losses"])))
        assert all(r.ok and r.worst_margin == -math.inf and r.worst_step == -1
                   for r in reports)


BRIER_AA = {"game": {"name": "brier", "m": 3}, "algorithm": "aa", "c": 1.5, "eta": 1.0,
            "horizon": 300, "seed": 1,
            "experts": [{"kind": "constant", "value": [0.6, 0.3, 0.1]},
                        {"kind": "constant", "value": [0.1, 0.2, 0.7]},
                        {"kind": "trailing-average"}],
            "reality": {"kind": "iid", "probs": [0.2, 0.3, 0.5]}}


def test_import_does_not_load_scipy():
    """scipy serves only numeric fallbacks, which import it when they run:
    importing the package does not, and neither do brier's closed-form gap
    and substitution or an AA run on brier at c > 1."""
    src = str(Path(expertmix.__file__).parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"""
import sys, numpy as np, expertmix.harness
from expertmix.harness.config import parse_config
from expertmix.harness.runner import run_scenario
from expertmix.losses import builtin_game
rng = np.random.default_rng(0)
for m in range(2, 7):
    G = rng.exponential(1.0, (20, m))
    G[rng.random((20, m)) < 0.3] = np.inf
    G[0] = np.inf
    game = builtin_game("brier", m)
    game.substitution(G)
    for g in G:
        game.substitution(g), game.membership_gap(g)
assert run_scenario(parse_config({BRIER_AA!r})).summary["bound_ok"]
print(sorted(m for m in sys.modules if m.startswith('scipy')))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestDisconnectedFlip:
    def test_linear_regret(self):
        res = run_disconnected_flip(300)
        assert res.summary["expected_failure"]
        assert res.summary["regret"] >= 0.4 * 300
        assert not res.summary["bound_ok"]


class TestCLI:
    def test_run_and_verify(self, tmp_path, capsys):
        cfg = small_config(horizon=30)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_jsonable()))
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worst margin" in out and "ok" in out
        rc = cli_main(["verify", "--trajectory", str(tmp_path / "t.jsonl")])
        assert rc == 0

    def test_run_builtin_override(self, tmp_path):
        rc = cli_main(["run", "--builtin", "aa-log-k10", "--horizon", "20",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "aa-log-k10.jsonl").exists()

    def test_verify_catches_corruption(self, tmp_path, capsys):
        res = run_scenario(small_config(horizon=30))
        paths = write_outputs(res, tmp_path, fmt="jsonl")
        lines = paths["jsonl"].read_text().splitlines()
        rec = json.loads(lines[10])
        rec["cumulative_expert_losses"] = [v - 50 for v in rec["cumulative_expert_losses"]]
        lines[10] = json.dumps(rec, separators=(",", ":"))
        bad_path = tmp_path / "bad.jsonl"
        bad_path.write_text("\n".join(lines) + "\n")
        rc = cli_main(["verify", "--trajectory", str(bad_path)])
        assert rc == 2
        assert "VIOLATED" in capsys.readouterr().out

    def test_check_suites(self, capsys):
        rc = cli_main(["check", "--game", "log", "--m", "2", "--eta", "1.0",
                       "--samples", "200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "proper[log]" in out and "mixability[log" in out

    @pytest.mark.parametrize("args, rc", [
        (["--game", "log", "--eta", "3", "--which", "supermartingale,mixability"], 2),
        (["--game", "log", "--eta", "3", "--which", "mixability"], 2),
        (["--game", "log", "--eta", "3", "--which", "supermartingale"], 2),
        # the absolute simplex lacks relative exp-convexity
        (["--game", "hellinger", "--m", "3", "--which", "expconvexity"], 2),
        # properness has no threshold: it only reports
        (["--game", "log", "--eta", "3", "--which", "proper"], 0),
    ])
    def test_check_fails_with_its_suite(self, args, rc, capsys):
        assert cli_main(["check", *args, "--samples", "200"]) == rc
        assert ("=False" in capsys.readouterr().out) == (rc == 2)

    def test_check_refuses_an_unsupported_game(self, capsys):
        """A game the library has no closed form for at this m ends with one
        line on stderr and exit code 2, not a traceback."""
        rc = cli_main(["check", "--game", "absolute", "--m", "3", "--which", "expconvexity"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unsupported pair" in err

    def test_check_refuses_an_unknown_suite(self, capsys):
        """A misspelt suite name is refused, not skipped into a silent pass."""
        rc = cli_main(["check", "--game", "log", "--which", "mixability,supermartingle"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "supermartingle" in captured.err

    def test_sweep(self, tmp_path, capsys):
        cfg = small_config(horizon=20)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_jsonable()))
        out_csv = tmp_path / "sweep.csv"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--param", "eta",
                       "--values", "0.5,1.0", "--out", str(out_csv)])
        assert rc == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0].startswith("eta,")
        assert len(rows) == 3

    def test_disconnected_flip_cli(self, tmp_path, capsys):
        rc = cli_main(["run", "--builtin", "disconnected-flip",
                       "--horizon", "50", "--out", str(tmp_path)])
        assert rc == 0
        assert "expected failure" in capsys.readouterr().out


class TestStrategies:
    def test_trailing_average_smoothing(self):
        from expertmix.harness.strategies import TrailingAverageExpert
        from expertmix.losses import builtin_game

        ex = TrailingAverageExpert(builtin_game("log", 2), smoothing=1.0)
        assert ex.advise(0, [])[0] == pytest.approx(0.5)
        assert ex.advise(2, [1, 1])[0] == pytest.approx(3.0 / 4.0)

    def test_callback_registry(self):
        from expertmix.harness import strategies as S
        from expertmix.losses import builtin_game

        class Fixed:
            def advise(self, step, past):
                return np.array([0.25])

        S.register_callback("fixed-quarter", Fixed())
        game = builtin_game("log", 2)
        built = S.build_standard_expert(game, {"kind": "callback",
                                               "name": "fixed-quarter"}, None)
        assert built.advise(0, [])[0] == 0.25
