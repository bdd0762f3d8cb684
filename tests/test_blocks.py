"""Rounds played in blocks replay rounds played one at a time.

``reference_run`` is the per-round mixing loop: each round the experts
advise, Learner mixes and substitutes, Reality picks, and the session takes
one round's reweigh.  The runner plays the same configs in blocks of
rounds (one cumulative sum for the posterior path, one batched mix and
substitution); its JSONL and summary must be byte-identical, and it must
raise the same error at the same round.  The block draws of the experts
and of Reality must be the single-round draws.
"""

import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expertmix.aggregating import aa_proposal, aa_start, log_semi_invariant
from expertmix.core import log_sum_exp, pair_exponent
from expertmix.errors import AllExpertsDead, SubstitutionFailure
from expertmix.harness import runner
from expertmix.harness.config import parse_config
from expertmix.harness.runner import (BLOCK_ROUNDS, StepRecord, _jsonable, _spawn_rngs,
                                      block_rounds, run_scenario, trajectory_lines)
from expertmix.harness.strategies import (FixedReality, IidRandomExpert, IidReality,
                                          TrailingAverageExpert, build_reality,
                                          build_standard_expert)
from expertmix.losses import builtin_game, realizability_constant


def reference_run(config):
    """The mixing run round by round: its JSONL lines and its summary as
    JSON.  An error is raised with the round it came in as ``step``."""
    expert_rngs, reality_rng = _spawn_rngs(config.seed, len(config.experts))
    reality = build_reality(config.reality, config.m, reality_rng)
    game = builtin_game(config.game, config.m)
    experts = [build_standard_expert(game, s, r) for s, r in zip(config.experts, expert_rngs)]
    state = aa_start(game, eta=config.eta, c=config.c, prior=config.prior,
                     n_experts=len(experts))
    meta = {"type": "meta", "format_version": 1, "config": config.to_jsonable()}
    lines = [json.dumps(meta, separators=(",", ":"))]
    outcomes = []
    max_margin, worst_step = -np.inf, -1
    for n in range(config.horizon):
        decisions = [s.advise(n, outcomes) for s in experts]
        A = np.asarray(game.loss(np.stack(decisions)), dtype=float)
        try:
            p = aa_proposal(state, A)
        except (AllExpertsDead, SubstitutionFailure) as exc:
            exc.step = n
            raise
        w = reality.pick(n, None)
        _, learner_loss, expert_losses = p.score(w)
        # one round's reweigh
        expo = pair_exponent(0.0, expert_losses, state.c, state.eta)
        lw = state.log_weights + np.where(np.isneginf(state.log_weights), 0.0, expo)
        state = replace(state, log_weights=lw, log_value=log_sum_exp(lw),
                        step_count=state.step_count + 1,
                        cumulative_loss=state.cumulative_loss + learner_loss,
                        per_expert_loss=state.per_expert_loss + expert_losses)
        outcomes.append(w)
        margins = list(state.bound_margins())
        if max(margins) > max_margin:
            max_margin, worst_step = max(margins), n
        d = p.decision
        rec = StepRecord(
            step=n, advice=[[float(v) for v in row] for row in decisions],
            learner_pi=[1.0 - float(d[0]), float(d[0])] if game.decision_kind == "box"
            else [float(v) for v in d],
            learner_decision=[float(v) for v in d], outcome=w, learner_loss=learner_loss,
            expert_losses=expert_losses.tolist(), cumulative_learner_loss=state.cumulative_loss,
            cumulative_expert_losses=list(state.per_expert_loss),
            log_supermartingale=log_semi_invariant(state), slack=0.0,
            slack_total=state.slack_log_total, bound_margins=margins)
        lines.append(json.dumps(rec.to_obj(), separators=(",", ":")))
    top = max_margin if config.horizon else 0.0
    summary = {
        "name": config.name, "algorithm": config.algorithm, "game": config.game,
        "m": config.m, "horizon": config.horizon, "seed": config.seed,
        "final_learner_loss": _jsonable(state.cumulative_loss),
        "final_expert_losses": _jsonable(list(state.per_expert_loss)),
        "bound_constants": [{"c": float(state.c), "eta": float(state.eta), "prior": float(p0)}
                            for p0 in state.prior],
        "slack_allowance": _jsonable(state.c / state.eta * state.slack_log_total),
        "max_bound_margin": _jsonable(top), "worst_margin_step": worst_step,
        "bound_ok": bool(top <= 1e-7), "expected_failure": False,
    }
    return lines, json.dumps(summary)


def blocked_run(config):
    res = run_scenario(config)
    return trajectory_lines(res), json.dumps(res.summary)


GAMES = [("log", 2), ("square", 2), ("absolute", 2), ("log", 3), ("brier", 3)]
BOX_VALUES = [0.0, 0.3, 0.5, 1.0]  # log experts at 0 or 1 lose inf
SIMPLEX_VALUES = [[1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [0.0, 0.5, 0.5]]


def _normalized(weights):
    return [w / sum(weights) for w in weights]


@st.composite
def configs(draw):
    name, m = draw(st.sampled_from(GAMES))
    if name == "absolute":  # c = 1 is not realizable: SubstitutionFailure
        c, eta = draw(st.sampled_from([realizability_constant("absolute", 1.0), 1.0])), 1.0
    else:  # brier at c > 1 sends most rows to its slow numeric search
        c = draw(st.sampled_from([1.0] if name == "brier" else [1.0, 1.5]))
        eta = draw(st.sampled_from([0.5, 1.0, 2.0] if name == "square" else [0.5, 1.0]))
    values = BOX_VALUES if m == 2 else SIMPLEX_VALUES
    expert = st.one_of(
        st.sampled_from(values).map(lambda v: {"kind": "constant", "value": v}),
        st.just({"kind": "iid-random"}),
        st.sampled_from([0.1, 0.5, 1.0, 2.5]).map(
            lambda s: {"kind": "trailing-average", "smoothing": s}))
    experts = draw(st.lists(expert, min_size=1, max_size=4))
    weights = st.lists(st.sampled_from([0, 1, 2, 5]), min_size=len(experts),
                       max_size=len(experts)).filter(any)
    prior = draw(st.one_of(st.just("uniform"), weights.map(_normalized)))
    reality = draw(st.one_of(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=6).map(
            lambda seq: {"kind": "fixed", "sequence": seq}),
        st.lists(st.sampled_from([0, 1, 3]), min_size=m, max_size=m).filter(any).map(
            lambda w: {"kind": "iid", "probs": _normalized(w)})))
    return parse_config({
        "name": "blocks", "game": {"name": name, "m": m}, "algorithm": "aa", "c": c,
        "eta": eta, "prior": prior, "experts": experts, "reality": reality,
        "horizon": draw(st.integers(0, 600)), "seed": draw(st.integers(0, 2 ** 32))})


@settings(max_examples=40, deadline=None)
@given(config=configs(), block=st.sampled_from([1, 2, 7, 64, BLOCK_ROUNDS]))
def test_blocks_replay_rounds(config, block):
    with mock.patch.object(runner, "BLOCK_ROUNDS", block):
        assert block_rounds(config) == block
        try:
            want = reference_run(config)
        except (AllExpertsDead, SubstitutionFailure) as exc:
            with pytest.raises(type(exc)) as got:
                blocked_run(config)
            assert str(got.value) == str(exc)
            # every round before the failing one plays through
            before = replace(config, horizon=exc.step)
            assert blocked_run(before) == reference_run(before)
            return
        assert blocked_run(config) == want


def test_dead_and_unrealizable_runs_fail_at_their_round():
    dead = parse_config({
        "game": {"name": "log", "m": 2}, "algorithm": "aa", "horizon": 300, "seed": 1,
        "prior": [1.0, 0.0], "experts": [{"kind": "constant", "value": 1.0},
                                         {"kind": "iid-random"}],
        "reality": {"kind": "fixed", "sequence": [1] * 99 + [0]}})
    unrealizable = parse_config({
        "game": {"name": "absolute", "m": 2}, "algorithm": "aa", "horizon": 300, "seed": 1,
        "experts": [{"kind": "constant", "value": 0.0}, {"kind": "constant", "value": 1.0}],
        "reality": {"kind": "iid"}})
    for config, error, step in ((dead, AllExpertsDead, 100), (unrealizable, SubstitutionFailure, 0)):
        assert block_rounds(config) == BLOCK_ROUNDS
        for horizon in (step + 1, config.horizon):
            with pytest.raises(error):
                blocked_run(replace(config, horizon=horizon))
        assert blocked_run(replace(config, horizon=step)) == \
            reference_run(replace(config, horizon=step))


def test_rounds_that_look_at_learner_play_one_at_a_time():
    base = {"game": {"name": "log", "m": 2}, "algorithm": "aa", "horizon": 5, "seed": 1,
            "experts": [{"kind": "iid-random"}], "reality": {"kind": "iid"}}
    assert block_rounds(parse_config(base)) == BLOCK_ROUNDS
    for change in ({"reality": {"kind": "adversarial"}}, {"algorithm": "dfa"},
                   {"experts": [{"kind": "callback", "name": "x"}]}):
        assert block_rounds(parse_config(base | change)) == 1


# ---------------------------------------------------------------------------
# Block draws


def twin_rngs(seed: int):
    return [np.random.Generator(np.random.PCG64(seed)) for _ in range(2)]


def test_iid_random_block_is_the_single_round_draws():
    for game in (builtin_game("log", 2), builtin_game("log", 3)):  # random, dirichlet
        a, b = twin_rngs(3)
        block = IidRandomExpert(game, a).advise(0, [], size=64)
        one = IidRandomExpert(game, b)
        assert block.shape == (64, game.decision_dim)
        assert np.array_equal(block, np.stack([one.advise(n, []) for n in range(64)]))


def test_iid_reality_block_is_the_single_round_draws():
    for probs in ([0.5, 0.5], [0.0, 1.0], [0.2, 0.0, 0.8], [0.1, 0.3, 0.6]):
        a, b = twin_rngs(5)
        block = IidReality(probs, a).pick(0, None, size=64)
        one = IidReality(probs, b)
        assert block.tolist() == [one.pick(n, None) for n in range(64)]


def test_fixed_reality_block_is_the_single_round_picks():
    reality = FixedReality([2, 0, 1, 1])
    assert reality.pick(3, None, size=9).tolist() == [reality.pick(n, None) for n in range(3, 12)]


def reference_trailing_average(game, smoothing, outcomes):
    """The round-by-round update: each outcome added to the counts in turn."""
    counts, rows = np.full(game.m, float(smoothing)), []
    for n in range(len(outcomes)):
        if n and np.ndim(outcomes[n - 1]) == 0:
            counts[int(outcomes[n - 1])] += 1.0
        elif n:
            counts += outcomes[n - 1]
        freq = counts / counts.sum()
        rows.append(freq[1:] if game.decision_kind == "box" else freq.copy())
    return np.stack(rows)


def test_trailing_average_block_is_the_round_by_round_counts():
    rng = np.random.default_rng(0)
    for game, outcomes in ((builtin_game("log", 2), rng.integers(0, 2, 200).tolist()),
                           (builtin_game("brier", 3), list(rng.dirichlet(np.ones(3), 200)))):
        one, blocks = TrailingAverageExpert(game, 0.1), TrailingAverageExpert(game, 0.1)
        want = reference_trailing_average(game, 0.1, outcomes)
        assert np.array_equal(np.stack([one.advise(n, outcomes[:n]) for n in range(200)]), want)
        got, n = [], 0
        for size in (1, 5, 64, 1, 100, 29):
            got.append(blocks.advise(n, outcomes[:n + size - 1], size=size))
            n += size
        assert np.array_equal(np.concatenate(got), want)
