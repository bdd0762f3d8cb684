"""Parse-time rejection of configurations the runner cannot serve, and one
short run of every (algorithm, reality) pair it accepts."""

import pytest

from expertmix.errors import ConfigError
from expertmix.harness.config import SUPPORTED_REALITIES, parse_config
from expertmix.harness.runner import run_scenario
from expertmix.harness.strategies import AdversarialReality

REALITIES = {
    "iid": {"kind": "iid", "probs": [0.5, 0.5]},
    "fixed": {"kind": "fixed", "sequence": [0, 1, 1]},
    "adversarial": {"kind": "adversarial"},
    "dirichlet": {"kind": "dirichlet", "alpha": 1.0},
}

SG_EXPERTS = [{"kind": "sg-contrarian"}, {"kind": "sg-constant", "value": 0.5}]
IID_EXPERTS = [{"kind": "iid-random"}, {"kind": "iid-random"}]
SETUPS = {
    "aa": {"experts": IID_EXPERTS},
    "dfa": {"experts": IID_EXPERTS},
    "sg-dfa": {"experts": SG_EXPERTS},
    "sg-aa": {"experts": SG_EXPERTS},
    "ml-dfa": {"experts": IID_EXPERTS,
               "evaluators": [{"loss": "log", "eta": 1.0, "c": 1.0},
                              {"loss": "square", "eta": 2.0, "c": 1.0}]},
    "simplex-dfa": {"game": {"name": "brier", "m": 3},
                    "experts": [{"kind": "constant", "value": [1 / 3, 1 / 3, 1 / 3]},
                                {"kind": "constant", "value": [1.0, 0.0, 0.0]}]},
}


def doc(algorithm: str, reality: str, /, **overrides) -> dict:
    out = {"name": "pair", "game": {"name": "log", "m": 2}, "algorithm": algorithm,
           "reality": REALITIES[reality], "horizon": 4, "seed": 3}
    out.update(SETUPS[algorithm])
    out.update(overrides)
    return out


PAIRS = [(a, r) for a in SUPPORTED_REALITIES for r in REALITIES]
SERVED = [(a, r) for a, r in PAIRS if r in SUPPORTED_REALITIES[a]]
REFUSED = [(a, r) for a, r in PAIRS if r not in SUPPORTED_REALITIES[a]]


@pytest.mark.parametrize("algorithm,reality", REFUSED)
def test_unserved_reality_rejected_at_parse_time(algorithm, reality):
    with pytest.raises(ConfigError, match="runs with reality"):
        parse_config(doc(algorithm, reality))


@pytest.mark.parametrize("algorithm,reality", SERVED)
def test_served_pair_runs(algorithm, reality):
    res = run_scenario(parse_config(doc(algorithm, reality)))
    assert len(res.records) == 4
    assert res.summary["bound_ok"]


def test_adversarial_reality_needs_the_prediction():
    with pytest.raises(ValueError):
        AdversarialReality().pick(0, None)


def test_ml_prior_rejected():
    with pytest.raises(ConfigError, match="ml-dfa"):
        parse_config(doc("ml-dfa", "iid", prior=[0.7, 0.3]))
    assert parse_config(doc("ml-dfa", "iid", prior="uniform")).prior is None


@pytest.mark.parametrize("prior", [[1.0], [0.5, 0.25, 0.25], [1.2, -0.2],
                                   [0.5, 0.4], ["a", "b"]])
def test_bad_prior_rejected(prior):
    with pytest.raises(ConfigError, match="prior"):
        parse_config(doc("aa", "iid", prior=prior))


def test_prior_with_zero_entry_accepted():
    cfg = parse_config(doc("dfa", "iid", prior=[0.0, 1.0]))
    assert run_scenario(cfg).summary["bound_ok"]


#: configs the runner cannot build, each refused by parse_config
UNBUILDABLE = [
    ("aa", {"game": {"name": "square", "m": 3}}),
    ("aa", {"game": {"name": "psychic", "m": 2}}),
    ("aa", {"game": {"name": "log", "m": 1}}),
    ("dfa", {"game": {"name": "log", "m": 2.0}}),
    ("dfa", {"game": {"name": "log", "m": "2"}}),
    ("ml-dfa", {"evaluators": [{"loss": "psychic", "eta": 1.0, "c": 1.0}]}),
    ("ml-dfa", {"game": {"name": "log", "m": 3},
                "evaluators": [{"loss": "square", "eta": 2.0, "c": 1.0}]}),
    ("simplex-dfa", {"game": {"name": "log", "m": 3}}),
    ("aa", {"experts": SG_EXPERTS}),
    ("dfa", {"experts": SG_EXPERTS}),
    ("ml-dfa", {"experts": SG_EXPERTS}),
    ("simplex-dfa", {"experts": [{"kind": "sg-identity"}]}),
    ("sg-dfa", {"experts": IID_EXPERTS}),
    ("sg-aa", {"experts": [{"kind": "iid-random"}, {"kind": "sg-identity"}]}),
    ("sg-dfa", {"game": {"name": "log", "m": 3}}),
    ("aa", {"c": 0.5}),
    ("dfa", {"eta": 0.0}),
    ("sg-aa", {"eta": -1.0}),
    ("sg-dfa", {"c": 0.99}),
    ("simplex-dfa", {"c": 0.9}),
    ("aa", {"eta": float("inf")}),
    ("aa", {"c": float("inf")}),
    ("aa", {"c": True}),
    ("ml-dfa", {"eta": float("inf")}),
    ("sg-aa", {"eta": 2.0}),
    ("sg-aa", {"game": {"name": "hellinger", "m": 3}, "reality": {"kind": "iid"},
               "experts": [{"kind": "sg-identity"},
                           {"kind": "sg-constant", "value": [0.6, 0.3, 0.1]}]}),
]


@pytest.mark.parametrize("algorithm,overrides", UNBUILDABLE)
def test_unbuildable_config_rejected_at_parse_time(algorithm, overrides):
    reality = SUPPORTED_REALITIES[algorithm][0]
    with pytest.raises(ConfigError):
        parse_config(doc(algorithm, reality, **overrides))


@pytest.mark.parametrize("algorithm,overrides", UNBUILDABLE[-2:],
                         ids=["log-eta-2", "hellinger-m3"])
def test_sg_aa_without_a_retraction_rule_refused(algorithm, overrides):
    # log is mixable up to eta 1, and hellinger at no eta; neither has a hull rule
    with pytest.raises(ConfigError, match="needs a retraction rule"):
        parse_config(doc(algorithm, "iid", **overrides))


def test_ml_constants_live_on_the_evaluators():
    assert parse_config(doc("ml-dfa", "iid", c=0.5, eta=0.0)).algorithm == "ml-dfa"


@pytest.mark.parametrize("solver", [
    {"tol": 0}, {"tol": -1e-9}, {"tol": 1e-17}, {"tol": float("nan")},
    {"tol": float("inf")}, {"tol": "nan"}, {"tol": True}, {"epsilon": -1e-6},
    {"epsilon": float("nan")}, {"epsilon": None}, {"tolerance": 1e-9},
    {"tol": 10 ** 400}, {"epsilon": -(10 ** 400)},
])
def test_bad_solver_settings_rejected(solver):
    with pytest.raises(ConfigError, match="solver"):
        parse_config(doc("dfa", "iid", solver=solver))


def test_solver_settings_at_their_floors_accepted():
    cfg = parse_config(doc("dfa", "iid", solver={"tol": 2.0 ** -52, "epsilon": 0}))
    assert cfg.solver == {"tol": 2.0 ** -52, "epsilon": 0}
    assert run_scenario(cfg).summary["bound_ok"]


#: reality specs each refused at parse time, with what goes wrong without
#: the check: a crash deep in the run, or a run that scores the wrong thing
BAD_REALITIES = [
    {"kind": "fixed"},  # KeyError in the run
    {"kind": "fixed", "sequence": []},  # ZeroDivisionError in the run
    {"kind": "fixed", "sequence": [0, -1]},  # records -1, scores outcome 1
    {"kind": "fixed", "sequence": [0, 2]},  # IndexError in the run
    {"kind": "fixed", "sequence": [0.5, 1]},  # truncated to [0, 1]
    {"kind": "fixed", "sequence": [True, 0]},
    {"kind": "fixed", "sequence": "01"},
    {"kind": "iid", "probs": [1.0]},
    {"kind": "iid", "probs": [0.2, 0.3, 0.5]},
    {"kind": "iid", "probs": [1.5, -0.5]},
    {"kind": "iid", "probs": [0.5, 0.6]},
    {"kind": "iid", "probs": [0.5, 0.5 + 1e-8]},
    {"kind": "iid", "probs": ["a", "b"]},
]


@pytest.mark.parametrize("reality", BAD_REALITIES)
def test_bad_reality_spec_rejected(reality):
    bad = doc("aa", "iid") | {"reality": reality}
    with pytest.raises(ConfigError, match="reality"):
        parse_config(bad)


#: (game, expert spec) pairs each refused at parse time
BAD_EXPERTS = [
    ({"name": "log", "m": 2}, {"kind": "constant"}),  # KeyError in the run
    ({"name": "log", "m": 2}, {"kind": "constant", "value": [0.3, 0.4]}),
    ({"name": "log", "m": 2}, {"kind": "constant", "value": 1.5}),  # AllExpertsDead
    ({"name": "log", "m": 2}, {"kind": "constant", "value": -0.1}),
    ({"name": "log", "m": 2}, {"kind": "constant", "value": "0.5"}),
    ({"name": "log", "m": 3}, {"kind": "constant", "value": [0.5, 0.5]}),
    ({"name": "log", "m": 3}, {"kind": "constant", "value": [0.5, 0.6, -0.1]}),
    ({"name": "brier", "m": 3}, {"kind": "constant", "value": [0.5, 0.5, 0.5]}),
    ({"name": "log", "m": 2}, {"kind": "trailing-average", "smoothing": 0}),  # NaN advice
    ({"name": "log", "m": 2}, {"kind": "trailing-average", "smoothing": -1.0}),
    ({"name": "log", "m": 2}, {"kind": "trailing-average", "smoothing": float("inf")}),
]


@pytest.mark.parametrize("game,expert", BAD_EXPERTS)
def test_bad_expert_spec_rejected(game, expert):
    m = game["m"]
    bad = doc("aa", "iid", game=game, experts=[expert, {"kind": "iid-random"}]) | {
        "reality": {"kind": "iid", "probs": [1.0 / m] * m}}
    with pytest.raises(ConfigError, match=expert["kind"]):
        parse_config(bad)


def test_bad_sg_constant_rejected():
    with pytest.raises(ConfigError, match="sg-constant"):
        parse_config(doc("sg-aa", "iid",
                         experts=[{"kind": "sg-contrarian"}, {"kind": "sg-constant", "value": 1.5}]))


@pytest.mark.parametrize("reality,expert", [
    ({"kind": "fixed", "sequence": [1, 0, 2]}, {"kind": "constant", "value": [0.2, 0.3, 0.5]}),
    ({"kind": "iid", "probs": [0.0, 0.25, 0.75]}, {"kind": "trailing-average", "smoothing": 0.1}),
    ({"kind": "iid"}, {"kind": "constant", "value": [1, 0, 0]}),
])
def test_good_specs_accepted(reality, expert):
    cfg = parse_config(doc("aa", "iid", game={"name": "log", "m": 3},
                           experts=[expert, {"kind": "iid-random"}]) | {"reality": reality})
    assert run_scenario(cfg).summary["bound_ok"]


#: forecasting configs at c != 1 on games that supply no hull proper loss;
#: a c != 1 session scores with the hull proper loss pushed to the boundary
NO_HULL_LOSS = [
    ("dfa", "iid", {"c": 1.5}),
    ("dfa", "iid", {"game": {"name": "square", "m": 2}, "c": 2.0}),
    ("dfa", "fixed", {"game": {"name": "log", "m": 3}, "c": 1.5}),
    ("dfa", "fixed", {"game": {"name": "brier", "m": 3}, "c": 1.5}),
    ("sg-dfa", "iid", {"c": 1.5}),
    ("ml-dfa", "iid", {"evaluators": [{"loss": "log", "eta": 1.0, "c": 1.5}]}),
    ("ml-dfa", "iid", {"evaluators": [{"loss": "absolute", "eta": 1.0, "c": 1.5},
                                      {"loss": "square", "eta": 2.0, "c": 1.2}]}),
    ("simplex-dfa", "dirichlet", {"c": 1.5}),
]


@pytest.mark.parametrize("algorithm,reality,overrides", NO_HULL_LOSS)
def test_forecasting_without_a_hull_proper_loss_refused(algorithm, reality, overrides):
    with pytest.raises(ConfigError, match="hull proper loss"):
        parse_config(doc(algorithm, reality, **overrides))


def test_forecasting_with_a_hull_proper_loss_accepted():
    absolute = {"game": {"name": "absolute", "m": 2}, "c": 1.5}
    assert run_scenario(parse_config(doc("dfa", "iid", **absolute))).summary["bound_ok"]
    evaluators = [{"loss": "absolute", "eta": 1.0, "c": 1.5}]
    assert parse_config(doc("ml-dfa", "iid", evaluators=evaluators)).evaluators == evaluators


@pytest.mark.parametrize("evaluator", [{"loss": "log", "c": "1.5"},
                                       {"loss": "log", "eta": float("nan")},
                                       {"loss": "log", "eta": 0.0},
                                       {"loss": "absolute", "c": 0.5}])
def test_bad_evaluator_constants_rejected(evaluator):
    with pytest.raises(ConfigError, match="evaluator c and eta"):
        parse_config(doc("ml-dfa", "iid", evaluators=[evaluator]))
