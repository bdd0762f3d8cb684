"""Golden bytes: the JSONL trajectory and CSV summary of every shipped
scenario at a short horizon, and of mixing and forecasting runs several
blocks of rounds long, pinned by sha256.

Criterion 13 compares two runs made in one process; these hashes also
catch a byte change between versions of the code.  A change that moves
any of them must explain each changed field and update the hash on
purpose.
"""

import hashlib

import pytest

from expertmix.harness.config import parse_config
from expertmix.harness.runner import BLOCK_ROUNDS, block_rounds, run_scenario, write_outputs
from expertmix.harness.scenarios import SCENARIOS, builtin_scenario

HORIZON = 200

#: scenario -> (sha256 of the JSONL trajectory, sha256 of the CSV summary)
GOLDEN = {
    "aa-log-k10": ("3f63972e1c3193a78a8e3a93fff0101bda4bdc03b8492dd26b50b5491352758a",
                   "70c32a827d6eb73ae62518bb843ad05455195c3a4f132df73c3a0d514f0c65be"),
    "absolute-aa": ("173830aa37c7fc6f04d9effd7ba0a99c70bcc94604cdea1c8bb20e69aac59719",
                    "69ac7255ca409d8ffa45d6e5c43b786708fb7aa2281907d77619e7d2b11be085"),
    "absolute-dfa": ("90818a1f78bde81f4bcfcc2ebbc7b9ce651d420c29f7c4511b14a25aaee48939",
                     "9454d6c5edb1fcf69206bb7b36ebc103d8924410f9a0d1e893421c809e1cc41e"),
    "brier-simplex": ("186be3686c41ac5ca92cb5ff1ffa0bf27c6935cf6f5fc5b7e268e5429471d9b4",
                      "fad861d93ec3954c2510c07ed428ef0a6d568e0ec81cc7e8b3dbab808cfc2885"),
    "dfa-log-k10": ("961a2605501dd8dda143c994900eea6b268727896b7c8d62ef8d68f5d46cf7c9",
                    "1c02e9296c71ffc3a53727630ecbabe934b817c8a65bd74a651d1aa6db970709"),
    "kl-simplex": ("810381b99204066568ae7d669383d48013777baf312a2e1ebb95aab4a4b045d9",
                   "c4b33f5429076b3128b687de05a09f3e88ee18116fc3524a30e19dc3af3adc43"),
    "ml-log-square-k4": ("61a8e87dae083acec9778657cdb5e3b228ff590ce2b8f5ba8e9735f375226a2a",
                         "ca1b3ac02b232207f6ebfe8f89c276f213742bc0efcd044e6274701fab4fdf23"),
    "sg-contrarian-log": ("e5a74a6a1093a36cb097eb15f6ba7fcc60737f3530435c871b7bf8cd53dca822",
                          "91fbe63335c3a75e70e227ebf7c3d9f5d8a589d197297a49b03452753064c7f2"),
    "sg-contrarian-log-aa": ("10ad21cf90b5b0dd97956899aaab7848950efc9916bf9633de751c024424873e",
                             "c7038a61d6d0735fc82c180d65533c1e2b1948fb334ef18303dfc731dddfd868"),
}


#: runs of several blocks of mixing, forecasting, evaluator or
#: second-guessing rounds, simplex outcomes included (the runner plays them
#: in blocks of ``BLOCK_ROUNDS``), pinned by the hashes the round-by-round
#: runner gave (second-guessing: the runner's blocks of one round):
#: name -> (config, sha256 of the JSONL, sha256 of the CSV)
GOLDEN_BLOCKS = {
    "aa-log-k10": (
        builtin_scenario("aa-log-k10", horizon=1500),
        "502263c6b5cc043afa8d5437601a358d2dc612530dd8cc385ed430c55272842a",
        "71fe78fd3a2540a11bb5ceb617b4e3acfb73d4df0f76cd0e8ff6c18473578580"),
    "aa-mixed-fixed": (
        parse_config({
            "name": "aa-mixed-fixed",
            "game": {"name": "log", "m": 2},
            "algorithm": "aa",
            "eta": 1.0,
            "prior": [0.25, 0.25, 0.5],
            "experts": [{"kind": "constant", "value": 0.3},
                        {"kind": "trailing-average", "smoothing": 0.1},
                        {"kind": "iid-random"}],
            "reality": {"kind": "fixed", "sequence": [0, 1, 1, 0, 1]},
            "horizon": 1000,
            "seed": 17,
        }),
        "261b7b2b9224ca639a68f2376538b8d14f73bb3fbab4592c45e762ba8f734c5c",
        "5334d58f6645b46603b26d0b3dc2082c56bebf7715c6d85778ba4f0862be6fe3"),
    "dfa-log-k10": (
        builtin_scenario("dfa-log-k10", horizon=1000),
        "a2d7878c577d8cc50c3c09ea5ccdf9a64238d286b42f52aa6c2114d01fcce029",
        "f14af7f14c2efd15e8c57f1f758cdc6a38af4737a722545cd11b69ab6b1461ad"),
    "dfa-mixed-fixed": (
        parse_config({
            "name": "dfa-mixed-fixed",
            "game": {"name": "log", "m": 2},
            "algorithm": "dfa",
            "eta": 1.0,
            "prior": [0.25, 0.25, 0.5],
            "experts": [{"kind": "constant", "value": 0.3},
                        {"kind": "trailing-average", "smoothing": 0.1},
                        {"kind": "iid-random"}],
            "reality": {"kind": "fixed", "sequence": [0, 1, 1, 0, 1]},
            "horizon": 1000,
            "seed": 17,
        }),
        "54e0a1d9d58d61798de2a6535f8e07502039f8599d92620fa836da0517798939",
        "421b5219a4c818bef1c015e1a6de2c552baf8aa054c0ae1716f8949d22f6ed50"),
    "brier-simplex": (
        builtin_scenario("brier-simplex", horizon=1000),
        "f2ba654ca26f6cd816d7d341734f7f281a8a09df14df5e6e8e2450f8c7692bc2",
        "f5979d6f5123ca6684d9999f9ed9d6e81b30a0879101731afd4dd4fb66927143"),
    "kl-simplex": (
        builtin_scenario("kl-simplex", horizon=1000),
        "99c91bb08d46476d6e2576d4fa289dc872401159dfddbf297d97c15ccce8c65f",
        "b2499bda8edc9ebe86d62df323d7c5f2e37cadd15f7f499277fa46818531e756"),
    "ml-log-square-k4": (
        builtin_scenario("ml-log-square-k4", horizon=1000),
        "36a1449d7497af075bbc684a5cb27124a23439ab5a3750b12503fe0c2cee0a38",
        "d13fb341b0c535d5425ea3dde10d3b746fc06c5462f1d0a504505c89eb123931"),
    "sg-contrarian-log": (
        builtin_scenario("sg-contrarian-log", horizon=1000),
        "fdcdecd1e42fe79c6428fceb975aafbc54ef9c6f2f8a49045485f40563ad1bbb",
        "dbfd3e820ff0f281f89336842c8e3e48fe690220ab622d439817f92d825d3f81"),
    "sg-contrarian-log-aa": (
        builtin_scenario("sg-contrarian-log-aa", horizon=1000),
        "b8297b38cbfd74af6faf57d37c367502d9bd2f8c499613f0ce39683ef1d79f67",
        "153e2642c35eb88565ea23bcda21a2edf6428ee015ab066ddc27067a628f3918"),
}


def test_every_shipped_scenario_is_pinned():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_bytes_match_golden(name, tmp_path):
    paths = write_outputs(run_scenario(builtin_scenario(name, horizon=HORIZON)),
                          tmp_path, fmt="both")
    got = tuple(hashlib.sha256(paths[kind].read_bytes()).hexdigest()
                for kind in ("jsonl", "csv"))
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_BLOCKS))
def test_blocked_run_bytes_match_golden(name, tmp_path):
    config, jsonl, csv = GOLDEN_BLOCKS[name]
    assert block_rounds(config) == BLOCK_ROUNDS and config.horizon > 3 * BLOCK_ROUNDS
    paths = write_outputs(run_scenario(config), tmp_path, fmt="both")
    assert tuple(hashlib.sha256(paths[kind].read_bytes()).hexdigest()
                 for kind in ("jsonl", "csv")) == (jsonl, csv)
