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
    "aa-log-k10": ("3658395997636fe5bf52f19a150d7a29e6eb79a4674647a9452e29ddf473c8b2",
                   "69432f8e64ce0a9188d601b56a9a8209abbd4b8d6dc20a2178b20721e0010a65"),
    "absolute-aa": ("ba43c2e1c67f9a0e5117fa8add83e6fd260af267dab017758b004a26ded7a6f6",
                    "69ac7255ca409d8ffa45d6e5c43b786708fb7aa2281907d77619e7d2b11be085"),
    "absolute-dfa": ("c4700fdb6d3c59da74eca0b9ec0c2aca6bdd7a56a80169d135240e9230566a15",
                     "ad4b9e2089e6093fe810f28fec6f265d1f43c67a4a5b183b29f243aa677766ce"),
    "brier-simplex": ("96655bd2e1dde2f52bb193ae5188a1dfa33064eb33a981027de384fbad529b11",
                      "f3d71553b0af4621eba4ebc45d37dc9365101ef61a0749a5902aa51d14693c34"),
    "dfa-log-k10": ("f9b180cccaa6859f02328b83d690dd010a744ceff30edf3784821d0382e08507",
                    "574034435a310bce3d30ecd97f7cbbba86539360695b36e7a40653bc21aa29c3"),
    "kl-simplex": ("810381b99204066568ae7d669383d48013777baf312a2e1ebb95aab4a4b045d9",
                   "c4b33f5429076b3128b687de05a09f3e88ee18116fc3524a30e19dc3af3adc43"),
    "ml-log-square-k4": ("61a8e87dae083acec9778657cdb5e3b228ff590ce2b8f5ba8e9735f375226a2a",
                         "ca1b3ac02b232207f6ebfe8f89c276f213742bc0efcd044e6274701fab4fdf23"),
    "sg-contrarian-log": ("0f1ebd94024eae173beb52367b54b2c9dfd7d991bff33a1d7cd510d58199d724",
                          "c7038a61d6d0735fc82c180d65533c1e2b1948fb334ef18303dfc731dddfd868"),
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
        "5657d9a8b0e278091018520746d26180e49435945704488fb3604cb4098bf48a",
        "891990966b89e0f1131221ed69176b11d72bb481db9eb0382cdb9de65fb9356d"),
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
        "19a828479684f758cfc9dba49745d8df373c2b0b49a7383e07b74227b8fd66dc",
        "5334d58f6645b46603b26d0b3dc2082c56bebf7715c6d85778ba4f0862be6fe3"),
    "dfa-log-k10": (
        builtin_scenario("dfa-log-k10", horizon=1000),
        "c24e8043c3ae2ed0abae21f997da79d27d23944e9957e6ee97a8d4794f4c77b2",
        "63314e68a7fbb224b55d74782a631104ee7bfbdf9a240758ed0de872c2caa28f"),
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
        "eeb03c4986d2566a3ef84c72ddb6da58b237408c738426efa4dd167fd3b88ad1",
        "b30bd321699f7eb255b5b32786c9641f307530453038e28c75419bf3aa090e8e"),
    "brier-simplex": (
        builtin_scenario("brier-simplex", horizon=1000),
        "9aca970b88ca99ab594bc4ba519246e3fd45f0e414f9478b5f458c24c39fc4dc",
        "516fb95929758cdbbf14ed1ec03d378611e91b3b8bd1e6dd14974b2a22c6b287"),
    "kl-simplex": (
        builtin_scenario("kl-simplex", horizon=1000),
        "99c91bb08d46476d6e2576d4fa289dc872401159dfddbf297d97c15ccce8c65f",
        "b2499bda8edc9ebe86d62df323d7c5f2e37cadd15f7f499277fa46818531e756"),
    "ml-log-square-k4": (
        builtin_scenario("ml-log-square-k4", horizon=1000),
        "605201913a8d0e6acc8bdbeac92a12c10fb35de2ef0df40c0092697523adf092",
        "a32385c0ad222d6d6b7d1a0da931cecb78e83753a9fb8e2a349617f27d50a77d"),
    "sg-contrarian-log": (
        builtin_scenario("sg-contrarian-log", horizon=1000),
        "32ff1ed85fbee805ec19701c0f228aad693e3f6643e6f19db792a60561ea6554",
        "153e2642c35eb88565ea23bcda21a2edf6428ee015ab066ddc27067a628f3918"),
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
