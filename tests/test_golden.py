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
    "aa-log-k10": ("19e781181a66e0abf89df8c2fe271737c686e8cb57f801a589658f80508d9bdb",
                   "70c32a827d6eb73ae62518bb843ad05455195c3a4f132df73c3a0d514f0c65be"),
    "absolute-aa": ("173830aa37c7fc6f04d9effd7ba0a99c70bcc94604cdea1c8bb20e69aac59719",
                    "69ac7255ca409d8ffa45d6e5c43b786708fb7aa2281907d77619e7d2b11be085"),
    "absolute-dfa": ("53fbedf1e1b6d05a4d859ab330f273dabf1e52bb1cdf8333d380381bfaccfd17",
                     "ec8660c75efe1ed486d353c4dc50d290850cad6e4a774dc2a16e6c4fe7c03f70"),
    "brier-simplex": ("a66b3fa264d96f33d5875638d1642a6f547365551cd4d4e8f5388b3a7fb8620a",
                      "b74a1d3d7682a066a07809379a78e92e30cec28fae31c0d906df00a7920c3bce"),
    "dfa-log-k10": ("7a18fadf10e86dcb537b5c7082d9cc9d85b52d9804c674a1da85e517877f994e",
                    "b03e45c594ab6614d6d2982aa4f2dc60d02b519ccef1489545e2c4276ba31e17"),
    "kl-simplex": ("810381b99204066568ae7d669383d48013777baf312a2e1ebb95aab4a4b045d9",
                   "c4b33f5429076b3128b687de05a09f3e88ee18116fc3524a30e19dc3af3adc43"),
    "ml-log-square-k4": ("89a73d407969ad61a15b8065d7554fba66ecc50c9dfbfa1b304d9f4b7bb25ab4",
                         "ca1b3ac02b232207f6ebfe8f89c276f213742bc0efcd044e6274701fab4fdf23"),
    "sg-contrarian-log": ("0f1ebd94024eae173beb52367b54b2c9dfd7d991bff33a1d7cd510d58199d724",
                          "c7038a61d6d0735fc82c180d65533c1e2b1948fb334ef18303dfc731dddfd868"),
    "sg-contrarian-log-aa": ("10ad21cf90b5b0dd97956899aaab7848950efc9916bf9633de751c024424873e",
                             "c7038a61d6d0735fc82c180d65533c1e2b1948fb334ef18303dfc731dddfd868"),
}


#: runs of several blocks of mixing or forecasting rounds (the runner plays
#: them in blocks of ``BLOCK_ROUNDS``), pinned by the hashes the
#: round-by-round runner gave: name -> (config, sha256 of the JSONL, sha256
#: of the CSV)
GOLDEN_BLOCKS = {
    "aa-log-k10": (
        builtin_scenario("aa-log-k10", horizon=1500),
        "61a19568d7c24e6b8ab50bff857e98f0ebd76461bd6159afb48ce69ba39295c7",
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
        "77a52aec3a4f66cf513586cf1d88711744cedfebfe0325be57260b12c4ae9fd8",
        "5334d58f6645b46603b26d0b3dc2082c56bebf7715c6d85778ba4f0862be6fe3"),
    "dfa-log-k10": (
        builtin_scenario("dfa-log-k10", horizon=1000),
        "f8026227a96a222545b627163f777c3f51ae6b840c9e96db148665e3cbe78d35",
        "fc86b624386d7c47f03503347cb9c61fd6ae513673fa9bbada579f87c731376b"),
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
        "9b6a79d14337e6e4aa82e8710f15801f001cc98fca906798c3d306c04430b1b0",
        "e125206072429867347554ae19c049c865bef144e753c88bdca59a6aba63b64d"),
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
