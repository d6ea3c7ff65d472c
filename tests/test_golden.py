"""Golden reports: the stdout JSON of fixed small runs, byte for byte.

Each file under tests/golden/ is a command's report with its generated_at
line dropped.  The reports hold only ints, strings and correctly rounded
floats (square roots, integer ratios, Python float arithmetic), so every
supported numpy gives the same bytes.  Each report must also parse as strict
JSON, with no NaN or Infinity.  SIDECARS pins CSV sidecars the same way, by
the command that writes them with --out.
"""

import json
import os

import pytest

from psqlab.cli import run

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    "context_w4": "context --w 4",
    "context_w6": "context --w 6",
    "context_w8": "context --w 8",
    "sumset_verify_w6": "sumset-verify --w 6",
    "sumset_verify_w8": "sumset-verify --w 8",
    "represent_all_check": "represent --s 8 --limit 100000 --spec all --check",
    "represent_res5_check": "represent --s 10 --limit 100000 --spec residues:5:1,4 --check",
    "experiment_all": "experiment --s 8 --n-lo 5000 --n-hi 1000000 --spec all",
    "experiment_res5": "experiment --s 10 --n-lo 5000 --n-hi 100000 --spec residues:5:1,4",
    "experiment_bern": "experiment --s 8 --n-lo 5000 --n-hi 1000000 --spec bernoulli:0.9:7",
    "experiment_s5": "experiment --s 5 --n-lo 100 --n-hi 20000 --spec all",
    "transfer_w6": "transfer --w 6 --n 48008 --s 8",
    "transfer_w6_bern": "transfer --w 6 --n 48008 --s 8 --spec bernoulli:0.5:7",
    "transfer_w6_small": "transfer --w 6 --n 1448 --s 8",
    "transfer_w6_window": "transfer --w 6 --n 200 --s 8",
    # the largest in-budget transfer and a high-range experiment, whose
    # witnesses come from lex_smallest_sum at its largest in-budget targets
    "transfer_w6_1e9": "transfer --w 6 --n 1000000016 --s 8",
    "experiment_all_2e8": "experiment --s 8 --n-lo 190000000 --n-hi 200000000 --spec all",
    "experiment_explicit": "experiment --s 8 --n-lo 200 --n-hi 3000 --spec explicit:5,7,11,13",
    "experiment_res5_json": "experiment --s 10 --n-lo 5000 --n-hi 30000 --spec "
    '{"variant":"residue_classes","modulus":5,"classes":[1,4],"min_prime":7}',
    "experiment_bern_json": "experiment --s 8 --n-lo 5000 --n-hi 200000 --spec "
    '{"variant":"bernoulli_sample","rho":0.8,"seed":3}',
    "experiment_bern_seed": "experiment --s 8 --n-lo 5000 --n-hi 200000 --spec bernoulli:0.6 --seed 9",
}

# sidecar file name -> the command that writes it, given --out with the
# name's first part and .json: represent_res5_csv.json here
SIDECARS = {
    "represent_res5_csv.counts.csv": "represent --s 10 --limit 200000 --spec residues:5:1,4 --check --csv",
    # counts past 2^63, held as Python ints (object dtype)
    "represent_s30_csv.counts.csv": "represent --s 30 --limit 30000 --csv",
    # 2 and 3 admitted: the squares' progression has step 1
    "represent_step1_csv.counts.csv": "represent --s 5 --limit 3000 --n-lo 0 --spec "
    '{"variant":"all","min_prime":2} --check --csv',
}


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_every_golden_file_has_a_case():
    assert sorted([f"{name}.json" for name in CASES] + list(SIDECARS)) == sorted(os.listdir(GOLDEN))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name, capsys):
    assert run(CASES[name].split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    got = "".join(
        line for line in out.splitlines(True) if not line.startswith('  "generated_at": ')
    )
    json.loads(out, parse_constant=_reject_constant)  # no NaN or Infinity
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="ascii", newline="") as fh:
        assert got == fh.read()


@pytest.mark.parametrize("name", sorted(SIDECARS))
def test_sidecar_matches_golden_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(SIDECARS[name].split() + ["--out", name.partition(".")[0] + ".json"]) == 0
    assert capsys.readouterr() == ("", "")
    with open(os.path.join(GOLDEN, name), "rb") as want, open(name, "rb") as got:
        assert got.read() == want.read()
