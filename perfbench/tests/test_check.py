"""The output checker flags what it must and passes what is correct."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402


def _report(command="transfer", **result):
    return {"command": command, "result": result}


def test_numeric_csv_passes(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("k,re,im\r\n0,1.5,-0.0\r\n1,2e-17,nan\r\n")
    assert check.csv_problems(str(path)) == []


def test_np_float64_token_is_flagged(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("k,re,im\r\n0,np.float64(254210.65),np.float64(-0.0)\r\n")
    problems = check.csv_problems(str(path))
    assert len(problems) == 1 and "np.float64(" in problems[0]
    assert check.is_known_defect("arcs_csv_256k", "csv", problems[0])
    assert not check.is_known_defect("gauss_5000", "csv", problems[0])


def test_witness_whose_squares_miss_n_is_flagged():
    good = _report(witness={"n": 3 * 25 + 5 * 49, "primes": [5, 5, 5, 7, 7, 7, 7, 7]})
    assert check.invariants(good) == []
    bad = _report(witness={"n": 3 * 25 + 5 * 49 + 24, "primes": [5, 5, 5, 7, 7, 7, 7, 7]})
    assert any("do not sum" in p for p in check.invariants(bad))


def test_witness_with_composite_is_flagged():
    bad = _report("experiment", sample_witnesses=[{"n": 25 + 81, "primes": [5, 9]}])
    assert any("non-primes [9]" in p for p in check.invariants(bad))


def test_report_oracles_are_checked():
    assert check.invariants(_report("saq", ok=False))
    assert check.invariants(_report("gauss", violations=[[3, 1]]))
    assert check.invariants(_report("sumset-verify", lemma={"failures": [[1, 49]]}))
    assert check.invariants(_report("moments", fourth_moment={"rel_difference": 2e-6}))
    assert not check.invariants(_report("moments", fourth_moment={"rel_difference": 3e-16}))
    assert check.invariants(_report("represent", congruence_scan_violations=[200]))
    assert not check.invariants(_report("represent", congruence_scan_violations=[]))


def test_compare_is_exact_on_integers_and_tolerant_on_floats():
    ref = {"generated_at": "a", "config": {"out": "/x"}, "result": {"c": [1, 2], "x": 1.0}}
    same = {"generated_at": "b", "config": {"out": "/y"}, "result": {"c": [1, 2], "x": 1.0 + 1e-12}}
    assert check.compare(ref, same) == []
    assert check.compare(ref, {**same, "result": {"c": [1, 3], "x": 1.0}})
    assert check.compare(ref, {**same, "result": {"c": [1, 2], "x": 1.001}})
    assert check.compare(ref, {**same, "result": {"c": [1, 2.0], "x": 1.0}})
    assert check.compare(ref, {**same, "result": {"c": [1, 2], "x": 1.0, "extra": 0}})
    assert check.compare({"ok": True}, {"ok": 1})
