import csv
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import gauss_row_gcd
from psqlab._csvio import write_csv
from psqlab.arith import factorize
from psqlab.cli import _parse_spec, run
from psqlab.expsums import MAX_GAUSS_MODULUS
from psqlab.primes import PrimeSubsetSpec


def load(path):
    with open(path) as fh:
        return json.load(fh)


def gauss_result_gcd(kmax, csv_path):
    """The gauss handler's loop as it was with np.gcd unit tests, before unit_mask."""
    violations = []
    worst = 0.0
    rows = []
    for k in range(1, kmax + 1):
        if k % 2 == 0:
            continue
        fac = factorize(k)
        if not fac.is_squarefree():
            continue
        bound = (2 ** len(fac.prime_powers)) * math.sqrt(k)
        row = gauss_row_gcd(k)
        rs = np.arange(k)
        units = rs[np.gcd(rs, k) == 1] if k > 1 else np.array([0])
        mags = np.abs(row[units])
        worst = max(worst, float(np.max(mags) / bound))
        rows.append((k, float(np.max(mags)), bound))
        violations.extend((k, int(r)) for r in units[mags > bound + 1e-9])

    def g(k, r):
        ls = np.arange(1, k + 1, dtype=np.int64)
        ls = ls[np.gcd(ls, k) == 1]
        z = complex(np.sum(np.exp(2j * np.pi * ((r * ls * ls) % k) / k)))
        return [z.real, z.imag]

    write_csv(csv_path, ["k", "max_abs", "bound"], list(zip(*rows)))
    return {
        "kmax": kmax,
        "reference": {"G(1,1)": [1.0, 0.0], "G(3,1)": g(3, 1), "G(5,1)": g(5, 1)},
        "max_ratio_to_bound": worst,
        "violations": [list(v) for v in violations],
    }


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper recording each call's arguments."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def fft_length(args):
    """The transform length of a recorded np.fft.fft(a) or np.fft.fft(a, n) call."""
    return args[1] if len(args) > 1 else len(args[0])


class TestSpecParsing:
    def test_default_is_all(self):
        assert _parse_spec(None, None) == PrimeSubsetSpec.all_primes()
        assert _parse_spec("all", None) == PrimeSubsetSpec.all_primes()

    def test_inline_residues(self):
        spec = _parse_spec("residues:11:1,2,3,4,5,6,7,8,9,10", None)
        assert spec == PrimeSubsetSpec.residue_classes(11, range(1, 11))

    def test_inline_bernoulli_with_fallback_seed(self):
        spec = _parse_spec("bernoulli:0.9", 17)
        assert spec == PrimeSubsetSpec.bernoulli(0.9, 17)
        spec = _parse_spec("bernoulli:0.9:3", 17)
        assert spec.seed == 3

    def test_inline_explicit(self):
        assert _parse_spec("explicit:5,7,11", None).primes == (5, 7, 11)

    def test_json_form(self):
        blob = json.dumps({"variant": "bernoulli_sample", "rho": 0.5, "seed": 1})
        assert _parse_spec(blob, None) == PrimeSubsetSpec.bernoulli(0.5, 1)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            _parse_spec("nonsense:1", None)

    @given(
        st.one_of(
            st.text(),
            st.builds(
                str.__add__,
                st.sampled_from(["all", "residues:", "bernoulli:", "explicit:", "{", " {"]),
                st.text(),
            ),
        ),
        st.none() | st.integers(),
    )
    @example("residues:0:1", None)
    def test_arbitrary_text_parses_or_raises_value_error(self, text, seed):
        try:
            assert isinstance(_parse_spec(text, seed), PrimeSubsetSpec)
        except ValueError:
            pass

    # JSON scalars and small containers of every type, NaN and +-Infinity included
    _json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    )

    @given(
        st.sampled_from(["all", "residue_classes", "bernoulli_sample", "explicit_list"])
        | _json_values,
        st.dictionaries(
            st.sampled_from(["modulus", "classes", "rho", "seed", "primes", "min_prime"]),
            _json_values,
        ),
    )
    def test_mistyped_json_fields_parse_or_raise_value_error(self, variant, fields):
        blob = json.dumps({"variant": variant, **fields})
        try:
            assert isinstance(_parse_spec(blob, None), PrimeSubsetSpec)
        except ValueError:
            pass


class TestExitCodes:
    def test_usage_error_missing_args(self, capsys):
        assert run(["saq"]) == 2

    def test_usage_error_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_library_error_maps_to_usage(self, capsys, tmp_path):
        # arc parameters violating N > 2 Q^2
        assert run(["arcs", "--N", "16384", "--A", "2.0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            "residues:0:1",
            '{"variant": "residue_classes"}',
            '{"variant": "bernoulli_sample", "rho": 0.5, "seed": null}',
            '{"variant": "all", "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ],
        ids=["zero-modulus", "missing-modulus", "null-seed", "deep-nesting"],
    )
    def test_malformed_spec_exits_two(self, spec, capsys):
        assert run(["represent", "--s", "8", "--limit", "1000", "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("psqlab: error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pseudo", "--N", "0"],
            ["pseudo", "--N", "4096", "--K", "0"],
            ["moments", "--w", "6", "--N", "0"],
            ["arcs", "--N", "1", "--w", "6"],
        ],
        ids=["pseudo-N0", "pseudo-K0", "moments-N0", "arcs-N1"],
    )
    def test_empty_grid_or_arcs_exit_two(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("psqlab: error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            # K * N = 2^26 points, past MAX_GRID = 2^25
            ["pseudo", "--N", str(1 << 24), "--K", "4"],
            # lq_moment's K * N = 2^25 fits; the padded fourth-moment FFT needs 2^26
            ["moments", "--w", "4", "--N", str(1 << 24), "--K", "2"],
        ],
        ids=["pseudo", "moments"],
    )
    def test_past_grid_budget_exits_two_before_allocating(self, argv, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("a grid was built past the budget")

        monkeypatch.setattr(np, "exp", unreachable)
        monkeypatch.setattr(np.fft, "fft", unreachable)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "exceeds bound 33554432" in err and "Traceback" not in err

    def test_check_failure_is_exit_one(self, tmp_path, monkeypatch):
        import psqlab.cli as cli_mod

        def broken(ctx, b, q, a):
            from psqlab.expsums import LocalFactor

            return LocalFactor(q=q, a=a, value=123 + 0j, case_tag="coprime")

        monkeypatch.setattr(cli_mod, "s_closed", broken)
        out = tmp_path / "bad.json"
        assert run(["saq", "--w", "4", "--qmax", "5", "--check", "--out", str(out)]) == 1


class TestContextCommand:
    def test_fields(self, tmp_path, capsys):
        out = tmp_path / "ctx.json"
        assert run(["context", "--w", "6", "--out", str(out)]) == 0
        blob = load(out)
        assert blob["command"] == "context"
        assert blob["log_base_for_Q"] == "e"
        ctx = blob["result"]["context"]
        assert (ctx["W"], ctx["H"], ctx["Z"]) == (120, 16, [1, 49])

    def test_stdout_when_no_out(self, capsys):
        assert run(["context", "--w", "4"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["context"]["W"] == 24


class TestChecks:
    def test_saq_check_passes(self, tmp_path):
        out = tmp_path / "saq.json"
        assert run(["saq", "--w", "4", "--b", "1", "--qmax", "30", "--check", "--out", str(out)]) == 0
        assert load(out)["result"]["max_abs_difference"] < 1e-9

    def test_gauss_check_passes(self, tmp_path):
        out = tmp_path / "gauss.json"
        assert run(["gauss", "--kmax", "99", "--check", "--out", str(out)]) == 0
        blob = load(out)
        assert blob["result"]["violations"] == []
        assert os.path.exists(blob["result"]["csv"])

    def test_gauss_bytes_equal_gcd_loop(self, tmp_path):
        out = tmp_path / "gauss.json"
        assert run(["gauss", "--kmax", "999", "--check", "--out", str(out)]) == 0
        result = load(out)["result"]
        csv_path = result.pop("csv")
        want_csv = tmp_path / "want.csv"
        want = gauss_result_gcd(999, want_csv)
        assert json.dumps(result, sort_keys=True) == json.dumps(want, sort_keys=True)
        with open(csv_path, "rb") as got_fh, open(want_csv, "rb") as want_fh:
            assert got_fh.read() == want_fh.read()

    def test_gauss_kmax_past_bound_exits_two_before_loop(self, monkeypatch, capsys):
        import psqlab.cli as cli_mod

        def no_loop(k):
            raise AssertionError("the gauss loop started past the bound")

        monkeypatch.setattr(cli_mod, "factorize", no_loop)
        assert run(["gauss", "--kmax", str(MAX_GAUSS_MODULUS + 1)]) == 2
        err = capsys.readouterr().err
        assert "--kmax" in err and "Traceback" not in err

    def test_sumset_verify(self, tmp_path):
        out = tmp_path / "lemma.json"
        assert run(["sumset-verify", "--w", "8", "--out", str(out)]) == 0
        lemma = load(out)["result"]["lemma"]
        assert lemma["failures"] == []
        assert lemma["subsets_checked"] == 22


class TestRepresentAndTransfer:
    def test_represent_small(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(
            ["represent", "--s", "8", "--limit", "20000", "--spec", "all", "--check", "--out", str(out)]
        )
        assert code == 0
        result = load(out)["result"]
        assert result["exceptions"] == []
        assert result["congruence_scan_violations"] == []

    def test_check_fails_on_off_lattice_and_dropped_counts(self, tmp_path, monkeypatch):
        import psqlab.cli as cli_mod
        from psqlab.representations import ReprCountTable

        real = cli_mod.count_representations

        def corrupted(*args):
            counts = real(*args).counts.copy()
            assert counts[100] == 1 and counts[101] == 0  # 100 = 4 * 5^2; 101 = 5 (mod 24)
            counts[100] = 0  # a dropped count, on the lattice
            counts[101] = 1  # a count off the lattice
            return ReprCountTable(counts=counts)

        monkeypatch.setattr(cli_mod, "count_representations", corrupted)
        out = tmp_path / "rep.json"
        argv = ["represent", "--s", "4", "--limit", "3000", "--check", "--out", str(out)]
        assert run(argv) == 1
        assert load(out)["result"]["congruence_scan_violations"] == [100, 101]

    def test_check_window_starts_at_least_representable_n(self, tmp_path, monkeypatch):
        # at s = 200 nothing below 200 * 5^2 = 5000 is representable, so a
        # window from n = 0 would hold only zeros on both sides
        import psqlab.cli as cli_mod
        from psqlab.representations import ReprCountTable

        real = cli_mod.count_representations

        def corrupted(*args):
            counts = real(*args).counts.copy()
            assert counts[5000] == 1 and not counts[:5000].any()
            counts[5000] = 0  # dropped: the only representation is all 5^2
            counts[4976] = 1  # on the lattice, but below every sum of 200 squares
            return ReprCountTable(counts=counts)

        monkeypatch.setattr(cli_mod, "count_representations", corrupted)
        out = tmp_path / "rep.json"
        argv = ["represent", "--s", "200", "--limit", "6000", "--check", "--out", str(out)]
        assert run(argv) == 1
        assert load(out)["result"]["congruence_scan_violations"] == [4976, 5000]

    def test_limit_below_default_n_lo_exits_two(self, capsys):
        assert run(["represent", "--s", "40", "--limit", "0", "--spec", "all", "--csv"]) == 2
        err = capsys.readouterr().err
        assert "--limit 0" in err and "--n-lo 25 * s = 1000" in err
        assert "empty range" not in err and "Traceback" not in err

    def test_explicit_n_lo_above_limit_keeps_range_error(self, capsys):
        assert run(["represent", "--s", "40", "--limit", "0", "--n-lo", "1000"]) == 2
        assert "empty range (1000, 0)" in capsys.readouterr().err

    def test_transfer_found(self, tmp_path):
        out = tmp_path / "tr.json"
        assert run(["transfer", "--w", "4", "--n", "10016", "--out", str(out)]) == 0
        result = load(out)["result"]
        assert result["status"] == "found"
        witness = result["witness"]
        assert sum(p * p for p in witness["primes"]) == 10016

    def test_transfer_infeasible_reported(self, tmp_path):
        out = tmp_path / "tr2.json"
        code = run(
            ["transfer", "--w", "4", "--n", "10016", "--spec", "explicit:", "--out", str(out)]
        )
        assert code == 0
        assert load(out)["result"]["status"] == "infeasible"


class TestReports:
    def test_reproducible_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["pseudo", "--N", "4096", "--K", "2", "--w-list", "4", "--out", str(a)])
        run(["pseudo", "--N", "4096", "--K", "2", "--w-list", "4", "--out", str(b)])

        def strip(path):
            return [
                line
                for line in path.read_text().splitlines()
                if "generated_at" not in line and str(tmp_path) not in line
            ]

        assert strip(a) == strip(b)

    def test_config_embedded(self, tmp_path):
        out = tmp_path / "cfg.json"
        run(["moments", "--w", "4", "--N", "1024", "--out", str(out)])
        blob = load(out)
        assert blob["config"]["w"] == 4
        assert blob["config"]["N"] == 1024
        assert blob["version"]

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSQ_LAB_THREADS", "3")
        out = tmp_path / "ctx.json"
        run(["context", "--w", "4", "--out", str(out)])
        assert load(out)["config"]["threads_resolved"] == 3

    def test_no_partial_file_on_unwritable_path(self, tmp_path):
        missing = tmp_path / "no_such_dir" / "x.json"
        code = run(["context", "--w", "4", "--out", str(missing)])
        assert code == 2
        assert not missing.exists()

    def test_arcs_with_model(self, tmp_path):
        out = tmp_path / "arcs.json"
        code = run(
            ["arcs", "--N", "65536", "--A", "2.0", "--w", "4", "--qmax", "5", "--K", "2", "--out", str(out)]
        )
        assert code == 0
        result = load(out)["result"]
        assert result["major"]["q1_rel_err"] < 0.2
        assert result["minor"]["sup_over_N"] < 1.0
        assert os.path.exists(result["csv"])

    def test_levelsets_csv(self, tmp_path):
        out = tmp_path / "lv.json"
        code = run(
            ["levelsets", "--w", "4", "--N", "4096", "--levels", "0.5,0.1", "--out", str(out)]
        )
        assert code == 0
        result = load(out)["result"]
        assert result["requested_levels"]["u"] == [0.5, 0.1]
        assert os.path.exists(result["csv"])

    def test_arcs_partition_only(self, tmp_path):
        out = tmp_path / "part.json"
        assert run(["arcs", "--N", "65536", "--A", "1.5", "--out", str(out)]) == 0
        result = load(out)["result"]
        assert result["arc_count"] >= 1
        assert 0 < result["minor_measure"] < 1
        assert "major" not in result

    def test_represent_with_n_lo(self, tmp_path):
        out = tmp_path / "rep2.json"
        assert run(
            ["represent", "--s", "8", "--limit", "1000", "--n-lo", "8", "--out", str(out)]
        ) == 0
        result = load(out)["result"]
        # everything below 8 * 25 is an exception by construction
        assert result["exceptions"][:3] == [8, 32, 56]

    def test_experiment_command(self, tmp_path):
        out = tmp_path / "exp.json"
        code = run(
            ["experiment", "--s", "8", "--n-lo", "200", "--n-hi", "5000", "--out", str(out)]
        )
        assert code == 0
        result = load(out)["result"]
        assert result["exceptions"] == []
        assert result["lambda_threshold"] == pytest.approx(0.8660254, abs=1e-6)

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--s", "8", "--n-lo", "200", "--n-hi", "100000"],
            ["represent", "--s", "8", "--limit", "100000", "--check", "--csv"],
        ],
    )
    def test_only_the_density_reads_past_the_root(self, tmp_path, monkeypatch, argv):
        # empirical_density's is the one subset_members call on the table
        # sieved to 1e5; the squares, the witnesses and the --check oracle
        # see only the primes up to isqrt(1e5) = 316
        import psqlab.primes as primes_mod
        import psqlab.representations as representations_mod

        calls = count_calls(monkeypatch, primes_mod, "subset_members")
        monkeypatch.setattr(representations_mod, "subset_members", primes_mod.subset_members)
        assert run(argv + ["--out", str(tmp_path / "r.json")]) == 0
        tops = sorted(int(table.primes[-1]) for _, table in calls)
        assert len(tops) >= 2 and tops[-1] == 99991
        assert all(top <= 316 for top in tops[:-1])

    def test_arcs_grid_csv_parses_as_floats(self, tmp_path):
        out = tmp_path / "grid.json"
        code = run(
            ["arcs", "--N", "4096", "--A", "1.5", "--w", "4", "--qmax", "3", "--K", "2", "--out", str(out)]
        )
        assert code == 0
        with open(load(out)["result"]["csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "re", "im"]
        assert len(rows) == 1 + 2 * 4096
        for k, re_text, im_text in rows[1:]:
            int(k)
            float(re_text)
            float(im_text)

    def test_pseudo_builds_indicator_grid_once(self, tmp_path, monkeypatch):
        import psqlab.cli as cli_mod

        calls = []
        real = cli_mod.indicator_transform_grid

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli_mod, "indicator_transform_grid", counting)
        out = tmp_path / "pseudo.json"
        assert run(["pseudo", "--N", "4096", "--K", "4", "--w-list", "4,6,8", "--out", str(out)]) == 0
        assert calls == [(4096, 4)]
        assert [row["w"] for row in load(out)["result"]["rows"]] == [4, 6, 8]

    def test_moments_computes_one_fft(self, tmp_path, monkeypatch):
        # N = 4096: the padded fourth-moment grid is the 4-fold L^q grid
        calls = count_calls(monkeypatch, np.fft, "fft")
        out = tmp_path / "moments.json"
        argv = ["moments", "--w", "6", "--N", "4096", "--K", "4", "--out", str(out)]
        assert run(argv) == 0
        assert len(calls) == 1 and fft_length(calls[0]) == 4 * 4096
        fm = load(out)["result"]["fourth_moment"]
        assert fm["rel_difference"] < 1e-9

    def test_moments_at_other_lengths_keeps_both_ffts(self, tmp_path, monkeypatch):
        # N = 3000: the padded grid has 8192 points, not a multiple of N
        calls = count_calls(monkeypatch, np.fft, "fft")
        argv = ["moments", "--w", "6", "--N", "3000", "--out", str(tmp_path / "m.json")]
        assert run(argv) == 0
        assert sorted(fft_length(args) for args in calls) == [8192, 12000]

    def test_levelsets_builds_one_grid(self, tmp_path, monkeypatch):
        import psqlab.wtrick as wtrick_mod

        calls = count_calls(monkeypatch, wtrick_mod, "grid_transform")
        ffts = count_calls(monkeypatch, np.fft, "fft")
        out = tmp_path / "levels.json"
        argv = ["levelsets", "--w", "6", "--N", "4096", "--levels", "0.5,0.1", "--out", str(out)]
        assert run(argv) == 0
        assert [args[1:] for args in calls] == [(4096, 1)] and len(ffts) == 1
        assert load(out)["result"]["requested_levels"]["u"] == [0.5, 0.1]

    def test_represent_builds_count_table_once(self, tmp_path, monkeypatch):
        import psqlab.cli as cli_mod

        calls = []
        real = cli_mod.count_representations

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli_mod, "count_representations", counting)
        out = tmp_path / "rep.json"
        argv = ["represent", "--s", "8", "--limit", "5000", "--check", "--csv", "--out", str(out)]
        assert run(argv) == 0
        assert len(calls) == 1
        with open(load(out)["result"]["csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "count"] and ["200", "1"] in rows

    @pytest.mark.parametrize("flag", ["--check", "--csv"])
    def test_count_past_budget_exits_two_before_sieve(self, flag, tmp_path, monkeypatch, capsys):
        import psqlab.cli as cli_mod

        def no_sieve(limit):
            raise AssertionError("sieved before the count budget check")

        monkeypatch.setattr(cli_mod, "sieve", no_sieve)
        # 2 * limit + 1 > MAX_CONV_LEN = 2^24, while the scan over K fits
        argv = ["represent", "--s", "8", "--limit", "9000000", flag, "--out", str(tmp_path / "r.json")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "over budget" in err and "Traceback" not in err

    def test_report_and_sidecar_follow_umask(self, tmp_path):
        out = tmp_path / "rep.json"
        old = os.umask(0o022)
        try:
            assert run(["represent", "--s", "8", "--limit", "2000", "--csv", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        sidecar = load(out)["result"]["csv"]
        assert os.stat(out).st_mode & 0o777 == 0o644
        assert os.stat(sidecar).st_mode & 0o777 == 0o644
        assert sorted(os.listdir(tmp_path)) == ["rep.counts.csv", "rep.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--s", "8", "--n-lo", "5000", "--n-hi", str(8 + 24 * (1 << 23))],
            ["experiment", "--s", "8", "--n-lo", "5", "--n-hi", str(1 << 23), "--spec",
             '{"variant": "all", "min_prime": 2}'],
            ["represent", "--s", "8", "--limit", str(8 + 24 * (1 << 23))],
            ["experiment", "--s", "80", "--n-lo", "5000", "--n-hi", "100000000"],
        ],
    )
    def test_scan_past_reach_exits_two(self, argv, capsys):
        # the reachability FFT over K = (n - s)/24 must fit 2 * (K + 1) points
        # in MAX_CONV_LEN = 2^24, and its s + 1 layers MAX_LAYER_CELLS; past
        # either, the scan is refused before the sieve
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "over budget" in err and "Traceback" not in err
