import csv
import json
import os

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from psqlab.cli import _parse_spec, run
from psqlab.primes import PrimeSubsetSpec


def load(path):
    with open(path) as fh:
        return json.load(fh)


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
