import contextlib
import csv
import dataclasses
import enum
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_line, gauss_row_gcd
from psqlab._csvio import write_csv
from psqlab.arith import factorize
from psqlab.cli import (
    _COMMANDS,
    _COMMON,
    _INT_BATCH,
    _build_parser,
    _parse_spec,
    _parse_table,
    finite_float,
    run,
)
from psqlab.expsums import MAX_GAUSS_MODULUS, MAX_LOCAL_FACTOR_Q
from psqlab.primes import PrimeSubsetSpec
from psqlab.representations import count_violations, theorem_experiment


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
        pairs = factorize(k)
        if any(e > 1 for _, e in pairs):
            continue
        bound = (2 ** len(pairs)) * math.sqrt(k)
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


class Level(enum.IntEnum):
    LOW = -2
    HIGH = 2**40


json_scalars = st.one_of(
    st.text(),  # non-ASCII, quotes and control characters among them
    st.integers(),
    st.sampled_from([2**70, -(2**70), -1, 0]),
    st.booleans(),
    st.none(),
    st.sampled_from(list(Level)),
    st.floats(),  # nan, +-inf and -0.0 among them
)
long_int_lists = st.builds(
    lambda n, tail: list(range(-5, n)) + tail,
    st.integers(_INT_BATCH - 8, _INT_BATCH + 8),
    st.lists(json_scalars, max_size=2),
)
json_values = st.recursive(
    st.one_of(json_scalars, long_int_lists),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(), kids, max_size=4),
        st.dictionaries(st.integers(), kids, max_size=3),
    ),
    max_leaves=12,
)


def dumps_or_error(x):
    try:
        return json.dumps(x, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        return type(exc)


def dump_or_error(dump, x):
    buf = io.StringIO()
    try:
        dump(x, buf)
    except (TypeError, ValueError) as exc:
        return type(exc)
    return buf.getvalue()


def patch_sieve(monkeypatch, replacement):
    """Bind replacement in place of sieve in every psqlab module that holds it;
    returns the real sieve."""
    import psqlab.primes as primes_mod

    real = primes_mod.sieve
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "psqlab" and getattr(mod, "sieve", None) is real:
            monkeypatch.setattr(mod, "sieve", replacement)
    return real


def no_sieve(*args):
    raise AssertionError("sieved before the budget check")


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

    def test_json_integer_rho_is_a_number(self):
        blob = json.dumps({"variant": "bernoulli_sample", "rho": 1, "seed": 1})
        spec = _parse_spec(blob, None)
        assert spec == PrimeSubsetSpec.bernoulli(1.0, 1) and type(spec.rho) is float

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
            # JSON fields of the wrong type are refused, not coerced
            '{"variant": "explicit_list", "primes": "57"}',
            '{"variant": "residue_classes", "modulus": 5, "classes": "14"}',
            '{"variant": "residue_classes", "modulus": 5, "classes": [1.5, 4]}',
            '{"variant": "residue_classes", "modulus": 5.7, "classes": [1, 4]}',
            '{"variant": "bernoulli_sample", "rho": 0.5, "seed": 1.9}',
            '{"variant": "all", "min_prime": true}',
            '{"variant": "bernoulli_sample", "rho": "0.5", "seed": 1}',
        ],
        ids=[
            "zero-modulus", "missing-modulus", "null-seed", "deep-nesting",
            "str-primes", "str-classes", "float-class", "float-modulus",
            "float-seed", "bool-min-prime", "str-rho",
        ],
    )
    def test_malformed_spec_exits_two(self, spec, capsys):
        assert run(["represent", "--s", "8", "--limit", "1000", "--spec", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("psqlab: error:") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "spec, field",
        [
            ("residues:99999999999999999999:1", "modulus 99999999999999999999"),
            ("explicit:5,99999999999999999999", "primes entry 99999999999999999999"),
            ("explicit:-9223372036854775809", "primes entry -9223372036854775809"),
            (
                '{"variant": "residue_classes", "modulus": 99999999999999999999, "classes": [1]}',
                "modulus 99999999999999999999",
            ),
            (
                '{"variant": "explicit_list", "primes": [5, 9223372036854775808]}',
                "primes entry 9223372036854775808",
            ),
        ],
        ids=[
            "inline-modulus", "inline-prime", "inline-negative-prime", "json-modulus", "json-prime",
        ],
    )
    def test_spec_integer_past_int64_exits_two(self, spec, field, capsys):
        # bounded in the constructors, before subset_members converts to int64
        assert run(["represent", "--s", "8", "--limit", "1000", "--spec", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("psqlab: error:") and field in captured.err
        assert "Traceback" not in captured.err

    def test_spec_integers_at_int64_edges_run(self, capsys):
        edges = ("explicit:-9223372036854775808,5,9223372036854775807", "residues:9223372036854775807:1")
        for spec in edges:
            assert run(["experiment", "--s", "8", "--n-lo", "200", "--n-hi", "3000", "--spec", spec]) == 0
            capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["pseudo", "--N", "0"],
            ["pseudo", "--N", "4096", "--K", "0"],
            ["moments", "--w", "6", "--N", "0"],
            ["arcs", "--N", "1", "--w", "6"],
            ["levelsets", "--w", "6", "--N", "0"],
            ["moments", "--w", "6", "--N", "-5"],
            ["levelsets", "--w", "6", "--N", "-5"],
        ],
        ids=[
            "pseudo-N0", "pseudo-K0", "moments-N0", "arcs-N1", "levelsets-N0",
            "moments-N-5", "levelsets-N-5",
        ],
    )
    def test_empty_grid_or_arcs_exit_two(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("psqlab: error:") and "Traceback" not in err
        # named, not log2(0)'s "math domain error" or isqrt's negative argument
        if argv[0] == "levelsets" or argv[-1] == "-5":
            assert err == f"psqlab: error: N must be >= 1, got {argv[-1]}\n"

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

    def test_moments_past_support_budget_exits_two_before_any_fft(self, monkeypatch, capsys):
        # 2220 support points: fits the grid budget, not the autocorrelation's
        def unreachable(*args, **kwargs):
            raise AssertionError("an FFT ran past the support budget")

        monkeypatch.setattr(np.fft, "fft", unreachable)
        monkeypatch.setattr(np.fft, "rfft", unreachable)
        assert run(["moments", "--w", "4", "--N", "16000000"]) == 2
        err = capsys.readouterr().err
        assert err == "psqlab: error: autocorrelation of 2220 support points over budget 2000\n"

    def test_verification_error_is_exit_one(self, tmp_path, monkeypatch, capsys):
        # a scan hit that the witness search cannot back is a verification
        # failure, not usage
        import psqlab.representations as repr_mod

        monkeypatch.setattr(repr_mod, "lex_smallest_sum", lambda supports, targets: [None] * len(targets))
        out = tmp_path / "exp.json"
        argv = ["experiment", "--s", "8", "--n-lo", "5000", "--n-hi", "400000", "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("psqlab: verification failed: scan marks n = ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_failed_self_check_is_exit_one(self, tmp_path, monkeypatch, capsys):
        # the transfer's own witness check fails when no index maps to a prime
        import psqlab.representations as repr_mod

        monkeypatch.setattr(repr_mod, "factorize", lambda p: ((p, 2),))
        out = tmp_path / "tr.json"
        assert run(["transfer", "--w", "6", "--n", "960008", "--s", "8", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "psqlab: verification failed: support index does not correspond to a prime square\n"
        assert not out.exists()

    def test_fourth_moment_routes_disagreeing_is_exit_one(self, tmp_path, monkeypatch, capsys):
        import psqlab.restriction as restriction_mod

        monkeypatch.setattr(restriction_mod, "fourth_moment_routes", lambda seq: (1.0, 2.0))
        out = tmp_path / "m.json"
        assert run(["moments", "--w", "6", "--N", "4096", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "psqlab: verification failed: fourth-moment routes disagree: 1.0 vs 2.0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError(), "psqlab: error: out of memory\n"),
            (
                MemoryError("Unable to allocate 84.5 MiB for an array with shape (11078937,)"),
                "psqlab: error: out of memory: Unable to allocate 84.5 MiB for an array with shape (11078937,)\n",
            ),
        ],
        ids=["bare", "numpy"],
    )
    def test_memory_error_exits_two(self, exc, line, tmp_path, monkeypatch, capsys):
        # one stderr line and the usage code, not a traceback and the verification code
        import psqlab.cli as cli_mod

        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_mod, "theorem_experiment", exhausted)
        out = tmp_path / "exp.json"
        assert run(["experiment", "--s", "8", "--n-lo", "5000", "--n-hi", "400000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == line
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["levelsets", "--w", "4", "--N", "4096", "--levels", "nan"],
            ["levelsets", "--w", "4", "--N", "4096", "--levels", "0.5,inf"],
            ["levelsets", "--w", "4", "--N", "4096", "--q-exponent", "nan"],
            ["moments", "--w", "4", "--N", "4096", "--q-exponent", "nan"],
            ["moments", "--w", "4", "--N", "4096", "--q-exponent", "inf"],
            ["transfer", "--w", "6", "--n", "48008", "--s", "8", "--kappa", "nan"],
            ["transfer", "--w", "6", "--n", "48008", "--s", "8", "--kappa=-inf"],
            ["arcs", "--N", "4096", "--A", "NaN"],
            ["arcs", "--w", "4", "--N", "4096", "--A", "infinity"],
        ],
        ids=lambda argv: f"{argv[0]}:{argv[-1]}",
    )
    def test_non_finite_float_option_exits_two_before_any_work(self, argv, monkeypatch, capsys):
        # each wrote NaN or Infinity into a report and exited 0, or failed late
        import psqlab.cli as cli_mod
        import psqlab.expsums as expsums_mod

        def unreachable(*args, **kwargs):
            raise AssertionError("work started on a non-finite option")

        monkeypatch.setattr(cli_mod, "build_context", unreachable)
        monkeypatch.setattr(expsums_mod, "arc_partition", unreachable)
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        # argparse's "invalid finite_float value", or the handler's "not a finite number"
        assert "finite" in err.splitlines()[-1]

    def test_arc_count_past_budget_exits_two(self, monkeypatch, capsys):
        # Q = (log 2^62)^3 is about 79,369: about 1.9e9 arcs, refused before
        # the first is built rather than killed for memory
        import psqlab.expsums as expsums

        def unbuilt(*args, **kwargs):
            raise AssertionError("an arc was built")

        monkeypatch.setattr(expsums, "Arc", unbuilt)
        assert run(["arcs", "--N", str(1 << 62), "--A", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"psqlab: error: --A 3.0 at --N {1 << 62}: Q = 79369.099 allows up to "
            "3149758765 arcs, over budget 2097152\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--w", "4", "--N", "4096", "--q-exponent", "88"],
            ["moments", "--w", "4", "--N", "4096", "--q-exponent", "86"],
            ["levelsets", "--w", "4", "--N", "4096", "--levels", "1e80"],
            ["levelsets", "--w", "4", "--N", "4096", "--levels", "1e-100"],
            ["arcs", "--N", "100000", "--A", "400"],
            ["arcs", "--N", "100000", "--A", "1e300"],
        ],
        ids=lambda argv: f"{argv[0]}:{argv[-1]}",
    )
    def test_float_range_exceeded_exits_two(self, argv, capsys):
        # N^(q-1), u^4, 1/(u^4 N^4) or (log N)^A out of the float range: a
        # traceback and exit 1, or (q = 86) a moment of Infinity in the report
        # and exit 0
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"psqlab: error: {argv[-2]} {float(argv[-1])!r}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_finite_float_options_keep_their_config(self, capsys):
        argv = ["levelsets", "--w", "4", "--N", "4096", "--q-exponent", "4.5", "--levels", "0.5,1e-1"]
        assert run(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["q_exponent"] == 4.5 and report["config"]["levels"] == "0.5,1e-1"
        assert report["result"]["requested_levels"]["u"] == [0.5, 0.1]

    def test_check_failure_is_exit_one(self, tmp_path, monkeypatch):
        import psqlab.expsums as expsums_mod

        def broken(ctx, b, q, a):
            return 123 + 0j

        monkeypatch.setattr(expsums_mod, "s_closed", broken)
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

    @pytest.mark.parametrize("w", [20, 9000, 20000, 10**9])
    @pytest.mark.parametrize("command", [["context"], ["transfer", "--n", "960008"]])
    def test_w_past_bound_names_w(self, command, w, capsys):
        # the refusal names w and the bound, never W, which has 3,900 digits
        # at w = 9000, and past 4300 digits cannot be converted to a string
        assert run(command + ["--w", str(w)]) == 2
        assert capsys.readouterr().err == (
            f"psqlab: error: w = {w} puts W = 8 * prod(2 < p < w) past MAX_W = 4000000; "
            "the largest supported w is 19\n"
        )


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

    def test_saq_qmax_past_bound_exits_two_before_loop(self, monkeypatch, capsys):
        import psqlab.expsums as expsums_mod

        def no_loop(*args):
            raise AssertionError("the saq loop started past the bound")

        monkeypatch.setattr(expsums_mod, "s_direct", no_loop)
        monkeypatch.setattr(expsums_mod, "s_closed", no_loop)
        qmax = MAX_LOCAL_FACTOR_Q + 1
        assert run(["saq", "--w", "4", "--qmax", str(qmax)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"psqlab: error: --qmax {qmax} exceeds bound {MAX_LOCAL_FACTOR_Q}\n"
        with pytest.raises(AssertionError, match="saq loop"):  # the bound itself starts the loop
            run(["saq", "--w", "4", "--qmax", str(MAX_LOCAL_FACTOR_Q)])

    def test_gauss_factorizes_each_odd_k_once(self, monkeypatch, capsys):
        # the squarefree test factorizes each odd k (2500), the units of a
        # squarefree k come from those pairs, gauss_sum_row's unit_mask
        # factorizes each squarefree k > 1 (2026), and the four reference
        # gauss_sum calls one each
        import psqlab.arith as arith_mod
        import psqlab.cli as cli_mod

        calls = count_calls(monkeypatch, arith_mod, "factorize")
        monkeypatch.setattr(cli_mod, "factorize", arith_mod.factorize)
        assert run(["gauss", "--kmax", "5000", "--check"]) == 0
        capsys.readouterr()
        assert len(calls) == 4530

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
            counts = count_line(real(*args))
            assert counts[100] == 1 and counts[101] == 0  # 100 = 4 * 5^2; 101 = 5 (mod 24)
            counts[100] = 0  # a dropped count, on the lattice
            counts[101] = 1  # a count off the lattice
            return ReprCountTable(limit=len(counts) - 1, start=0, step=1, values=counts)

        monkeypatch.setattr(cli_mod, "count_representations", corrupted)
        out = tmp_path / "rep.json"
        argv = ["represent", "--s", "4", "--limit", "3000", "--check", "--out", str(out)]
        assert run(argv) == 1
        assert load(out)["result"]["congruence_scan_violations"] == [100, 101]

    def test_check_and_csv_build_no_line_of_counts(self, tmp_path):
        # the table, its check and its sidecar read the progression only, so
        # nothing of 4 bytes per n in [0, limit] is ever held
        limit = 1_000_000
        out = tmp_path / "rep.json"
        argv = ["represent", "--s", "8", "--limit", str(limit), "--spec", "all", "--check", "--csv"]
        tracemalloc.start()
        try:
            assert run([*argv, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert load(out)["result"]["congruence_scan_violations"] == []
        assert peak < 4 * (limit + 1)

    def test_check_flags_counts_off_the_lattice_from_a_wrong_step(self, tmp_path, monkeypatch):
        # a step of 12 puts every odd i on n = 16 (mod 24); past the window
        # (n > 100 + 2^12) only the congruence test can see them
        import psqlab.cli as cli_mod

        spec = PrimeSubsetSpec.all_primes()
        table = cli_mod.count_representations(20000, 4, spec)
        assert (table.start, table.step) == (100, 24)
        wrong = dataclasses.replace(table, step=12)
        i = np.flatnonzero(wrong.values)
        off = (wrong.start + 12 * i[i % 2 == 1]).tolist()
        assert max(off) > 100 + 4096 and all(n % 24 == 16 for n in off)
        exceptions = theorem_experiment(4, spec, (100, 20000))["exceptions"]
        bad = count_violations(wrong, 4, spec, 100, exceptions).tolist()
        assert set(off) <= set(bad)

        monkeypatch.setattr(cli_mod, "count_representations", lambda *args: wrong)
        out = tmp_path / "rep.json"
        argv = ["represent", "--s", "4", "--limit", "20000", "--check", "--out", str(out)]
        assert run(argv) == 1
        assert load(out)["result"]["congruence_scan_violations"] == bad[:20]

    def test_check_flags_a_count_dropped_from_the_values(self, tmp_path, monkeypatch):
        import psqlab.cli as cli_mod

        real = cli_mod.count_representations

        def dropped(*args):
            table = real(*args)
            values = table.values.copy()
            assert table.start + table.step * 500 == 12100 and values[500] > 0
            values[500] = 0  # n = 12100, a scan target past the window
            return dataclasses.replace(table, values=values)

        monkeypatch.setattr(cli_mod, "count_representations", dropped)
        out = tmp_path / "rep.json"
        argv = ["represent", "--s", "4", "--limit", "20000", "--check", "--out", str(out)]
        assert run(argv) == 1
        assert load(out)["result"]["congruence_scan_violations"] == [12100]

    @pytest.mark.parametrize("min_prime", [2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 8, 9])
    def test_check_runs_when_the_spec_admits_two_or_three(self, tmp_path, s, min_prime):
        # off n = s (mod 24) counts are then expected; the other two tests still run
        out = tmp_path / "rep.json"
        spec = f'{{"variant": "all", "min_prime": {min_prime}}}'
        argv = ["--s", str(s), "--limit", "3000", "--n-lo", "0", "--spec", spec]
        assert run(["represent", *argv, "--check", "--out", str(out)]) == 0
        assert load(out)["result"]["congruence_scan_violations"] == []

    def test_check_with_two_fails_on_dropped_and_false_counts(self, tmp_path, monkeypatch):
        import psqlab.cli as cli_mod
        from psqlab.representations import ReprCountTable

        real = cli_mod.count_representations

        def corrupted(*args):
            counts = count_line(real(*args))
            assert counts[16] == 1 and counts[17] == 0  # 16 = 4 * 2^2; 17 is no sum of 4
            counts[16] = 0
            counts[17] = 1
            return ReprCountTable(limit=len(counts) - 1, start=0, step=1, values=counts)

        monkeypatch.setattr(cli_mod, "count_representations", corrupted)
        out = tmp_path / "rep.json"
        spec = '{"variant": "all", "min_prime": 2}'
        argv = ["--s", "4", "--limit", "3000", "--n-lo", "0", "--spec", spec]
        assert run(["represent", *argv, "--check", "--out", str(out)]) == 1
        assert load(out)["result"]["congruence_scan_violations"] == [16, 17]

    def test_check_window_starts_at_least_representable_n(self, tmp_path, monkeypatch):
        # at s = 200 nothing below 200 * 5^2 = 5000 is representable, so a
        # window from n = 0 would hold only zeros on both sides
        import psqlab.cli as cli_mod
        from psqlab.representations import ReprCountTable

        real = cli_mod.count_representations

        def corrupted(*args):
            counts = count_line(real(*args))
            assert counts[5000] == 1 and not counts[:5000].any()
            counts[5000] = 0  # dropped: the only representation is all 5^2
            counts[4976] = 1  # on the lattice, but below every sum of 200 squares
            return ReprCountTable(limit=len(counts) - 1, start=0, step=1, values=counts)

        monkeypatch.setattr(cli_mod, "count_representations", corrupted)
        out = tmp_path / "rep.json"
        argv = ["represent", "--s", "200", "--limit", "6000", "--check", "--out", str(out)]
        assert run(argv) == 1
        assert load(out)["result"]["congruence_scan_violations"] == [4976, 5000]

    @pytest.mark.parametrize(
        "argv, n, excepted",
        [
            # a dropped hit: 5000 = 8 (mod 24) has a count
            (["--s", "8", "--limit", "20000"], 5000, True),
            # a false hit: p = +-1 (mod 5) puts every square on 121 + 120Z, 10J
            # misses M = 1, 3 and 5, and 1810 = 10 * 121 + 120 * 5 is past the
            # three sampled witnesses (M = 0, 2 and 4)
            (["--s", "10", "--limit", "30000", "--spec", "residues:5:1,4"], 1810, False),
        ],
    )
    def test_check_fails_on_a_wrong_scan(self, tmp_path, monkeypatch, argv, n, excepted):
        # the counts are a second route for the scan: an n = s (mod 24) in
        # range is an exception exactly where its count is zero
        import psqlab.representations as repr_mod

        real = repr_mod.scan_mask
        calls = []
        # the scan's index M of n = s*m0 + g*M: 5^2 + 24Z under all, 11^2 + 120Z
        M = {5000: (5000 - 8 * 25) // 24, 1810: (1810 - 10 * 121) // 120}[n]

        def flipped(ks, s, cap):
            calls.append(cap)
            mask = real(ks, s, cap).copy()
            mask[M] ^= True
            return mask

        monkeypatch.setattr(repr_mod, "scan_mask", flipped)
        out = tmp_path / "rep.json"
        assert run(["represent", *argv, "--check", "--out", str(out)]) == 1
        result = load(out)["result"]
        assert (n in result["exceptions"]) == excepted
        assert result["congruence_scan_violations"] == [n]
        assert len(calls) == 1  # the oracle never reads the scan's mask

    def test_unbacked_witness_exits_one(self, tmp_path, monkeypatch, capsys):
        # M = 1 is not in 10J under residues:5:1,4; a scan that marks it
        # (n = 1330) hands the witness search a target it cannot reach
        import psqlab.representations as repr_mod

        real = repr_mod.scan_mask

        def flipped(ks, s, cap):
            mask = real(ks, s, cap).copy()
            assert not mask[1]
            mask[1] = True
            return mask

        monkeypatch.setattr(repr_mod, "scan_mask", flipped)
        out = tmp_path / "rep.json"
        argv = ["--s", "10", "--limit", "6000", "--n-lo", "0", "--spec", "residues:5:1,4"]
        assert run(["represent", *argv, "--check", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n = 1330" in err and "Traceback" not in err
        assert not out.exists()

    def test_limit_below_default_n_lo_exits_two(self, capsys):
        assert run(["represent", "--s", "40", "--limit", "0", "--spec", "all", "--csv"]) == 2
        err = capsys.readouterr().err
        assert "--limit 0" in err and "--n-lo 25 * s = 1000" in err
        assert "empty range" not in err and "Traceback" not in err

    def test_explicit_n_lo_above_limit_keeps_range_error(self, capsys):
        assert run(["represent", "--s", "40", "--limit", "0", "--n-lo", "1000"]) == 2
        assert "empty range (1000, 0)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--s", "8", "--n-lo", "-1", "--n-hi", "300"],
            ["represent", "--s", "8", "--limit", "300", "--n-lo", "-1"],
        ],
    )
    def test_negative_n_lo_exits_two_before_sieve(self, argv, monkeypatch, capsys):
        # the targets would start at n_lo: refused before any array is built
        patch_sieve(monkeypatch, no_sieve)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "must start at n >= 0, got -1" in err and "Traceback" not in err

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

    @pytest.mark.parametrize(
        "n, s",
        [("0", "0"), ("24", "0"), ("960000", "0"), ("31", "7"), ("960007", "7")],
    )
    def test_transfer_s_below_eight_exits_two_before_sieve(self, n, s, monkeypatch, capsys):
        # s = 0 divided by zero in window_length (a traceback, exit 1), and
        # s = 7 exited 0 with not_found when the window was empty
        patch_sieve(monkeypatch, no_sieve)
        assert run(["transfer", "--w", "6", "--n", n, "--s", s]) == 2
        assert capsys.readouterr().err == f"psqlab: error: s must be >= 8, got {s}\n"

    @pytest.mark.parametrize("n", [96000000008, 960000000008, 4000000000000000016])
    def test_transfer_past_index_budget_exits_two_before_sieve(self, n, monkeypatch, capsys):
        # every residue is below W, so m >= (n - s*(W - 1)) / W, and the index
        # search over m would be refused after a sieve of up to 1.86 GiB and
        # weighted sequences of up to 14.9 GiB
        patch_sieve(monkeypatch, no_sieve)
        assert run(["transfer", "--w", "6", "--n", str(n), "--s", "8"]) == 2
        err = capsys.readouterr().err
        assert "over budget" in err and "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(10**11 // 24, 10**20 // 24),
        r=st.integers(0, 23),
        s=st.integers(0, 20),
        kappa=st.sampled_from([-1.0, 0.0, 0.1]),
    )
    @example(k=4000000000, r=7, s=8, kappa=0.1)  # n = 96000000007
    @example(k=4000000000, r=8, s=7, kappa=0.1)
    @example(k=4000000000, r=8, s=8, kappa=-1.0)
    @example(k=4000000000, r=8, s=8, kappa=0.1)
    def test_transfer_checks_s_congruence_kappa_then_budget(self, k, r, s, kappa):
        # every n >= 1e11 gives a window N = 2n/(sW) past 2^23 at w = 6, so
        # the budget is the last check to fail, and none of them sieves
        n = 24 * k + r
        argv = ["transfer", "--w", "6", "--n", str(n), "--s", str(s), "--kappa", str(kappa)]
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            patch_sieve(mp, no_sieve)
            mp.setattr(sys, "stderr", err)
            assert run(argv) == 2
        text = err.getvalue()
        assert text.startswith("psqlab: error: ") and text.count("\n") == 1
        if s < 8:
            assert text.endswith(f"s must be >= 8, got {s}\n")
        elif r != s % 24:
            assert text.endswith(f"need n = s (mod 24); got n = {n}, s = {s}\n")
        elif kappa <= 0:
            assert text.endswith(f"kappa must be positive, got {kappa}\n")
        else:
            N = 2 * n // (s * 120)
            assert text.endswith(f"transfer window N = {N} over budget: 2N - 1 > 16777216\n")

    def test_transfer_window_budget_boundary(self, monkeypatch, capsys):
        # at w = 6, s = 8: N = 2^23 (pair-sum masks of up to 2^24 - 1 cells)
        # passes the check and reaches delta_table; N = 2^23 + 1 is refused
        # before any sieve
        import psqlab.representations as reprs

        class Reached(Exception):
            pass

        def reached(ctx, N, roots):
            raise Reached(N)

        monkeypatch.setattr(reprs, "delta_table", reached)
        with pytest.raises(Reached, match=f"^{1 << 23}$"):
            run(["transfer", "--w", "6", "--n", "4026531848", "--s", "8"])
        patch_sieve(monkeypatch, no_sieve)
        assert run(["transfer", "--w", "6", "--n", "4026532328", "--s", "8"]) == 2
        assert capsys.readouterr().err == (
            f"psqlab: error: transfer window N = {(1 << 23) + 1} over budget: 2N - 1 > 16777216\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["transfer", "--w", "6", "--n", "960008", "--s", "8"],
            ["experiment", "--s", "8", "--n-lo", "5000", "--n-hi", "100000"],
        ],
    )
    def test_search_past_step_cap_exits_two(self, argv, monkeypatch, capsys):
        # with no steps allowed, the residue selection or witness search
        # refuses rather than answering by another engine
        import psqlab._gridfft as gridfft

        monkeypatch.setattr(gridfft, "MAX_SEARCH_STEPS", 0)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == "psqlab: error: witness search past its cap of 0 steps\n"

    def test_negative_s_named_before_the_range(self, monkeypatch, capsys):
        # --n-lo defaults to 25 * s = -25: the range check would name it
        patch_sieve(monkeypatch, no_sieve)
        assert run(["represent", "--s", "-1", "--limit", "100"]) == 2
        assert capsys.readouterr().err == "psqlab: error: s must be >= 1, got -1\n"

    def test_module_runs_as_a_script(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "psqlab.cli", "context", "--w", "4"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["context"]["W"] == 24


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_argvs():
    """The argv of each psqlab line in the README's sh blocks, as CI reads them."""
    argvs, in_sh = [], False
    for line in README.read_text().splitlines():
        if line in ("```sh", "```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("psqlab "):
            argvs.append(line[len("psqlab ") :].partition("#")[0].split())
    return argvs


def bench_argvs():
    """The argv of every benchmark op at seed 7, OUT a report path."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        bench = importlib.import_module("run")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [
        [word.replace("OUT", "report.json") for word in bench.op_argv(template, 7)]
        for ops in bench.WORKLOADS.values()
        for _, _, template in ops
    ]


def parse_outcome(argv):
    """(stdout, stderr, exit code or None, vars of the namespace or None) of
    the full parser on argv."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns, code = vars(_build_parser().parse_args(argv)), None
    except SystemExit as exc:
        ns, code = None, exc.code
    return out.getvalue(), err.getvalue(), code, ns


class Ran(Exception):
    """Raised by a stub handler with the namespace run passed it."""


def ran(args):
    raise Ran(args)


# values of every kind argparse and the table parse might read differently
ODD_VALUES = ["-3", "-0.5", "1e400", "nan", "", "x", "--", "-", "-x", "a b"]
GOOD_VALUES = {int: ["4", "10016", "0"], finite_float: ["0.5", "2"], str: ["all", "r.json"]}
STRAY_WORDS = ["-h", "--help", "--version", "--", "stray", "--bogus", "-w"]


@st.composite
def command_lines(draw):
    """An argv built from _COMMANDS: a command, then each of its options zero
    to two times with a value of its type.  In half the lines, some options
    come as --flag=value, abbreviated or without their value, or with an
    odd value, and the command may be mistyped or stray words added."""
    messy = draw(st.booleans())
    name = draw(st.sampled_from(list(_COMMANDS)))
    options = {**_COMMON, **_COMMANDS[name][2]}
    odd = st.one_of(st.sampled_from(ODD_VALUES), st.text(max_size=3))
    groups = []
    for flag, kwargs in options.items():
        for _ in range(draw(st.sampled_from([0, 1, 1, 2] if kwargs.get("required") else [0, 0, 1, 2]))):
            value = draw(st.sampled_from(GOOD_VALUES[kwargs.get("type", str)]))
            form = "plain"
            if messy and draw(st.sampled_from([False, False, True])):
                value = draw(st.one_of(st.just(value), odd))
                form = draw(st.sampled_from(["plain", "eq", "abbrev", "bare"]))
            if form == "eq":
                groups.append([f"{flag}={value}"])
            elif form == "abbrev":
                groups.append([flag[: draw(st.integers(min(3, len(flag) - 1), len(flag) - 1))], value])
            elif form == "bare" or "action" in kwargs:
                groups.append([flag])
            else:
                groups.append([flag, value])
    head = [name]
    if messy:
        stray = st.one_of(st.sampled_from(STRAY_WORDS), st.text(max_size=3))
        groups += [[w] for w in draw(st.sampled_from([[], [], [draw(stray)]]))]
        head = draw(st.sampled_from([[name]] * 3 + [[name[:-1]], ["--version"], ["-h"], []]))
    return head + [w for group in draw(st.permutations(groups)) for w in group]


# Runs each line of argv[2:] through cli.run and asserts exit 0 and that none
# of the comma-separated modules of argv[1] is imported after it; then the
# usage error `transfer --w x` exits 2 with argparse's message.
FRESH_SCRIPT = """\
import io, sys, contextlib
import psqlab.cli as cli
absent = sys.argv[1].split(",")
for line in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(line.split()) == 0, line
    assert not [m for m in absent if m in sys.modules], (line, absent)
err = io.StringIO()
with contextlib.redirect_stderr(err):
    assert cli.run(["transfer", "--w", "x"]) == 2
assert err.getvalue().endswith("psqlab transfer: error: argument --w: invalid int value: 'x'\\n"), err.getvalue()
"""


def run_fresh(absent, lines):
    """FRESH_SCRIPT in a fresh interpreter, as each benchmark op runs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", FRESH_SCRIPT, ",".join(absent), *lines], env=env, capture_output=True, text=True
    )


class TestParser:
    @pytest.mark.parametrize("argv", readme_argvs() + bench_argvs(), ids=" ".join)
    def test_readme_and_bench_lines_are_read_from_the_table(self, argv):
        got = _parse_table(argv)
        assert got is not None and vars(got) == parse_outcome(argv)[3]

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    @example(["transfer", "--w", "4", "--n", "10016", "--w", "6"])
    @example(["transfer", "--w=4", "--n", "10016"])
    @example(["transfer", "--w", "-4", "--n", "10016"])
    @example(["transfer", "--w", "4", "--n", "10016", "--"])
    @example(["transfer", "--w", "4", "--n"])
    @example(["transfer", "--w", "4"])
    @example(["transfer", "--w", "4", "--n", "10016", "-h"])
    @example(["pseudo", "--N", "64", "--w", "4"])  # --w abbreviates --w-list
    @example(["gauss", "--check", "x"])
    @example(["gauss", "--kmax", ""])
    @example(["arcs", "--N", "100", "--A", "nan"])
    @example(["levelsets", "--w", "6", "--N", "64", "--levels", ""])
    @example(["--out", "x", "context"])
    @example(["--version"])
    @example([])
    def test_table_parse_is_argparse_or_declines(self, argv):
        out, err, code, want = parse_outcome(argv)
        got = _parse_table(argv)
        if got is not None:
            assert (out, err, code, vars(got)) == ("", "", None, want)
            return
        # declined: run reads the line with argparse, to its output and exit
        # code, or to its namespace, which reaches the (stub) handler
        import psqlab.cli as cli_mod

        stubs = {name: (text, ran, options) for name, (text, _, options) in _COMMANDS.items()}
        run_out, run_err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(run_out), \
                contextlib.redirect_stderr(run_err):
            mp.setattr(cli_mod, "_COMMANDS", stubs)
            try:
                run_code, ns = run(argv), None
            except Ran as exc:
                run_code, ns = None, vars(exc.args[0])
        if want is None:
            assert (run_out.getvalue(), run_err.getvalue(), run_code) == (out, err, 0 if code in (0, None) else 2)
        else:
            del ns["threads_resolved"]
            assert ns == {**want, "handler": ran}

    @pytest.mark.parametrize(
        "argv, command",
        [
            (["transfer", "--w", "4", "--n", "10016"], "transfer"),
            (["context", "--w", "4"], "context"),
            (["represent", "--s", "8", "--limit", "1000"], "represent"),
            ([], None),
            (["-h"], None),
            (["--version"], None),
            (["transfe"], None),
            (["--out", "x", "context"], None),
            (["represent", "--bogus"], None),
            (["transfer", "--w=4", "--n", "10016"], None),
            (["transfer", "--w", "4", "--n", "-10016"], None),
        ],
    )
    def test_run_builds_the_invoked_commands_parser(self, argv, command, monkeypatch, capsys):
        # a line the table parse reads (as its command) builds no parser;
        # every other line, valid or not, builds the full one
        import psqlab.cli as cli_mod

        assert getattr(_parse_table(argv), "command", None) == command
        calls = count_calls(monkeypatch, cli_mod, "_build_parser")
        run(argv)
        capsys.readouterr()
        assert calls == ([] if command else [()])

    def test_full_parser_errors_name_the_command_argument(self, capsys):
        assert run([]) == 2
        assert "the following arguments are required: command" in capsys.readouterr().err
        assert run(["transfe"]) == 2
        assert "argument command: invalid choice: 'transfe'" in capsys.readouterr().err

    def test_bench_transfers_never_import_numpy_fft(self):
        # residue selection and the index search run no FFT
        lines = [" ".join(argv) for argv in bench_argvs() if argv[0] == "transfer"]
        proc = run_fresh(["numpy.fft", "argparse", "gettext", "locale"], lines)
        assert proc.returncode == 0, proc.stderr

    def test_readme_lines_never_import_argparse(self):
        # pytest and hypothesis import argparse into this process: only a
        # fresh interpreter shows that a valid line does not
        lines = [" ".join(argv) for argv in readme_argvs()]
        proc = run_fresh(["argparse", "gettext", "locale"], lines)
        assert proc.returncode == 0, proc.stderr

    def test_counting_and_transfer_lines_load_no_spectral_engine(self, tmp_path):
        # cli imports expsums, restriction, sumsets and _csvio in the handlers
        # that call them, and ReprCountTable.to_csv imports the CSV writer
        engines = ["psqlab.expsums", "psqlab.restriction", "psqlab.sumsets"]
        lines = [
            f"transfer --w 6 --n 960008 --s 8 --out {tmp_path / 't.json'}",
            f"experiment --s 8 --n-lo 5000 --n-hi 200000 --out {tmp_path / 'e.json'}",
        ]
        proc = run_fresh(engines + ["csv"], lines)
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "r.json"
        proc = run_fresh(engines, [f"represent --s 8 --limit 20000 --csv --out {out}"])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "r.counts.csv").stat().st_size > 0


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

    def test_threads_env_is_ignored(self, tmp_path, monkeypatch):
        # a report depends on its argv alone: no environment variable sets threads
        out = tmp_path / "ctx.json"

        def report():
            assert run(["context", "--w", "4", "--out", str(out)]) == 0
            return [line for line in out.read_text().splitlines() if "generated_at" not in line]

        monkeypatch.delenv("PSQ_LAB_THREADS", raising=False)
        plain = report()
        monkeypatch.setenv("PSQ_LAB_THREADS", "3")
        assert report() == plain
        assert load(out)["config"]["threads_resolved"] == 1

    def test_no_partial_file_on_unwritable_path(self, tmp_path):
        missing = tmp_path / "no_such_dir" / "x.json"
        code = run(["context", "--w", "4", "--out", str(missing)])
        assert code == 2
        assert not missing.exists()

    def test_streamed_report_is_the_dumps_text(self, tmp_path, capsys):
        # the batches join to the text json.dumps builds whole, also past one batch
        from psqlab.cli import _emit

        report = {"b": [1.5, -0.0, 1e-300, 5e-324], "a": {"z": "é", "y": None, "x": []}}
        report["c"] = list(range(20_000))
        want = json.dumps(report, sort_keys=True, indent=2) + "\n"
        out = tmp_path / "r.json"
        _emit(report, str(out))
        assert out.read_text() == want and os.listdir(tmp_path) == ["r.json"]
        _emit(report, None)
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_raises_and_leaves_no_file(self, x, tmp_path):
        # json.dumps(allow_nan=False) raises here too: no report holds NaN or Infinity
        from psqlab.cli import _emit

        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit({"a": [1.5, x]}, str(tmp_path / "r.json"))
        assert os.listdir(tmp_path) == []

    @settings(max_examples=200, deadline=None)
    @given(report=json_values)
    @example(report={"exceptions": list(range(-3, 3 * _INT_BATCH)), "empty": [[], {}, ()]})
    @example(report=[list(range(_INT_BATCH)) + [True, 2**70, Level.HIGH, 1.5], (Level.LOW, -(2**70))])
    @example(report={"f": [float("nan"), float("inf"), -float("inf"), -0.0, np.float64(0.1)]})
    @example(report={"s": ['"q"', "\x00\x1f\\", "é∑😀\u2028"]})
    @example(report={1: "int", -2: None})
    @example(report={True: [], False: {}})
    def test_dump_is_the_dumps_text(self, report):
        from psqlab.cli import _dump

        assert dump_or_error(_dump, report) == dumps_or_error(report)

    @pytest.mark.parametrize(
        "report",
        [
            {"a": np.int64(1)},
            {"a": [1, 2, np.int64(3)]},
            {"a": list(range(_INT_BATCH)) + [np.int64(3)]},
            {"a": np.float32(1.5)},
            {"a": np.bool_(True)},
            {"a": {1, 2}},
            {"a": object()},
            {(1, 2): 3},
            {"a": 1, 2: "b"},
        ],
        ids=["int64", "int64-in-list", "int64-in-batch", "float32", "bool_", "set", "object", "tuple-key", "mixed-keys"],
    )
    def test_dump_raises_where_dumps_raises(self, report):
        from psqlab.cli import _dump

        with pytest.raises(TypeError):
            json.dumps(report, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _dump(report, io.StringIO())

    def test_dump_writes_are_bounded(self):
        # a million-int report is written in pieces of about 1 MiB, never whole
        from psqlab.cli import _dump

        report = {"result": {"exceptions": list(range(10**8, 10**8 + 10**6))}}
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        _dump(report, Recorder())
        assert "".join(writes) == json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert len(writes) > 5 and max(map(len, writes)) <= 2 << 20

    @pytest.mark.parametrize(
        "batches, extra",
        [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
        ids=["0", "1", "B-1", "B", "B+1", "3B+5"],
    )
    def test_dump_writes_an_int64_array_as_its_list(self, batches, extra):
        # the exception scan reports its exceptions as one int64 array; B is
        # cli._INT_BATCH, the ints joined at a time
        from psqlab.cli import _dump

        length = batches * _INT_BATCH + extra
        arr = np.arange(length, dtype=np.int64) * 7919 - 3 * length
        if length:
            arr[-1] = -(2**63)
        for report, plain in ((arr, arr.tolist()), ({"e": arr, "n": 1}, {"e": arr.tolist(), "n": 1})):
            buf = io.StringIO()
            _dump(report, buf)
            assert buf.getvalue() == json.dumps(plain, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "arr",
        [np.zeros(2, dtype=np.int32), np.zeros(2), np.zeros((2, 2), dtype=np.int64), np.int64(3)],
        ids=["int32", "float64", "2-D", "int64-scalar"],
    )
    def test_dump_rejects_other_arrays(self, arr):
        from psqlab.cli import _dump

        with pytest.raises(TypeError):
            _dump({"a": arr}, io.StringIO())

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
            ["experiment", "--s", "8", "--n-lo", "200", "--n-hi", "9000000"],
            ["represent", "--s", "8", "--check", "--csv", "--limit", "100000"],
            ["experiment", "--s", "8", "--n-lo", "200", "--spec", "bernoulli:0.9:7", "--n-hi", "9000000"],
        ],
    )
    def test_only_the_density_reads_past_the_root(self, tmp_path, monkeypatch, argv):
        # the squares, the witnesses and the --check oracle sieve no further
        # than isqrt(hi); past it, only the density's windows of 2^21
        # integers, which tile [0, hi], and none for the default spec all,
        # whose density is 1.0 by Bertrand's postulate.  Every sieve, and
        # every density window, marks its window through _odd_marks.
        import psqlab.primes as primes_mod
        from psqlab.primes import DENSITY_WINDOW

        hi = int(argv[-1])
        calls = []
        real = primes_mod._odd_marks
        monkeypatch.setattr(primes_mod, "_odd_marks", lambda limit, lo: calls.append((lo, limit)) or real(limit, lo))
        assert run(argv + ["--out", str(tmp_path / "r.json")]) == 0
        windows = [(lo, limit) for lo, limit in calls if limit > math.isqrt(hi)]
        tiles = [(lo, min(lo + DENSITY_WINDOW - 1, hi)) for lo in range(0, hi + 1, DENSITY_WINDOW)]
        assert windows == ([] if "--spec" not in argv else tiles)
        assert len(calls) > len(windows)

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
        import psqlab.expsums as expsums_mod

        calls = []
        real = expsums_mod.indicator_transform_grid

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(expsums_mod, "indicator_transform_grid", counting)
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
        patch_sieve(monkeypatch, no_sieve)
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
            # the scan over (A - k0)/5 would fit, but the budget is the full cap's
            ["experiment", "--s", "10", "--n-lo", "5000", "--n-hi", str(10 + 24 * (1 << 23)),
             "--spec", "residues:5:1,4"],
        ],
    )
    def test_scan_past_reach_exits_two(self, argv, capsys):
        # the reachability FFT over K = (n - s)/24 must fit 2 * (K + 1) points
        # in MAX_CONV_LEN = 2^24, and its s + 1 layers MAX_LAYER_CELLS; past
        # either, the scan is refused before the sieve
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "over budget" in err and "Traceback" not in err
