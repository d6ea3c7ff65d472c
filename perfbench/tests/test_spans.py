"""Span arithmetic, and the traced worker accounting for an op's time."""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, "op", None)


def test_self_time_is_span_minus_children():
    tree = [
        _span("root", 0, 100),
        _span("a", 10, 40, 0),
        _span("a.inner", 20, 30, 1),
        _span("b", 50, 70, 0),
    ]
    assert spans.self_times(tree) == [50, 20, 10, 20]
    assert sum(spans.self_times(tree)) == 100


def test_overlapping_children_are_covered_once():
    tree = [_span("root", 0, 100), _span("t1", 10, 60, 0), _span("t2", 40, 80, 0)]
    assert spans.self_times(tree)[0] == 100 - 70


def test_layer_totals_sum_calls_self_time_and_quantity():
    tree = [
        spans.Span("root", 0, 10**9, None, "op", None),
        spans.Span("primes.sieve", 0, 2 * 10**8, 0, "op", 1000),
        spans.Span("primes.sieve", 3 * 10**8, 4 * 10**8, 0, "op", 500),
    ]
    totals = spans.layer_totals(tree)
    assert totals["primes.sieve"]["calls"] == 2
    assert abs(totals["primes.sieve"]["self_s"] - 0.3) < 1e-12
    assert totals["primes.sieve"]["quantity"] == 1500
    assert abs(totals["root"]["self_s"] - 0.7) < 1e-12


def _traced_worker(tmp_path, argv):
    import time

    job = {
        "op": "t",
        "argv": argv,
        "trace": True,
        "result": str(tmp_path / "worker.json"),
        "mem_cap_mb": 3072,
        "spawned_at": time.monotonic(),
    }
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
        check=True, env=env, cwd=tmp_path, stdout=subprocess.DEVNULL, timeout=120,
    )
    return json.loads((tmp_path / "worker.json").read_text())


def test_traced_op_self_times_sum_to_op_time(tmp_path):
    out = str(tmp_path / "r.json")
    got = _traced_worker(tmp_path, ["arcs", "--N", "4096", "--A", "1", "--w", "4", "--qmax", "5", "--K", "1", "--out", out])
    assert got["exit_code"] == 0 and got["absent"] == []
    tree = [spans.Span(*s) for s in got["spans"]]
    root = tree[0]
    assert root.name == spans.ROOT_SPAN and root.parent is None
    assert sum(spans.self_times(tree)) == root.end_ns - root.start_ns
    totals = spans.layer_totals(tree)
    # compare_major reaches dft_at through its module binding, cli reaches
    # dft_grid and build_context through names it imported.
    assert totals["expsums.dft_at"]["calls"] > 0
    assert totals["expsums.dft_grid"]["calls"] == 1
    assert totals["wtrick.build_context"]["calls"] == 1
    assert totals["cli.csv"]["quantity"] == os.path.getsize(tmp_path / "r.grid.csv")
    assert totals["gridfft.grid_transform"]["quantity"] == 4096


def test_missing_function_is_reported_absent():
    code = (
        "import spans, psqlab.cli\n"
        "spans.TARGETS['representations.gone'] = ('representations', '_gone', None)\n"
        "print(spans.install(spans.Tracer('t')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(SRC)]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.strip() == "['representations.gone']"
