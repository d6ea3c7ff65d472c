"""psqlab benchmark: CLI commands as a researcher runs them, timed end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload counting --seed 7 --seconds 40 --trace 0

Each op is one psqlab CLI command in a fresh worker process (worker.py), run
by a single client in a closed loop: one worker at a time, the next op starts
when the previous one has ended.  A pass runs every op of the workload once;
passes repeat while another one fits in --seconds.  Every op's report is
checked (check.py).  With --trace 0 the last line of stdout is a JSON object
holding the end-to-end metrics of BENCHMARK.json; with --trace 1 untraced and
traced passes alternate and it holds the per-layer metrics, taken from spans
recorded around calls into psqlab's functions (spans.py).  A readable table
of every metric with its sample count goes to stderr.  --workload all runs
the three workloads one after another, printing one JSON line each.

--seed regenerates every bernoulli:RHO:SEED subset; 7 reproduces the
reference reports.  The seed is echoed in the output.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference" / "seed7.json.gz"
DEFAULT_SEED = 7

MEM_CAP_MB = 3072  # per worker; the largest op at the seed commit peaks near 720 MB RSS
OP_TIMEOUT_S = 120.0
HARD_LIMIT_S = 165.0  # the whole run, including the pass in flight, ends before this
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# (op id, command family, argv).  SEED is replaced by the workload seed and
# OUT by a report path in the op's own output directory.
WORKLOADS = {
    # Exact count tables and the exception scan: representations convolution
    # (guarded FFT and its split fallback) and primes.
    "counting": [
        ("exp_all_4e6", "experiment_s",
         "experiment --s 8 --n-lo 5000 --n-hi 4000000 --spec all"),
        ("exp_res5_2e6", "experiment_s",
         "experiment --s 10 --n-lo 5000 --n-hi 2000000 --spec residues:5:1,4"),
        ("rep_bern_s12", "represent_s",
         "represent --s 12 --limit 1000000 --spec bernoulli:0.97:SEED"),
        ("rep_all_csv", "represent_s",
         "represent --s 8 --limit 1000000 --spec all --check --csv --out OUT"),
    ],
    # Witness search through the residue transfer: wtrick density table and
    # residue selection, representations meet-in-the-middle; no count table.
    "transfer": [
        ("tr_w6_all", "transfer_s", "transfer --w 6 --n 960008 --s 8"),
        ("tr_w6_res7", "transfer_s",
         "transfer --w 6 --n 960008 --s 8 --spec residues:7:1,2,3,4,5"),
        ("tr_w6_bern", "transfer_s",
         "transfer --w 6 --n 480008 --s 8 --spec bernoulli:0.95:SEED"),
        ("tr_w8_all", "transfer_s", "transfer --w 8 --n 960008 --s 8"),
    ],
    # Grid and pointwise transforms, local factors and report/CSV emit; the
    # same arcs command with and without its CSV sidecar.
    "spectral": [
        ("arcs_1m", "arcs_s", "arcs --N 1048576 --A 2 --w 6 --qmax 20 --K 4"),
        ("arcs_csv_256k", "arcs_csv_s",
         "arcs --N 262144 --A 2 --w 6 --qmax 20 --K 4 --out OUT"),
        ("pseudo_1m", "pseudo_s", "pseudo --N 1048576 --K 4 --w-list 4,6,8"),
        ("moments_bern", "restriction_s",
         "moments --w 6 --N 1048576 --q-exponent 5 --spec bernoulli:0.9:SEED"),
        ("levelsets_bern", "restriction_s",
         "levelsets --w 6 --N 1048576 --spec bernoulli:0.9:SEED --levels 0.5,0.1,0.02 --out OUT"),
        ("saq_w6", "local_s", "saq --w 6 --qmax 80 --check"),
        ("gauss_5000", "local_s", "gauss --kmax 5000 --check --out OUT"),
        ("sumset_w10", "local_s", "sumset-verify --w 10"),
    ],
}
FAMILIES = (
    "experiment_s", "represent_s", "transfer_s", "arcs_s",
    "arcs_csv_s", "pseudo_s", "restriction_s", "local_s",
)


def op_argv(template: str, seed: int) -> list[str]:
    return template.replace("SEED", str(seed)).split()


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    with gzip.open(REFERENCE, "rt") as fh:
        return json.load(fh)


class Runner:
    """Runs ops one at a time in fresh worker processes and checks them."""

    def __init__(self, workload: str, seed: int, started: float):
        self.seed = seed
        self.deadline = started + HARD_LIMIT_S
        self.run_dir = OUT_DIR / f"{workload}-s{seed}-{os.getpid()}"
        self.reference = load_reference()
        env = dict(os.environ)
        env.pop("PSQ_LAB_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        env.update({name: "1" for name in THREAD_VARS})
        self.env = env
        self.spans: list = []
        self.results: list[dict] = []

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def _spawn(self, op: str, argv: list[str], trace: bool, op_dir: Path) -> dict:
        result_path = op_dir / "worker.json"
        job = {
            "op": op,
            "argv": argv,
            "trace": trace,
            "result": str(result_path),
            "mem_cap_mb": MEM_CAP_MB,
        }
        timeout = min(OP_TIMEOUT_S, self.time_left())
        with open(op_dir / "stdout", "wb") as out, open(op_dir / "stderr", "wb") as err:
            job["spawned_at"] = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                stdout=out, stderr=err, env=self.env, cwd=op_dir,
            )
            try:
                proc.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return {"status": "timeout", "exit_code": None, "op_s": timeout}
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if not result_path.exists():
            tail = (op_dir / "stderr").read_text(errors="replace")[-400:]
            return {"status": f"worker died (code {proc.returncode}): {tail}", "exit_code": None}
        with open(result_path) as fh:
            return json.load(fh)

    def warm_up(self) -> None:
        """Import psqlab once, untimed, so bytecode and page caches are filled."""
        op_dir = self.run_dir / "warmup"
        op_dir.mkdir(parents=True, exist_ok=True)
        got = self._spawn("warmup", [], False, op_dir)
        shutil.rmtree(op_dir, ignore_errors=True)
        if got.get("status") != "ok":
            raise SystemExit(f"perfbench: cannot import psqlab from {ROOT / 'src'}: {got}")

    def run_op(self, op, family, template, pass_no, trace, keep_report=False) -> dict:
        op_dir = self.run_dir / f"p{pass_no}-{op}"
        op_dir.mkdir(parents=True, exist_ok=True)
        report_path = op_dir / "report.json"
        argv = [str(report_path) if a == "OUT" else a for a in op_argv(template, self.seed)]
        got = self._spawn(op, argv, trace, op_dir)
        problems, report = self._check(op, template, got, op_dir, report_path)
        shutil.rmtree(op_dir, ignore_errors=True)
        record = {
            "op": op,
            "family": family,
            "pass": pass_no,
            "traced": trace,
            "op_s": got.get("op_s"),
            "setup_s": got.get("setup_s"),
            "maxrss_mb": got.get("maxrss_mb"),
            "absent": got.get("absent", []),
            "problems": problems,
            "failed": bool(problems),
            "unexpected": [p for p in problems if not check.is_known_defect(op, *p)],
        }
        op_spans = [spans.Span(*s) for s in got.get("spans", [])]
        if op_spans:
            root = op_spans[0]
            record["accounted"] = sum(spans.self_times(op_spans)) == root.end_ns - root.start_ns
            record["layers"] = spans.layer_totals(op_spans)
            self.spans.extend(op_spans)
        if keep_report:
            record["report"] = report
        self.results.append(record)
        return record

    def _check(self, op, template, got, op_dir, report_path):
        """(problems as (kind, detail) pairs, the parsed report or None)."""
        if got.get("status") != "ok":
            return [("exit", str(got.get("status")))], None
        if got.get("exit_code") != 0:
            return [("exit", f"exit code {got.get('exit_code')}")], None
        source = report_path if report_path.exists() else op_dir / "stdout"
        try:
            report = json.loads(source.read_text())
        except (OSError, ValueError) as exc:
            return [("report", f"unreadable report: {exc}")], None
        problems = [("invariant", p) for p in check.invariants(report)]
        ref = self.reference.get(op)
        if ref is not None and ref["argv"] == op_argv(template, self.seed):
            problems += [("reference", d) for d in check.compare(ref["report"], report)[:5]]
        for csv_path in sorted(op_dir.glob("*.csv")):
            problems += [("csv", p) for p in check.csv_problems(str(csv_path))]
        return problems, report

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def run_passes(runner: Runner, ops, seconds: float, trace: bool) -> list[dict]:
    """Closed loop over passes; with trace, untraced and traced passes alternate."""
    kinds = [False, True] if trace else [False]
    passes: list[dict] = []
    started = time.monotonic()
    last = {}
    while True:
        kind = kinds[len(passes) % len(kinds)]
        elapsed = time.monotonic() - started
        if len(passes) >= len(kinds) and elapsed + last.get(kind, 0.0) > seconds:
            break
        t0 = time.monotonic()
        records = []
        for op, family, template in ops:
            if runner.time_left() < 2.0:
                break
            records.append(runner.run_op(op, family, template, len(passes), kind))
        last[kind] = time.monotonic() - t0
        complete = len(records) == len(ops)
        passes.append({"traced": kind, "records": records, "complete": complete})
        if not complete:
            break
    return passes


def _median(values):
    return statistics.median(values) if values else 0.0


def pass_wall(p: dict) -> float:
    return sum(r["op_s"] or 0.0 for r in p["records"])


def typical_pass(passes: list[dict]) -> dict:
    """Totals of a typical pass: each op's median over the passes, summed by family.

    Medians are per op, so one slow op in one pass does not move the result.
    """
    times: dict[str, list[float]] = {}
    rss: dict[str, list[float]] = {}
    family = {}
    for p in passes:
        for r in p["records"]:
            times.setdefault(r["op"], []).append(r["op_s"] or 0.0)
            rss.setdefault(r["op"], []).append(r["maxrss_mb"] or 0.0)
            family[r["op"]] = r["family"]
    op_s = {op: _median(ts) for op, ts in times.items()}
    totals = {f: sum(t for op, t in op_s.items() if family[op] == f) for f in FAMILIES}
    totals["wall_s"] = sum(op_s.values())
    totals["peak_rss_mb"] = max((_median(v) for v in rss.values()), default=0.0)
    return totals


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one traced pass, keyed module.function.quantity."""
    merged: dict[str, dict[str, float]] = {}
    for r in p["records"]:
        for name, entry in r.get("layers", {}).items():
            into = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "quantity": 0.0})
            for key, value in entry.items():
                into[key] += value
    return merged


def layer_value(merged: dict, metric: str) -> float:
    if metric == "representations.conv_fallback_frac":
        fft = merged.get("representations.conv_fft", {}).get("calls", 0)
        split = merged.get("representations.conv_split", {}).get("calls", 0)
        return split / fft if fft else 0.0
    span, _, quantity = metric.rpartition(".")
    entry = merged.get(span)
    if entry is None:
        return 0.0
    return entry[quantity if quantity in ("calls", "self_s") else "quantity"]


def measure(workload: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    started = time.monotonic()
    runner = Runner(workload, seed, started)
    try:
        runner.warm_up()
        passes = run_passes(runner, WORKLOADS[workload], seconds, trace)
    finally:
        runner.close()
    records = runner.results
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    correct = not any(r["unexpected"] for r in records)

    full = [p for p in passes if p["complete"]]
    plain = [p for p in full if not p["traced"]]
    values: dict[str, float] = typical_pass(plain)
    samples: dict[str, int] = {key: len(plain) for key in values}
    setups = [r["setup_s"] for r in records if r["setup_s"] is not None]
    values["setup_s"], samples["setup_s"] = _median(setups), len(setups)
    values["ops_ok_frac"] = (attempted - failed) / attempted if attempted else 0.0
    samples["ops_ok_frac"] = attempted

    accounting = None
    if trace:
        traced = [p for p in full if p["traced"]]
        merged = [layer_metrics(p) for p in traced]
        for metric in bench["per_layer"]:
            name = metric["name"]
            if name in values:
                continue
            if name == "trace.overhead_s":
                values[name] = typical_pass(traced)["wall_s"] - values["wall_s"]
            else:
                values[name] = _median([layer_value(m, name) for m in merged])
            samples[name] = len(merged)
        traced_ops = [r for r in records if "accounted" in r]
        accounting = (sum(r["accounted"] for r in traced_ops), len(traced_ops))
        write_trace(runner.spans, workload, seed)

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    absent = sorted({a for r in records for a in r["absent"]})
    report_table(workload, seed, passes, records, values, samples, bench, trace, accounting, absent)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_trace(all_spans: list, workload: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{workload}-s{seed}.jsonl", "w") as fh:
        for s in all_spans:
            fh.write(json.dumps(s._asdict()) + "\n")


def report_table(workload, seed, passes, records, values, samples, bench, trace,
                 accounting, absent) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    err = sys.stderr
    kinds = "untraced + traced" if trace else "untraced"
    err.write(f"psqlab benchmark  workload={workload}  seed={seed}  "
              f"passes={len(passes)} ({kinds})  ops={len(records)}\n")
    names = [m["name"] for m in bench["end_to_end"]]
    names += [f for f in FAMILIES if f not in names]
    if trace:
        names += [m["name"] for m in bench["per_layer"] if m["name"] not in names]
    for name in names:
        err.write(f"  {name:<46} {values[name]:>14.6g} {units.get(name, 's'):<6} "
                  f"n={samples[name]}\n")
    walls = [f"{pass_wall(p):.3f}" for p in passes if p["complete"]]
    err.write(f"  pass wall times (s): {' '.join(walls)}\n")
    setups = sorted(r["setup_s"] for r in records if r["setup_s"] is not None)
    if len(setups) >= 2:
        q = statistics.quantiles(setups, n=4)
        err.write(f"  setup_s quartiles (s): {q[0]:.4f} {q[1]:.4f} {q[2]:.4f}  "
                  f"min {setups[0]:.4f} max {setups[-1]:.4f}\n")
    for r in records:
        if r["problems"]:
            tag = "known defect" if not r["unexpected"] else "FAILED"
            err.write(f"  {tag}: {r['op']} (pass {r['pass']}): {r['problems'][0][1]}\n")
    if accounting is not None:
        err.write(f"  trace accounting: span self times sum to the op time on "
                  f"{accounting[0]} of {accounting[1]} traced ops\n")
    if absent:
        err.write(f"  absent from psqlab (reported as 0): {', '.join(absent)}\n")
    by_op: dict[str, list[float]] = {}
    for r in records:
        if not r["traced"] and r["op_s"] is not None:
            by_op.setdefault(r["op"], []).append(r["op_s"])
    for op, times in by_op.items():
        err.write(f"  op {op:<20} median {_median(times):8.3f} s  n={len(times)}\n")
    err.flush()


def record_reference() -> None:
    """Write the seed-7 reference reports from one untraced pass of each workload."""
    out = {}
    for workload, ops in WORKLOADS.items():
        runner = Runner(workload, DEFAULT_SEED, time.monotonic())
        runner.reference = {}
        try:
            for op, family, template in ops:
                record = runner.run_op(op, family, template, 0, False, keep_report=True)
                if any(kind != "csv" for kind, _ in record["problems"]):
                    raise SystemExit(f"perfbench: {op} failed: {record['problems']}")
                out[op] = {
                    "argv": op_argv(template, DEFAULT_SEED),
                    "report": check.normalized(record["report"]),
                }
        finally:
            runner.close()
    REFERENCE.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(out, sort_keys=True, separators=(",", ":")).encode())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the seed-7 reference reports from this checkout")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "psqlab" / "__init__.py").is_file() or not bench_path.is_file():
        sys.stderr.write(f"perfbench: no psqlab checkout at {ROOT} (need src/psqlab and BENCHMARK.json)\n")
        return 2
    bench = json.loads(bench_path.read_text())
    if args.record_reference:
        record_reference()
        return 0
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        result = measure(workload, args.seed, seconds, bool(args.trace), bench)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
