"""Command-line entry point.

Every subcommand writes a JSON report embedding the resolved configuration,
the tool version, and the log convention used for arc cutoffs, so a run can
be reproduced from its own output.  Reports go to --out atomically (temp
file plus rename); CSV sidecars land next to the report.

Exit codes: 0 success, 1 verification failure (an oracle disagreed), 2 usage.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from ._csvio import write_csv
from ._gridfft import MAX_LAYER_CELLS, sumset_power
from .errors import Infeasible, NotFound, PsqLabError, TooLarge
from .expsums import (
    MAX_GAUSS_MODULUS,
    arc_partition,
    compare_major,
    dft_grid,
    gauss_sum,
    gauss_sum_row,
    indicator_transform_grid,
    major_arc_model,
    minor_arc_scan,
    pseudorandom_sup,
    s_closed,
    s_direct,
    unit_mask,
)
from .arith import factorize
from .primes import PrimeSubsetSpec, sieve
from .representations import (
    count_budget,
    count_representations,
    m_window_deviation,
    member_roots,
    scan_lattice,
    theorem_experiment,
    transfer_witness,
)
from .restriction import dyadic_profile, fourth_moment_routes, level_sets, lq_moment
from .sumsets import exhaustive_lemma_check
from .wtrick import build_context, f_sequence, nu_sequence

ENV_THREADS = "PSQ_LAB_THREADS"


# -- plumbing -----------------------------------------------------------------


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".psqlab-{os.urandom(8).hex()}.tmp")
    # mode 0666 before the umask, as open() gives the CSV sidecars
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _sidecar(out: Optional[str], suffix: str) -> Optional[str]:
    if not out:
        return None
    stem, _ = os.path.splitext(out)
    return f"{stem}.{suffix}.csv"


def _report(command: str, config: dict, result: dict) -> dict:
    return {
        "tool": "psqlab",
        "version": __version__,
        "command": command,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "log_base_for_Q": "e",
        "config": config,
        "result": result,
    }


def _parse_spec(text: Optional[str], seed: Optional[int]) -> PrimeSubsetSpec:
    """Accept a JSON object or the inline forms all, residues:Q:c1,c2,...,
    bernoulli:RHO[:SEED], explicit:p1,p2,..."""
    if not text or text == "all":
        return PrimeSubsetSpec.all_primes()
    if text.lstrip().startswith("{"):
        return PrimeSubsetSpec.from_json(text)
    head, _, rest = text.partition(":")
    if head == "residues":
        mod_text, _, class_text = rest.partition(":")
        classes = [int(c) for c in class_text.split(",") if c]
        return PrimeSubsetSpec.residue_classes(int(mod_text), classes)
    if head == "bernoulli":
        rho_text, _, seed_text = rest.partition(":")
        eff_seed = int(seed_text) if seed_text else (seed if seed is not None else 0)
        return PrimeSubsetSpec.bernoulli(float(rho_text), eff_seed)
    if head == "explicit":
        return PrimeSubsetSpec.explicit(int(p) for p in rest.split(",") if p)
    raise ValueError(f"cannot parse subset spec {text!r}")


def _resolve_threads(value: Optional[int]) -> int:
    if value is not None:
        return max(1, value)
    env = os.environ.get(ENV_THREADS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


# -- subcommand handlers --------------------------------------------------------


def _cmd_context(args) -> tuple[dict, int]:
    ctx = build_context(args.w)
    return {"context": ctx.to_json()}, 0


def _cmd_gauss(args) -> tuple[dict, int]:
    kmax = args.kmax
    if kmax > MAX_GAUSS_MODULUS:
        raise TooLarge(f"--kmax {kmax} exceeds bound {MAX_GAUSS_MODULUS}")
    violations = []
    worst = 0.0
    rows = []
    for k in range(1, kmax + 1):
        if k % 2 == 0:
            continue
        fac = factorize(k)
        if not fac.is_squarefree():
            continue
        omega = len(fac.prime_powers)
        bound = (2**omega) * math.sqrt(k)
        row = gauss_sum_row(k)
        units = np.flatnonzero(unit_mask(fac))  # [0] at k = 1
        mags = np.abs(row[units])
        ratio = float(np.max(mags) / bound)
        worst = max(worst, ratio)
        rows.append((k, float(np.max(mags)), bound))
        bad = units[mags > bound + 1e-9]
        violations.extend((k, int(r)) for r in bad)
    result = {
        "kmax": kmax,
        "reference": {
            "G(1,1)": [1.0, 0.0],
            "G(3,1)": [gauss_sum(3, 1).real, gauss_sum(3, 1).imag],
            "G(5,1)": [gauss_sum(5, 1).real, gauss_sum(5, 1).imag],
        },
        "max_ratio_to_bound": worst,
        "violations": [list(v) for v in violations],
    }
    csv_path = _sidecar(args.out, "gauss")
    if csv_path:
        write_csv(csv_path, ["k", "max_abs", "bound"], list(zip(*rows)))
        result["csv"] = csv_path
    code = 1 if (args.check and violations) else 0
    return result, code


def _cmd_saq(args) -> tuple[dict, int]:
    ctx = build_context(args.w)
    bs = [args.b] if args.b is not None else list(ctx.Z_W)
    worst = 0.0
    zero_violation = 0.0
    per_q: dict[int, float] = {}
    for b in bs:
        for q in range(1, args.qmax + 1):
            units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
            for direct in s_direct(ctx, b, q, units):
                closed = s_closed(ctx, b, q, direct.a)
                diff = abs(direct.value - closed.value)
                worst = max(worst, diff)
                per_q[q] = max(per_q.get(q, 0.0), diff)
                if closed.case_tag in ("zero_gcd", "zero_q2"):
                    zero_violation = max(zero_violation, abs(direct.value))
    ok = worst <= 1e-9 and zero_violation <= 1e-9
    result = {
        "w": args.w,
        "b": bs,
        "qmax": args.qmax,
        "max_abs_difference": worst,
        "max_abs_on_vanishing_cases": zero_violation,
        "per_q_max": {str(q): v for q, v in sorted(per_q.items())},
        "ok": ok,
    }
    return result, 0 if (ok or not args.check) else 1


def _make_table_for_sequences(w: int, N: int):
    ctx = build_context(w)
    top = math.isqrt(ctx.W * N + max(ctx.Z_W)) + 1
    return ctx, sieve(max(top, 100))


def _cmd_arcs(args) -> tuple[dict, int]:
    partition = arc_partition(args.N, args.A)
    result = {
        "N": args.N,
        "A": args.A,
        "Q": partition.Q,
        "arc_count": len(partition.arcs),
        "major_measure": partition.major_measure(),
        "minor_measure": partition.minor_measure(),
    }
    if args.w is not None:
        ctx, table = _make_table_for_sequences(args.w, args.N)
        b = args.b if args.b is not None else ctx.Z_W[0]
        seq = nu_sequence(ctx, b, args.N, table)
        model = lambda q, a, alpha: major_arc_model(ctx, b, q, a, alpha, args.N)
        major = compare_major(seq, partition, model, qmax=args.qmax)
        grid = dft_grid(seq, args.K)
        minor = minor_arc_scan(grid, partition)
        result["w"] = args.w
        result["b"] = b
        result["major"] = major.to_json()
        result["minor"] = minor.to_json()
        csv_path = _sidecar(args.out, "grid")
        if csv_path:
            grid.to_csv(csv_path)
            result["csv"] = csv_path
    return result, 0


def _cmd_pseudo(args) -> tuple[dict, int]:
    ws = [int(t) for t in args.w_list.split(",") if t]
    reference = indicator_transform_grid(args.N, args.K)  # validates N, K and the grid budget
    rows = []
    for w in ws:
        ctx, table = _make_table_for_sequences(w, args.N)
        b = ctx.Z_W[0]
        seq = nu_sequence(ctx, b, args.N, table)
        sup = pseudorandom_sup(seq, args.K, reference)
        rows.append({"w": w, "b": b, "W": ctx.W, "sup": sup, "sup_over_N": sup / args.N})
    nonincreasing = all(
        rows[i + 1]["sup_over_N"] <= rows[i]["sup_over_N"] * 1.10
        for i in range(len(rows) - 1)
    )
    return {
        "N": args.N,
        "K": args.K,
        "rows": rows,
        "nonincreasing_within_slack": nonincreasing,
    }, 0


def _cmd_moments(args) -> tuple[dict, int]:
    ctx, table = _make_table_for_sequences(args.w, args.N)
    b = args.b if args.b is not None else ctx.Z_W[0]
    spec = _parse_spec(args.spec, args.seed)
    seq = f_sequence(ctx, b, args.N, spec, table)
    grid_route, auto_route = fourth_moment_routes(seq)  # its budget check runs first
    report = lq_moment(seq, args.q_exponent, args.K)
    return {
        "w": args.w,
        "b": b,
        "spec": spec.to_json(),
        "lq": report.to_json(),
        "fourth_moment": {
            "grid_route": grid_route,
            "autocorrelation_route": auto_route,
            "rel_difference": abs(grid_route - auto_route) / max(abs(grid_route), 1e-300),
        },
    }, 0


def _cmd_levelsets(args) -> tuple[dict, int]:
    ctx, table = _make_table_for_sequences(args.w, args.N)
    b = args.b if args.b is not None else ctx.Z_W[0]
    spec = _parse_spec(args.spec, args.seed)
    seq = f_sequence(ctx, b, args.N, spec, table)
    profile = dyadic_profile(seq, q_exponent=args.q_exponent)
    result = {
        "w": args.w,
        "b": b,
        "spec": spec.to_json(),
        "N": args.N,
        "levels": list(profile.levels),
        "counts": [int(c) for c in profile.counts],
        "chebyshev_bound": list(profile.chebyshev_bound),
        "fitted_slope": profile.slope,
        "reference_slopes": {
            "fourth_moment": profile.ref_slope_moment,
            "target": profile.ref_slope_target,
        },
    }
    if args.levels:
        curve = level_sets(seq, [float(u) for u in args.levels.split(",")])
        result["requested_levels"] = {
            "u": list(curve.u_values),
            "counts": [int(c) for c in curve.counts],
        }
    csv_path = _sidecar(args.out, "levels")
    if csv_path:
        profile.to_csv(csv_path)
        result["csv"] = csv_path
    return result, 0


def _cmd_sumset_verify(args) -> tuple[dict, int]:
    ctx = build_context(args.w)
    report = exhaustive_lemma_check(ctx)
    return {"lemma": report.to_json()}, 1 if report.failures else 0


def _count_violations(counts: np.ndarray, s: int, spec: PrimeSubsetSpec, table) -> np.ndarray:
    """Sorted n with a nonzero count off n = s (mod 24), together with the n
    where "count is nonzero" disagrees with a stride-1 route that never
    touches the lattice the counts were built on.  With m0 the least member
    square, no n below s*m0 is a sum of s member squares, and on the window
    of 2^12 + 1 values from s*m0 the sums are s*m0 plus the s-fold sumset of
    the member squares less m0.  The window costs a few ms at any s; it
    shrinks only past s = 65,000, to stay in sumset_power's budget, so no
    input that ran before now exits 2."""
    limit = len(counts) - 1
    nonzero = counts != 0
    bad = nonzero.copy()
    bad[s % 24 :: 24] = False
    squares = member_roots(spec, table, limit) ** 2
    lo = min(s * int(squares[0]), limit + 1) if len(squares) else limit + 1
    bad[:lo] = nonzero[:lo]
    width = max(0, min(limit + 1 - lo, (1 << 12) + 1, MAX_LAYER_CELLS // (s + 1)))
    if width:
        reached = sumset_power(squares - squares[0], s, width - 1)
        bad[lo : lo + width] |= nonzero[lo : lo + width] != reached
    return np.flatnonzero(bad)


def _cmd_represent(args) -> tuple[dict, int]:
    spec = _parse_spec(args.spec, args.seed)
    if args.n_lo is None and args.limit < 25 * args.s:
        raise ValueError(
            f"--limit {args.limit} is below the default --n-lo 25 * s = {25 * args.s}; "
            "give a larger --limit or an explicit --n-lo"
        )
    scan_lattice(args.s, spec, args.limit)
    csv_path = _sidecar(args.out, "counts") if args.csv else None
    if args.check or csv_path:
        count_budget(args.limit, args.s)
    table = sieve(max(args.limit, 100))
    lo = args.n_lo if args.n_lo is not None else args.s * 25
    report = theorem_experiment(args.s, spec, (lo, args.limit), table)
    result = report.to_json()
    code = 0
    if args.check or csv_path:
        counts = count_representations(args.limit, args.s, spec, table)
    if args.check and spec.min_prime >= 5:
        bad = _count_violations(counts.counts, args.s, spec, table)
        result["congruence_scan_violations"] = [int(x) for x in bad[:20]]
        if len(bad):
            code = 1
    if csv_path:
        counts.to_csv(csv_path)
        result["csv"] = csv_path
    return result, code


def _cmd_transfer(args) -> tuple[dict, int]:
    ctx = build_context(args.w)
    spec = _parse_spec(args.spec, args.seed)
    N = max(1, (2 * args.n) // (args.s * ctx.W))
    top = math.isqrt(ctx.W * N + max(ctx.Z_W)) + 1
    table = sieve(max(top, math.isqrt(args.n) + 1, 100))
    result: dict = {
        "w": args.w,
        "n": args.n,
        "s": args.s,
        "kappa": args.kappa,
        "spec": spec.to_json(),
        "window_length": N,
        "m_window_deviation": m_window_deviation(ctx, args.n, args.s),
    }
    try:
        witness = transfer_witness(ctx, args.n, args.s, spec, table, kappa=args.kappa)
        result["status"] = "found"
        result["witness"] = witness.to_json()
    except Infeasible as exc:
        result["status"] = "infeasible"
        result["detail"] = str(exc)
    except NotFound as exc:
        result["status"] = "not_found"
        result["detail"] = str(exc)
    return result, 0


def _cmd_experiment(args) -> tuple[dict, int]:
    spec = _parse_spec(args.spec, args.seed)
    scan_lattice(args.s, spec, args.n_hi)
    table = sieve(max(args.n_hi, 100))
    report = theorem_experiment(args.s, spec, (args.n_lo, args.n_hi), table)
    return report.to_json(), 0


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psqlab",
        description="Experiments on sums of squares of primes from dense prime subsets",
    )
    parser.add_argument("--version", action="version", version=f"psqlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report here (atomic)")
        p.add_argument("--threads", type=int, default=None, help="recorded only; no effect")
        p.add_argument("--seed", type=int, default=None, help="seed for inline bernoulli specs")
        return p

    p = common(sub.add_parser("context", help="W-trick environment for a given w"))
    p.add_argument("--w", type=int, required=True)
    p.set_defaults(handler=_cmd_context)

    p = common(sub.add_parser("gauss", help="quadratic Gauss sum magnitudes and bound"))
    p.add_argument("--kmax", type=int, default=1000)
    p.add_argument("--check", action="store_true")
    p.set_defaults(handler=_cmd_gauss)

    p = common(sub.add_parser("saq", help="local factor: closed form vs direct sum"))
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--qmax", type=int, default=60)
    p.add_argument("--check", action="store_true")
    p.set_defaults(handler=_cmd_saq)

    p = common(sub.add_parser("arcs", help="arc partition; model comparison with --w"))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--A", type=float, default=2.0)
    p.add_argument("--K", type=int, default=4)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--qmax", type=int, default=20)
    p.set_defaults(handler=_cmd_arcs)

    p = common(sub.add_parser("pseudo", help="sup distance to the interval transform"))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--K", type=int, default=4)
    p.add_argument("--w-list", default="4,6,8")
    p.set_defaults(handler=_cmd_pseudo)

    p = common(sub.add_parser("moments", help="L^q moment and fourth-moment routes"))
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--K", type=int, default=4)
    p.add_argument("--q-exponent", type=float, default=5.0)
    p.add_argument("--spec", default="all")
    p.set_defaults(handler=_cmd_moments)

    p = common(sub.add_parser("levelsets", help="level-set counts and dyadic profile"))
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--q-exponent", type=float, default=5.0)
    p.add_argument("--spec", default="all")
    p.add_argument("--levels", default=None, help="comma-separated decreasing levels")
    p.set_defaults(handler=_cmd_levelsets)

    p = common(sub.add_parser("sumset-verify", help="exhaustive subset cover check"))
    p.add_argument("--w", type=int, required=True)
    p.set_defaults(handler=_cmd_sumset_verify)

    p = common(sub.add_parser("represent", help="representation counts and exceptions"))
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--n-lo", type=int, default=None)
    p.add_argument("--spec", default="all")
    p.add_argument("--check", action="store_true", help="scan the congruence invariant")
    p.add_argument("--csv", action="store_true", help="write nonzero counts as CSV")
    p.set_defaults(handler=_cmd_represent)

    p = common(sub.add_parser("transfer", help="witness through the residue transfer"))
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=8)
    p.add_argument("--kappa", type=float, default=0.1)
    p.add_argument("--spec", default="all")
    p.set_defaults(handler=_cmd_transfer)

    p = common(sub.add_parser("experiment", help="density experiment over a range"))
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    p.add_argument("--spec", default="all")
    p.set_defaults(handler=_cmd_experiment)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    args.threads_resolved = _resolve_threads(args.threads)
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("handler",) and not k.startswith("_")
    }
    try:
        result, code = args.handler(args)
        report = _report(args.command, config, result)
        _emit(report, args.out)
    except (PsqLabError, ValueError, OSError) as exc:
        sys.stderr.write(f"psqlab: error: {exc}\n")
        return 2
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
