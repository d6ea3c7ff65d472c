"""Command-line entry point.

Every subcommand writes a JSON report embedding the resolved configuration,
the tool version, and the log convention used for arc cutoffs, so a run can
be reproduced from its own output.  Reports go to --out atomically (temp
file plus rename); CSV sidecars land next to the report.

Exit codes: 0 success, 1 verification failure (an oracle disagreed, or a
computation's own second route or self-check failed:
VerificationError), 2 usage (ValueError, OSError) or out of memory (MemoryError).
"""

from __future__ import annotations

import datetime
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import __version__
from .errors import Infeasible, NotFound, TooLarge, VerificationError
from .arith import factorize, unit_mask
from .primes import PrimeSubsetSpec
from .representations import (
    count_budget,
    count_representations,
    count_violations,
    m_window_deviation,
    theorem_experiment,
    transfer_witness,
    window_length,
)
from .wtrick import build_context, f_sequence, nu_sequence

# expsums, restriction, sumsets and _csvio are imported by the handlers that
# call them, so a transfer, experiment or represent line never loads them.

FOURTH_MOMENT_TOL = 1e-6  # largest relative gap between the fourth moment's two routes


# -- plumbing -----------------------------------------------------------------


_INT_BATCH = 1 << 12  # plain ints formatted per %-template
_FLUSH_CHARS = 1 << 16  # the most report text buffered before a write


def _scalar(o) -> str:
    """A JSON scalar as json.dumps(allow_nan=False) writes it: TypeError for
    what json rejects, ValueError for nan and +-inf."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or isinstance(o, bool):
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _pieces(o, nl: str):
    """The text of json.dumps(o, sort_keys=True, indent=2) in pieces, nl a
    newline and o's indent.  json's indent encoder is pure Python, a call per
    element; here a list's plain ints are formatted in C, one %d-template per
    _INT_BATCH of them (%d on an exact int is int.__repr__).
    A 1-D int64 array, which json rejects, is written as its list of ints."""
    inner = nl + "  "
    array = isinstance(o, np.ndarray) and o.dtype == np.int64 and o.ndim == 1
    if not (array or isinstance(o, (dict, list, tuple))):
        yield _scalar(o)
    elif not len(o):
        yield "{}" if isinstance(o, dict) else "[]"
    elif isinstance(o, dict):
        for i, (key, value) in enumerate(sorted(o.items())):
            key = encode_basestring_ascii(key if isinstance(key, str) else _scalar(key))
            yield ("," if i else "{") + inner + key + ": "
            yield from _pieces(value, inner)
        yield nl + "}"
    else:
        sep = "," + inner
        for lo in range(0, len(o), _INT_BATCH):
            batch = o[lo : lo + _INT_BATCH]
            yield sep if lo else "[" + inner
            if array:
                batch = batch.tolist()
            if array or set(map(type, batch)) == {int}:
                yield sep.join(["%d"] * len(batch)) % tuple(batch)
                continue
            for i, x in enumerate(batch):
                yield sep if i else ""
                yield from _pieces(x, inner)
        yield nl + "]"


def _dump(report: dict, fh) -> None:
    """json.dumps(report, sort_keys=True, indent=2) and a newline, written
    each time _FLUSH_CHARS of it are buffered: the text is never held whole."""
    parts, size = [], 0
    for text in _pieces(report, "\n"):
        parts.append(text)
        size += len(text)
        if size >= _FLUSH_CHARS:
            fh.write("".join(parts))
            parts, size = [], 0
    fh.write("".join(parts) + "\n")


def _emit(report: dict, out: Optional[str]) -> None:
    """The report to stdout, or to out atomically: a temp file beside it, renamed."""
    if not out:
        _dump(report, sys.stdout)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    tmp = os.path.join(directory, f".psqlab-{os.urandom(8).hex()}.tmp")
    # mode 0666 before the umask, as open() gives the CSV sidecars
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            _dump(report, fh)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sidecar(result: dict, out: Optional[str], suffix: str, write) -> None:
    """With a report path out, write(path) a CSV sidecar beside it and name it in result."""
    if out:
        path = f"{os.path.splitext(out)[0]}.{suffix}.csv"
        write(path)
        result["csv"] = path


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


def finite_float(text: str) -> float:
    """float(text), and ValueError for nan and +-inf: the type of every float
    option, and of each --levels entry, so no report holds NaN or Infinity
    from an option."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _sequence(args, spec_text: str):
    """(ctx, b, spec, seq) of a command with --w, --b and --N: the context
    of w, b or by default the least residue of Z(W), the subset spec_text
    and its sequence on [1, N]."""
    ctx = build_context(args.w)
    b = args.b if args.b is not None else ctx.Z_W[0]
    spec = _parse_spec(spec_text, args.seed)
    return ctx, b, spec, f_sequence(ctx, b, args.N, spec)


# -- subcommand handlers --------------------------------------------------------


def _cmd_context(args) -> tuple[dict, int]:
    ctx = build_context(args.w)
    return {"context": ctx.to_json()}, 0


def _cmd_gauss(args) -> tuple[dict, int]:
    from ._csvio import write_csv
    from .expsums import MAX_GAUSS_MODULUS, gauss_sum, gauss_sum_row

    kmax = args.kmax
    if kmax > MAX_GAUSS_MODULUS:
        raise TooLarge(f"--kmax {kmax} exceeds bound {MAX_GAUSS_MODULUS}")
    violations, rows, worst = [], [], 0.0
    for k in range(1, kmax + 1):
        if k % 2 == 0:
            continue
        pairs = factorize(k)
        if any(e > 1 for _, e in pairs):
            continue
        bound = (2 ** len(pairs)) * math.sqrt(k)
        row = gauss_sum_row(k)
        units = np.flatnonzero(unit_mask(k, pairs))  # [0] at k = 1
        mags = np.abs(row[units])
        worst = max(worst, float(np.max(mags) / bound))
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
    header = ["k", "max_abs", "bound"]
    _sidecar(result, args.out, "gauss", lambda path: write_csv(path, header, list(zip(*rows))))
    return result, 1 if (args.check and violations) else 0


def _cmd_saq(args) -> tuple[dict, int]:
    from .expsums import MAX_LOCAL_FACTOR_Q, s_closed, s_direct, vanishes

    ctx = build_context(args.w)
    if args.qmax > MAX_LOCAL_FACTOR_Q:  # refused before any q, not at the first q past it
        raise TooLarge(f"--qmax {args.qmax} exceeds bound {MAX_LOCAL_FACTOR_Q}")
    bs = [args.b] if args.b is not None else list(ctx.Z_W)
    worst = 0.0
    zero_violation = 0.0
    per_q: dict[int, float] = {}
    for b in bs:
        for q in range(1, args.qmax + 1):
            units = np.flatnonzero(unit_mask(q)).tolist()  # [0] at q = 1: the class of 1
            zero = vanishes(q, ctx.W)
            for a, direct in zip(units, s_direct(ctx, b, q, units)):
                diff = abs(direct - s_closed(ctx, b, q, a))
                worst = max(worst, diff)
                per_q[q] = max(per_q.get(q, 0.0), diff)
                if zero:
                    zero_violation = max(zero_violation, abs(direct))
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


def _cmd_arcs(args) -> tuple[dict, int]:
    from .expsums import arc_partition, compare_major, dft_grid, minor_arc_scan

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
        ctx, b, _, seq = _sequence(args, "all")  # the majorant nu
        result["major"] = compare_major(ctx, b, seq, partition, args.qmax)
        grid = dft_grid(seq, args.K)
        result["minor"] = minor_arc_scan(grid, partition)
        result["w"] = args.w
        result["b"] = b
        _sidecar(result, args.out, "grid", grid.to_csv)
    return result, 0


def _cmd_pseudo(args) -> tuple[dict, int]:
    from .expsums import indicator_transform_grid, pseudorandom_sup

    ws = [int(t) for t in args.w_list.split(",") if t]
    reference = indicator_transform_grid(args.N, args.K)  # validates N, K and the grid budget
    rows = []
    for w in ws:
        ctx = build_context(w)
        b = ctx.Z_W[0]
        seq = nu_sequence(ctx, b, args.N)
        sup = pseudorandom_sup(seq, args.K, reference)
        rows.append({"w": w, "b": b, "W": ctx.W, "sup": sup, "sup_over_N": sup / args.N})
    nonincreasing = all(b["sup_over_N"] <= a["sup_over_N"] * 1.10 for a, b in zip(rows, rows[1:]))
    return {
        "N": args.N,
        "K": args.K,
        "rows": rows,
        "nonincreasing_within_slack": nonincreasing,
    }, 0


def _cmd_moments(args) -> tuple[dict, int]:
    from .restriction import fourth_moment_routes, lq_moment

    _, b, spec, seq = _sequence(args, args.spec)
    grid_route, auto_route = fourth_moment_routes(seq)  # its budget check runs first
    rel_difference = abs(grid_route - auto_route) / max(abs(grid_route), 1e-300)
    if rel_difference > FOURTH_MOMENT_TOL:
        raise VerificationError(
            f"fourth-moment routes disagree: {grid_route!r} vs {auto_route!r}"
        )
    return {
        "w": args.w,
        "b": b,
        "spec": spec.to_json(),
        "lq": lq_moment(seq, args.q_exponent, args.K),
        "fourth_moment": {
            "grid_route": grid_route,
            "autocorrelation_route": auto_route,
            "rel_difference": rel_difference,
        },
    }, 0


def _cmd_levelsets(args) -> tuple[dict, int]:
    from .restriction import dyadic_profile, level_sets

    levels = [finite_float(u) for u in args.levels.split(",")] if args.levels else None
    _, b, spec, seq = _sequence(args, args.spec)
    profile = dyadic_profile(seq, q_exponent=args.q_exponent)
    result = {
        "w": args.w,
        "b": b,
        "spec": spec.to_json(),
        "N": args.N,
        "levels": list(profile.levels),
        "counts": list(profile.counts),
        "chebyshev_bound": list(profile.chebyshev_bound),
        "fitted_slope": profile.slope,
        "reference_slopes": {
            "fourth_moment": profile.ref_slope_moment,
            "target": profile.ref_slope_target,
        },
    }
    if levels is not None:
        counts, _ = level_sets(seq, levels)
        result["requested_levels"] = {"u": levels, "counts": list(counts)}
    _sidecar(result, args.out, "levels", profile.to_csv)
    return result, 0


def _cmd_sumset_verify(args) -> tuple[dict, int]:
    from .sumsets import exhaustive_lemma_check

    ctx = build_context(args.w)
    report = exhaustive_lemma_check(ctx)
    return {"lemma": report}, 1 if report["failures"] else 0


def _cmd_represent(args) -> tuple[dict, int]:
    spec = _parse_spec(args.spec, args.seed)
    if args.n_lo is None and args.limit < 25 * args.s:
        raise ValueError(
            f"--limit {args.limit} is below the default --n-lo 25 * s = {25 * args.s}; "
            "give a larger --limit or an explicit --n-lo"
        )
    csv = bool(args.csv and args.out)
    if args.check or csv:
        count_budget(args.limit, args.s)
    lo = args.n_lo if args.n_lo is not None else args.s * 25
    result = theorem_experiment(args.s, spec, (lo, args.limit))
    code = 0
    if args.check or csv:
        counts = count_representations(args.limit, args.s, spec)
    if args.check:
        bad = count_violations(counts, args.s, spec, lo, result["exceptions"])
        result["congruence_scan_violations"] = bad[:20].tolist()
        if len(bad):
            code = 1
    if csv:
        _sidecar(result, args.out, "counts", counts.to_csv)
    return result, code


def _cmd_transfer(args) -> tuple[dict, int]:
    ctx = build_context(args.w)
    spec = _parse_spec(args.spec, args.seed)
    result: dict = {
        "w": args.w,
        "n": args.n,
        "s": args.s,
        "kappa": args.kappa,
        "spec": spec.to_json(),
    }
    try:
        result["witness"] = transfer_witness(ctx, args.n, args.s, spec, kappa=args.kappa)
        result["status"] = "found"
    except (Infeasible, NotFound) as exc:
        result["status"] = "infeasible" if isinstance(exc, Infeasible) else "not_found"
        result["detail"] = str(exc)
    # after transfer_witness, which refuses s < 8 before these divide by s
    result["window_length"] = window_length(ctx, args.n, args.s)
    result["m_window_deviation"] = m_window_deviation(ctx, args.n, args.s)
    return result, 0


def _cmd_experiment(args) -> tuple[dict, int]:
    spec = _parse_spec(args.spec, args.seed)
    return theorem_experiment(args.s, spec, (args.n_lo, args.n_hi)), 0


# -- parser ----------------------------------------------------------------------


def _int(default: Optional[int] = None) -> dict:
    return {"type": int, "default": default}


def _float(default: float) -> dict:
    return {"type": finite_float, "default": default}


_REQUIRED = {"type": int, "required": True}
_FLAG = {"action": "store_true", "default": False}
_SPEC = {"default": "all"}

# every command's options, ahead of its own in help order
_COMMON = {
    "--out": {"help": "write the JSON report here (atomic)"},
    "--threads": {**_int(), "help": "recorded only; no effect"},
    "--seed": {**_int(), "help": "seed for inline bernoulli specs"},
}

# name: (help, handler, options besides _COMMON's, in help order)
_COMMANDS = {
    "context": ("W-trick context for a given w", _cmd_context, {"--w": _REQUIRED}),
    "gauss": (
        "quadratic Gauss sum magnitudes and bound",
        _cmd_gauss,
        {"--kmax": _int(1000), "--check": _FLAG},
    ),
    "saq": (
        "local factor: closed form vs direct sum",
        _cmd_saq,
        {"--w": _REQUIRED, "--b": _int(), "--qmax": _int(60), "--check": _FLAG},
    ),
    "arcs": (
        "arc partition; model comparison with --w",
        _cmd_arcs,
        {"--N": _REQUIRED, "--A": _float(2.0), "--K": _int(4), "--w": _int(), "--b": _int(),
         "--qmax": _int(20)},
    ),
    "pseudo": (
        "sup distance to the interval transform",
        _cmd_pseudo,
        {"--N": _REQUIRED, "--K": _int(4), "--w-list": {"default": "4,6,8"}},
    ),
    "moments": (
        "L^q moment and fourth-moment routes",
        _cmd_moments,
        {"--w": _REQUIRED, "--N": _REQUIRED, "--b": _int(), "--K": _int(4),
         "--q-exponent": _float(5.0), "--spec": _SPEC},
    ),
    "levelsets": (
        "level-set counts and dyadic profile",
        _cmd_levelsets,
        {"--w": _REQUIRED, "--N": _REQUIRED, "--b": _int(), "--q-exponent": _float(5.0),
         "--spec": _SPEC, "--levels": {"help": "comma-separated decreasing levels"}},
    ),
    "sumset-verify": ("exhaustive subset cover check", _cmd_sumset_verify, {"--w": _REQUIRED}),
    "represent": (
        "representation counts and exceptions",
        _cmd_represent,
        {"--s": _REQUIRED, "--limit": _REQUIRED, "--n-lo": _int(), "--spec": _SPEC,
         "--check": {**_FLAG, "help": "scan the congruence invariant"},
         "--csv": {**_FLAG, "help": "write nonzero counts as CSV"}},
    ),
    "transfer": (
        "witness through the residue transfer",
        _cmd_transfer,
        {"--w": _REQUIRED, "--n": _REQUIRED, "--s": _int(8), "--kappa": _float(0.1),
         "--spec": _SPEC},
    ),
    "experiment": (
        "density experiment over a range",
        _cmd_experiment,
        {"--s": _REQUIRED, "--n-lo": _REQUIRED, "--n-hi": _REQUIRED, "--spec": _SPEC},
    ),
}


def _build_parser():
    """The parser of every subcommand in _COMMANDS.  run builds it only for
    the lines _parse_table declines, so a valid line imports no argparse
    (nor the gettext and locale it brings)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="psqlab",
        description="Experiments on sums of squares of primes from dense prime subsets",
    )
    parser.add_argument("--version", action="version", version=f"psqlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in {**_COMMON, **options}.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def _parse_table(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace _build_parser().parse_args(argv) gives, read from
    _COMMANDS; None, for argparse to read, unless argv is a command and its
    exact flags, each with a value its type takes that does not start with
    "-" (store_true flags take none), every required flag among them."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, own = _COMMANDS[argv[0]]
    options = {**_COMMON, **own}
    values = {flag: kwargs.get("default") for flag, kwargs in options.items()}
    words = iter(argv[1:])
    for flag in words:
        kwargs = options.get(flag)
        if kwargs is None:
            return None
        if "action" in kwargs:  # store_true
            values[flag] = True
        else:
            text = next(words, "-")  # no value: declined as a flag would be
            if text.startswith("-"):
                return None
            try:
                values[flag] = kwargs.get("type", str)(text)
            except ValueError:
                return None
    if any(kwargs.get("required") and values[flag] is None for flag, kwargs in options.items()):
        return None  # a required flag not given: no value read is None
    dests = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=argv[0], handler=handler, **dests)


def run(argv: list[str]) -> int:
    """Run one command line; the exit code.  _parse_table reads a valid
    line; every other one goes to the full parser, whose help, version and
    usage errors are argparse's own text and exit code."""
    args = _parse_table(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2

    args.threads_resolved = max(1, args.threads or 1)
    config = {k: v for k, v in sorted(vars(args).items()) if k != "handler" and not k.startswith("_")}
    try:
        result, code = args.handler(args)
        report = _report(args.command, config, result)
        _emit(report, args.out)
    except VerificationError as exc:
        sys.stderr.write(f"psqlab: verification failed: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"psqlab: error: {exc}\n")
        return 2
    except MemoryError as exc:  # numpy's names the allocation that failed; a bare one, nothing
        sys.stderr.write(f"psqlab: error: out of memory: {exc}".rstrip(": ") + "\n")
        return 2
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
