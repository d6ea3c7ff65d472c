"""Output checks for one psqlab command: reference comparison and invariants.

At the seed commit's default workload seed (7) every report is compared with
a reference recorded from that commit.  Integers, strings, booleans, nulls
and lists of them must match exactly; floats must agree within FLOAT_REL_TOL
(relative) or FLOAT_ABS_TOL (absolute, for rounding residuals near zero).
Keys that name the run rather than its result are ignored.

For any seed, the invariants below hold for a correct program:
every witness's primes are prime and their squares sum to n; the report's
own oracles hold; every CSV sidecar parses as numbers.
"""

from __future__ import annotations

import math
import os

FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-9
FOURTH_MOMENT_TOL = 1e-6
IGNORED_KEYS = frozenset({"generated_at", "out", "csv"})

# Defects of the seed commit that the checks are expected to find.  The op
# still counts as failed; a failure listed here does not make the run
# incorrect, any other failure does.
KNOWN_DEFECTS = {
    # Under numpy 2, FourierGrid.to_csv writes repr() of numpy scalars, so the
    # arcs grid sidecar holds np.float64(...) tokens instead of numbers.
    ("arcs_csv_256k", "csv"): "np.float64(",
}


def normalized(report):
    """The report without the keys that name the run rather than its result."""
    if isinstance(report, dict):
        return {k: normalized(v) for k, v in report.items() if k not in IGNORED_KEYS}
    if isinstance(report, list):
        return [normalized(v) for v in report]
    return report


def compare(ref, got, where="report") -> list[str]:
    """Differences between a reference value and a produced one."""
    if isinstance(ref, float) and isinstance(got, float):
        if math.isclose(ref, got, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL) or (
            math.isnan(ref) and math.isnan(got)
        ):
            return []
        return [f"{where}: {got!r} differs from reference {ref!r}"]
    if type(ref) is not type(got):
        return [f"{where}: type {type(got).__name__}, reference has {type(ref).__name__}"]
    if isinstance(ref, dict):
        keys = ref.keys() - IGNORED_KEYS
        if keys != got.keys() - IGNORED_KEYS:
            return [f"{where}: keys {sorted(got)} differ from reference {sorted(ref)}"]
        return [d for k in sorted(keys) for d in compare(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)}, reference has {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got)) for d in compare(r, g, f"{where}[{i}]")]
    if ref != got:
        return [f"{where}: {got!r} differs from reference {ref!r}"]
    return []


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, math.isqrt(p) + 1))


def _witnesses(obj):
    if isinstance(obj, dict):
        if isinstance(obj.get("n"), int) and isinstance(obj.get("primes"), list):
            yield obj
        for value in obj.values():
            yield from _witnesses(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _witnesses(value)


def invariants(report: dict) -> list[str]:
    """Problems with a report that no correct run can have, at any seed."""
    problems = []
    result = report.get("result")
    if not isinstance(result, dict):
        return ["report has no result object"]
    for w in _witnesses(result):
        bad = [p for p in w["primes"] if not (isinstance(p, int) and _is_prime(p))]
        if bad:
            problems.append(f"witness for {w['n']} uses non-primes {bad}")
        elif sum(p * p for p in w["primes"]) != w["n"]:
            problems.append(f"witness squares {w['primes']} do not sum to {w['n']}")
    command = report.get("command")
    if command == "saq" and result.get("ok") is not True:
        problems.append("saq: closed form and direct local factor disagree")
    if command == "gauss" and result.get("violations"):
        problems.append(f"gauss: {len(result['violations'])} bound violations")
    if command == "sumset-verify" and result.get("lemma", {}).get("failures"):
        problems.append("sumset-verify: lemma failures")
    if command == "moments":
        diff = result.get("fourth_moment", {}).get("rel_difference")
        if not (isinstance(diff, float) and diff <= FOURTH_MOMENT_TOL):
            problems.append(f"moments: fourth-moment routes differ by {diff!r}")
    if result.get("congruence_scan_violations"):
        problems.append("represent: congruence_scan_violations is not empty")
    return problems


def csv_problems(path: str) -> list[str]:
    """Every cell below the header row must parse as a number."""
    with open(path, newline="") as fh:
        fh.readline()
        body = fh.read()
    for token in body.replace("\r\n", ",").replace("\n", ",").split(","):
        if not token:
            continue
        try:
            float(token)
        except ValueError:
            return [f"{os.path.basename(path)}: non-numeric cell {token[:40]!r}"]
    return []


def is_known_defect(op: str, kind: str, detail: str) -> bool:
    marker = KNOWN_DEFECTS.get((op, kind))
    return marker is not None and marker in detail
