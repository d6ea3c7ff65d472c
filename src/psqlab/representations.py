"""Counting and exhibiting n = p_1^2 + ... + p_s^2 with all p_j in P.

Existence (the exception scan, witnesses, the transfer's index search) is
boolean reachability, not counting: p^2 = 24k + 1 for every prime p >= 5,
so s such squares sum to s + 24K and the search runs over K, a lattice 24
times shorter than [0, n].  Specs admitting 2 or 3 use stride 1.

The exception scan reads only the s-fold sumset sA.  A certified descent
builds (s-1)A on a short dense prefix, where it holds every K from some K0
on, and checks that the intervals [k + K0, k + c1) over the member k cover
the rest of the range, which puts all of it in sA by proof; sA on the
prefix is one more product.  Where the cover does not close, sA comes from
binary powering over the whole range.  The suffix layers that witnesses
need are built only up to the last sampled target.

Ordered representation counts come from s-fold convolution of the
prime-square indicator on the same lattice, in s - 1 rounds of shifted
integer adds (one per member square), then are scattered onto [0, limit].
No floating point is involved: int64 while a bound on the next round proves
it cannot overflow, Python ints (object dtype) after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._csvio import write_csv
from ._gridfft import MAX_CONV_LEN, Reach, lex_smallest_sum, reach_budget, scan_mask
from .errors import NotFound, TableTooSmall, TooLarge
from .primes import PrimeSubsetSpec, PrimeTable, empirical_density, subset_members
from .wtrick import WContext, delta_table, f_sequence, select_residues


def lambda_threshold(s: int) -> float:
    """Density threshold sqrt(1 - min(s, 16)/32) for the s-fold problem."""
    return math.sqrt(1.0 - min(s, 16) / 32.0)


def member_roots(spec: PrimeSubsetSpec, table: PrimeTable, hi: int) -> np.ndarray:
    """The subset primes p with p^2 <= hi, the only ones a sum of squares up to
    hi can use.  subset_members sees only the table's primes up to isqrt(hi):
    every variant keeps or drops each prime on its own, so the members agree."""
    if hi < 0:
        raise ValueError(f"limit must be >= 0, got {hi}")
    root = math.isqrt(hi)
    if table.limit < root:
        raise TableTooSmall(f"need primes up to {root}, table stops at {table.limit}")
    return subset_members(spec, PrimeTable(root, table.primes_upto(root)))


@dataclass(frozen=True)
class ReprCountTable:
    """Ordered s-tuple counts: counts[n] = #{(p_1..p_s) in P^s : sum p_j^2 = n}."""

    counts: np.ndarray

    def to_csv(self, path) -> None:
        """Write the nonzero counts as (n, count) rows."""
        n = np.flatnonzero(self.counts)
        write_csv(path, ["n", "count"], [n, self.counts[n]])


def count_budget(limit: int, s: int) -> None:
    """Raise TooLarge, before any allocation, when an s-fold count over
    [0, limit] (s >= 2) has a full convolution longer than MAX_CONV_LEN."""
    if s >= 2 and 2 * limit + 1 > MAX_CONV_LEN:
        raise TooLarge(f"convolution length {2 * limit + 1} over budget {MAX_CONV_LEN}")


def _lattice(spec: PrimeSubsetSpec) -> tuple[int, int]:
    """(stride, unit) with p^2 = stride*k + unit for every prime p in the spec:
    (24, 1), since p^2 = 1 (mod 24) for p >= 5, unless the spec admits 2 or 3."""
    return (24, 1) if spec.min_prime >= 5 else (1, 0)


def _lattice_width(limit: int, j: int, stride: int, unit: int) -> int:
    """Number of n = j*unit + stride*K in [0, limit]."""
    return max((limit - j * unit) // stride + 1, 0)


def count_representations(
    limit: int, s: int, spec: PrimeSubsetSpec, table: PrimeTable
) -> ReprCountTable:
    """s-fold convolution of the prime-square indicator, exact on [0, limit].

    Runs on the spec's (stride, unit) lattice: after j factors, entry K
    counts n = j*unit + stride*K, which holds every nonzero count (the rest
    of the line is zero by the congruence).  Each of the s - 1 rounds adds one
    shifted copy of the counts per member square.  A round's entries are sums
    of len(ks) entries of the last, so while max * len(ks) < 2^63
    int64 cannot overflow; past that the counts move to Python ints (object
    dtype).  The lattice holds the line's maximum, so the switch falls in the
    same round as on the full line.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    count_budget(limit, s)
    stride, unit = _lattice(spec)
    ks = (member_roots(spec, table, limit) ** 2 - unit) // stride
    acc = np.zeros(_lattice_width(limit, 1, stride, unit), dtype=np.int64)
    acc[ks] = 1
    for j in range(2, s + 1):
        if int(acc.max(initial=0)) * len(ks) >= 1 << 63:
            acc = acc.astype(object)
        width = _lattice_width(limit, j, stride, unit)
        nxt = np.zeros(width, dtype=acc.dtype)
        for k in ks[ks < width]:
            nxt[k:] += acc[: width - k]
        acc = nxt
    counts = np.zeros(limit + 1, dtype=acc.dtype)
    counts[s * unit :: stride] = acc
    return ReprCountTable(counts=counts)


# -- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class ReprWitness:
    """One representation, with the progression data when it came from a transfer."""

    n: int
    primes: tuple[int, ...]
    residues: Optional[tuple[int, ...]] = None
    indices: Optional[tuple[int, ...]] = None
    m: Optional[int] = None

    def to_json(self) -> dict:
        out: dict = {"n": self.n, "primes": list(self.primes)}
        if self.residues is not None:
            out["residues"] = list(self.residues)
            out["indices"] = list(self.indices)
            out["m"] = self.m
        return out


def scan_lattice(s: int, spec: PrimeSubsetSpec, hi: int) -> tuple[int, int, int]:
    """(stride, unit, cap): s squares p^2 = stride*k + unit summing to n <= hi
    give n = s*unit + stride*K, 0 <= K <= cap.  Raises TooLarge up front if
    the search over K is too big."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    stride, unit = _lattice(spec)
    cap = max(hi - s * unit, 0) // stride
    reach_budget(s + 1, cap + 1)
    return stride, unit, cap


def _witness(n: int, s: int, stride: int, unit: int, reach: Reach) -> Optional[ReprWitness]:
    K, off = divmod(n - s * unit, stride)
    ks = None if off else reach.smallest(K)
    return None if ks is None else ReprWitness(n, tuple(math.isqrt(stride * k + unit) for k in ks))


# -- experiment ----------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    s: int
    spec: PrimeSubsetSpec
    lambda_threshold: float
    empirical_density: float
    density_exceeds_threshold: bool
    range: tuple[int, int]
    n_checked: int
    exceptions: tuple[int, ...]
    max_exception: Optional[int]
    sample_witnesses: list[ReprWitness] = field(default_factory=list)
    exploratory: bool = False

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "spec": self.spec.to_json(),
            "lambda_threshold": self.lambda_threshold,
            "empirical_density": self.empirical_density,
            "density_exceeds_threshold": self.density_exceeds_threshold,
            "range": list(self.range),
            "n_checked": self.n_checked,
            "exceptions": [int(x) for x in self.exceptions],
            "max_exception": self.max_exception,
            "sample_witnesses": [w.to_json() for w in self.sample_witnesses],
            "exploratory": self.exploratory,
        }


def theorem_experiment(
    s: int,
    spec: PrimeSubsetSpec,
    n_range: tuple[int, int],
    table: PrimeTable,
    sample_limit: int = 3,
) -> ExperimentReport:
    """Scan every n = s (mod 24) in the range for a representation.

    The scan reads the s-fold sumset from scan_mask; witnesses for the first
    sample_limit represented targets come from a Reach capped at the last of them.
    Exceptions (no representation) are reported, never fatal.
    """
    lo, hi = n_range
    if lo > hi:
        raise ValueError(f"empty range {n_range}")
    stride, unit, cap = scan_lattice(s, spec, hi)
    ks = (member_roots(spec, table, hi) ** 2 - unit) // stride

    first = lo + ((s - lo) % 24)
    targets = np.arange(first, hi + 1, 24, dtype=np.int64)
    K = (targets - s * unit) // stride  # below 0 only for n < s * unit
    hit = (K >= 0) & scan_mask(ks, s, cap)[np.maximum(K, 0)]
    exceptions = tuple(int(x) for x in targets[~hit])
    witnesses = []
    sampled = targets[hit][:sample_limit]
    if len(sampled):
        reach = Reach([ks] * s, (int(sampled[-1]) - s * unit) // stride)
        witnesses = [_witness(int(n), s, stride, unit, reach) for n in sampled]

    lam = lambda_threshold(s)
    density = empirical_density(spec, table)
    return ExperimentReport(
        s=s,
        spec=spec,
        lambda_threshold=lam,
        empirical_density=density,
        density_exceeds_threshold=density > lam,
        range=(lo, hi),
        n_checked=len(targets),
        exceptions=exceptions,
        max_exception=max(exceptions) if exceptions else None,
        sample_witnesses=witnesses,
        exploratory=s < 8,
    )


# -- transfer ---------------------------------------------------------------------


def transfer_witness(
    ctx: WContext,
    n: int,
    s: int,
    spec: PrimeSubsetSpec,
    table: PrimeTable,
    kappa: float = 0.1,
) -> ReprWitness:
    """Residue selection, then an index search in the transferred variables.

    Picks residues b_j by density, forms m = (n - sum b_j)/W, and searches
    for indices n_j in the support of each subset sequence with sum m.
    Raises Infeasible (residue selection) or NotFound (index search).
    """
    if n % 24 != s % 24:
        raise ValueError(f"need n = s (mod 24); got n = {n}, s = {s}")
    W = ctx.W
    N = (2 * n) // (s * W)
    if N < 1:
        raise NotFound(f"target {n} gives window length {N} < 1 at W = {W}")

    dt = delta_table(ctx, N, spec, table)
    residues = select_residues(ctx, dt, n, s, kappa)  # may raise Infeasible

    m, rem = divmod(n - sum(residues), W)
    if rem:
        raise RuntimeError("residue sum violates the congruence; selection is broken")

    support = {b: f_sequence(ctx, b, N, spec, table).support() for b in set(residues)}
    supports = [support[b] for b in residues]
    indices = lex_smallest_sum(supports, m)
    if indices is None:
        raise NotFound(
            f"no index combination sums to m = {m} over supports of sizes "
            f"{[len(x) for x in supports]}"
        )

    primes = []
    for b, nj in zip(residues, indices):
        p = math.isqrt(W * nj + b)
        if p * p != W * nj + b or not table.is_prime(p):
            raise RuntimeError("support index does not correspond to a prime square")
        primes.append(p)
    if sum(p * p for p in primes) != n:
        raise RuntimeError("transferred witness fails the square-sum identity")
    return ReprWitness(
        n=n,
        primes=tuple(primes),
        residues=tuple(residues),
        indices=tuple(int(i) for i in indices),
        m=m,
    )


def m_window_deviation(ctx: WContext, n: int, s: int) -> float:
    """Relative deviation of m from its nominal value s*N/2 (reporting aid)."""
    N = (2 * n) // (s * ctx.W)
    if N < 1:
        return math.inf
    nominal = s * N / 2.0
    return abs(n / ctx.W - nominal) / nominal
