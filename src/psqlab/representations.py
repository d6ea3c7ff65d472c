"""Counting and exhibiting n = p_1^2 + ... + p_s^2 with all p_j in P.

Existence (the exception scan, witnesses, the transfer's index search) is
boolean reachability, not counting: p^2 = 24k + 1 for every prime p >= 5,
so s such squares sum to s + 24K and the search runs over K, a lattice 24
times shorter than [0, n].  Specs admitting 2 or 3 use stride 1.

Ordered representation counts come from s-fold convolution of the
prime-square indicator, computed exactly: plain integer convolution below
a size crossover, double-precision FFT with a rounding-residual guard
above it, and a digit-split exact fallback if the guard ever trips.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._gridfft import MAX_CONV_LEN, Reach, lex_smallest_sum, reach_budget
from .errors import NotFound, TableTooSmall, TooLarge
from .primes import PrimeSubsetSpec, PrimeTable, empirical_density, subset_members
from .wtrick import WContext, delta_table, f_sequence, select_residues

_EXACT_CROSSOVER = 8192  # below this, plain O(n^2) integer convolution
_SPLIT_BASE_BITS = 14


def lambda_threshold(s: int) -> float:
    """Density threshold sqrt(1 - min(s, 16)/32) for the s-fold problem."""
    return math.sqrt(1.0 - min(s, 16) / 32.0)


def square_indicator(limit: int, spec: PrimeSubsetSpec, table: PrimeTable) -> np.ndarray:
    """Array over [0, limit]: entry k is 1 exactly when k = p^2 with p in P."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    root = math.isqrt(limit)
    if table.limit < root:
        raise TableTooSmall(f"need primes up to {root}, table stops at {table.limit}")
    members = subset_members(spec, table)
    members = members[members <= root]
    ind = np.zeros(limit + 1, dtype=np.int64)
    ind[members * members] = 1
    return ind


def _fft_convolve_guarded(a: np.ndarray, b: np.ndarray, limit: int) -> Optional[np.ndarray]:
    """Rounded real-FFT convolution, or None when the residual guard trips."""
    L = 1 << (len(a) + len(b) - 2).bit_length()
    fa = np.fft.rfft(a.astype(np.float64), L)
    fb = fa if b is a else np.fft.rfft(b.astype(np.float64), L)
    raw = np.fft.irfft(fa * fb, L)[: limit + 1]
    rounded = np.rint(raw)
    if float(np.max(np.abs(raw - rounded))) > 0.1:
        return None
    if float(np.max(rounded)) >= float(1 << 62):
        return None
    return rounded.astype(np.int64)


def _split_convolve_exact(a: np.ndarray, b: np.ndarray, limit: int) -> np.ndarray:
    """Exact convolution of big-integer arrays by base-2^14 digit splitting.

    Each digit convolution stays far below 2^53, so the per-digit FFTs round
    exactly; digits recombine in Python integers (object dtype).
    """
    base = 1 << _SPLIT_BASE_BITS

    def digits(arr: np.ndarray) -> list[np.ndarray]:
        arr = [int(v) for v in arr]
        out = []
        while any(arr):
            out.append(np.array([v % base for v in arr], dtype=np.float64))
            arr = [v // base for v in arr]
        return out or [np.zeros(1)]

    da, db = digits(a), digits(b)
    L = 1 << (len(a) + len(b) - 2).bit_length()
    fas = [np.fft.rfft(d, L) for d in da]
    fbs = fas if b is a else [np.fft.rfft(d, L) for d in db]
    result = [0] * (limit + 1)
    for i, fa in enumerate(fas):
        for j, fb in enumerate(fbs):
            piece = np.rint(np.fft.irfft(fa * fb, L)[: limit + 1]).astype(np.int64)
            shift = _SPLIT_BASE_BITS * (i + j)
            for idx in np.flatnonzero(piece):
                result[idx] += int(piece[idx]) << shift
    return np.array(result, dtype=object)


def _convolve_trunc(a: np.ndarray, b: np.ndarray, limit: int) -> np.ndarray:
    """Exact nonnegative-integer convolution truncated to [0, limit]."""
    if len(a) + len(b) - 1 > MAX_CONV_LEN:
        raise TooLarge(f"convolution length {len(a) + len(b) - 1} over budget")
    a = a[: limit + 1]
    b = b[: limit + 1]
    if a.dtype == object or b.dtype == object:
        return np.convolve(a, b)[: limit + 1]
    if (limit + 1) <= _EXACT_CROSSOVER:
        # int64 products must not overflow; otherwise take the split path
        bound = int(a.max(initial=0)) * int(b.max(initial=0)) * min(len(a), len(b))
        if bound < (1 << 62):
            return np.convolve(a, b)[: limit + 1]
        return _split_convolve_exact(a, b, limit)
    out = _fft_convolve_guarded(a, b, limit)
    if out is None:
        out = _split_convolve_exact(a, b, limit)
    return out


@dataclass(frozen=True)
class ReprCountTable:
    """Ordered s-tuple counts: counts[n] = #{(p_1..p_s) in P^s : sum p_j^2 = n}."""

    limit: int
    s: int
    counts: np.ndarray
    spec: Optional[PrimeSubsetSpec] = None

    def to_csv(self, path, nonzero_only: bool = False) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "count"])
            for n, c in enumerate(self.counts):
                if nonzero_only and not c:
                    continue
                writer.writerow([n, int(c)])


def count_representations(
    limit: int, s: int, spec: PrimeSubsetSpec, table: PrimeTable
) -> ReprCountTable:
    """s-fold convolution of the prime-square indicator, exact on [0, limit]."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    ind = square_indicator(limit, spec, table)
    acc: Optional[np.ndarray] = None
    base = ind
    e = s
    while e:
        if e & 1:
            acc = base.copy() if acc is None else _convolve_trunc(acc, base, limit)
        e >>= 1
        if e:
            base = _convolve_trunc(base, base, limit)
    return ReprCountTable(limit=limit, s=s, counts=acc, spec=spec)


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
    give n = s*unit + stride*K, 0 <= K <= cap; stride 24, unit 1 unless the
    spec admits 2 or 3.  Raises TooLarge up front if the search over K is too big."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    stride, unit = (24, 1) if spec.min_prime >= 5 else (1, 0)
    cap = max(hi - s * unit, 0) // stride
    reach_budget(s + 1, cap + 1)
    return stride, unit, cap


def _square_reach(s: int, spec: PrimeSubsetSpec, table: PrimeTable, hi: int):
    stride, unit, cap = scan_lattice(s, spec, hi)
    root = math.isqrt(hi)
    if table.limit < root:
        raise TableTooSmall(f"need primes up to {root}, table stops at {table.limit}")
    members = subset_members(spec, table)
    ks = (members[members <= root] ** 2 - unit) // stride
    return stride, unit, Reach([ks] * s, cap)


def _witness(n: int, s: int, stride: int, unit: int, reach: Reach) -> Optional[ReprWitness]:
    K, off = divmod(n - s * unit, stride)
    ks = None if off else reach.smallest(K)
    return None if ks is None else ReprWitness(n, tuple(math.isqrt(stride * k + unit) for k in ks))


def find_witness(
    n: int, s: int, spec: PrimeSubsetSpec, table: PrimeTable
) -> Optional[ReprWitness]:
    """Lexicographically smallest nondecreasing tuple of s subset primes whose
    squares sum to n, or None.  The smallest ordered tuple is nondecreasing,
    since its sorted copy is a solution too."""
    return None if n < 0 else _witness(n, s, *_square_reach(s, spec, table, n))


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

    Exceptions (no representation) are reported, never fatal.
    """
    lo, hi = n_range
    if lo > hi:
        raise ValueError(f"empty range {n_range}")
    stride, unit, reach = _square_reach(s, spec, table, hi)

    first = lo + ((s - lo) % 24)
    targets = np.arange(first, hi + 1, 24, dtype=np.int64)
    hit = reach.reachable((targets - s * unit) // stride)
    exceptions = tuple(int(x) for x in targets[~hit])
    witnesses = [_witness(int(n), s, stride, unit, reach) for n in targets[hit][:sample_limit]]

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
