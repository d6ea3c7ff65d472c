"""Level sets, the fourth-moment identity, and empirical L^q moments.

Every function here takes a WeightedSequence(N, values), the one sequence
form: weights on n in [1, N] with values[0] as the padding slot.  The
discrete fourth moment is computed along two independent routes and
cross-checked: a zero-padded frequency grid (no circular wraparound, so the
grid sum is exactly the autocorrelation identity), and a direct time-domain
autocorrelation.  Level-set counts use the exact N-point grid.  Each |grid|
comes from WeightedSequence.grid_magnitudes, which keeps the sequence's
last grid, so statistics that read the same grid in turn transform once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._csvio import write_csv
from ._gridfft import MAX_CONV_LEN, grid_length
from .arith import divisor_count
from .errors import TooLarge, VerificationError
from .wtrick import WeightedSequence

# Relative slack when comparing |transform| against u*N, absorbing the
# rounding of unit-magnitude phases; far below any level spacing in use.
_LEVEL_SLACK = 1e-12


# -- level sets ----------------------------------------------------------------


@dataclass(frozen=True)
class LevelSetCurve:
    """Counts of frequencies n/N with |transform| >= u * N, per level u.

    chebyshev_bound is the derived column (N-grid fourth moment) / (u^4 N^4),
    an upper bound for each count.
    """

    N: int
    u_values: tuple[float, ...]
    counts: tuple[int, ...]
    chebyshev_bound: tuple[float, ...]


def level_sets(seq_f: WeightedSequence, u_list: Sequence[float]) -> LevelSetCurve:
    """Counts on the N-point grid seq_f.grid_magnitudes(1), which the sequence
    keeps, so a second call on the same sequence does not transform again."""
    u_values = tuple(float(u) for u in u_list)
    if any(u <= 0 for u in u_values):
        raise ValueError("levels must be positive")
    if any(a <= b for a, b in zip(u_values, u_values[1:])):
        raise ValueError("levels must be strictly decreasing")
    N = seq_f.N
    mags = seq_f.grid_magnitudes(1)  # the N frequencies n/N
    counts = tuple(
        int(np.count_nonzero(mags >= u * N * (1.0 - _LEVEL_SLACK))) for u in u_values
    )
    m4 = float(np.sum(mags**4))
    bounds = tuple(m4 / (u**4 * N**4) for u in u_values)
    return LevelSetCurve(N=N, u_values=u_values, counts=counts, chebyshev_bound=bounds)


# -- fourth moment ---------------------------------------------------------------


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def fourth_moment_routes(seq_f: WeightedSequence) -> tuple[float, float]:
    """(padded-grid route, autocorrelation route) for N * sum_k |c(k)|^2.

    c(k) = sum_{m-n=k} f(m) f(n) is the linear autocorrelation.  The grid
    route evaluates the transform on a zero-padded grid of length L >= 2*len,
    where the identity sum |transform|^4 / L = sum |c(k)|^2 is exact; past
    MAX_GRID points it raises TooLarge before either route allocates.  When
    L is a multiple of N and values[0] == 0, the padded input is that of the
    (L/N)-fold grid_transform, so the grid is seq_f.grid_magnitudes(L/N),
    shared with lq_moment at the same K; otherwise it is its own FFT.  Up to
    2000 support points the autocorrelation adds the products f(m) f(n) per
    gap in row-major (m, n) order and sums the squares in the order each gap
    first appears.  Past that it is a dense correlation over the support's
    span, budgeted like a convolution: TooLarge, before either route
    allocates, when span^2 passes MAX_CONV_LEN.
    """
    arr, N = seq_f.values, seq_f.N
    L = grid_length(_next_pow2(2 * len(arr)), 1)
    support = np.flatnonzero(arr)
    dense = len(support) ** 2 > 4_000_000
    if dense:
        lo, hi = int(support[0]), int(support[-1]) + 1
        if (hi - lo) ** 2 > MAX_CONV_LEN:
            raise TooLarge(f"{hi - lo} x {hi - lo} autocorrelation over budget {MAX_CONV_LEN}")
    if N >= 1 and L % N == 0 and arr[0] == 0:
        # the same zero-padded input as grid_transform's (L/N)-fold grid
        mags = seq_f.grid_magnitudes(L // N)
    else:
        mags = np.abs(np.fft.fft(arr, L))
    route_grid = N * float(np.sum(mags**4)) / L

    if dense:
        corr = np.correlate(arr[lo:hi], arr[lo:hi], mode="full")
        route_auto = N * float(np.sum(corr**2))
    else:
        route_auto = N * _sparse_autocorrelation_energy(support, arr[support])
    return route_grid, route_auto


def _sparse_autocorrelation_energy(support: np.ndarray, vals: np.ndarray) -> float:
    """sum_k c(k)^2 over the gaps k = m - n of support pairs, in one bincount.

    bincount adds each pair's product in input (row-major) order, and the
    squares are summed one by one, by cumsum, in the order each gap first
    appears, so every float operation is the one a per-pair loop over a dict
    would make.
    """
    if len(support) == 0:
        return 0.0
    d = (support[:, None] - support[None, :]).ravel()
    off = int(support[0] - support[-1])  # the smallest gap
    c = np.bincount(d - off, weights=np.outer(vals, vals).ravel())
    gaps, first = np.unique(d, return_index=True)
    v = c[gaps[np.argsort(first)] - off]
    return float(np.cumsum(v * v)[-1])  # a running sum: one addition after another


def fourth_moment(seq_f: WeightedSequence, rel_tol: float = 1e-6) -> float:
    """Cross-checked discrete fourth moment; raises if the routes disagree."""
    route_grid, route_auto = fourth_moment_routes(seq_f)
    scale = max(abs(route_grid), abs(route_auto), 1e-300)
    if abs(route_grid - route_auto) > rel_tol * scale:
        raise VerificationError(
            f"fourth-moment routes disagree: {route_grid!r} vs {route_auto!r}"
        )
    return route_auto


# -- support pair gaps -----------------------------------------------------------


@dataclass(frozen=True)
class PairGapRow:
    k: int
    count: int
    tau: int


@dataclass(frozen=True)
class PairGapTable:
    N: int
    rows: tuple[PairGapRow, ...]
    violations: tuple[int, ...]  # gaps where count exceeds the divisor count


def pair_difference_counts(seq_nu: WeightedSequence) -> PairGapTable:
    """Support pairs of a majorant at each gap k >= 1, against tau(k).

    The support x support difference matrix is budgeted like a convolution:
    TooLarge, before it is allocated, past MAX_CONV_LEN cells."""
    support = seq_nu.support()
    if len(support) ** 2 > MAX_CONV_LEN:
        raise TooLarge(f"{len(support)} x {len(support)} pair matrix over budget {MAX_CONV_LEN}")
    diffs = (support[:, None] - support[None, :]).ravel()
    diffs = diffs[diffs > 0]
    rows = []
    violations = []
    if len(diffs):
        counts = np.bincount(diffs)
        for k in np.flatnonzero(counts):
            c = int(counts[k])
            tau = divisor_count(int(k))
            rows.append(PairGapRow(k=int(k), count=c, tau=tau))
            if c > tau:
                violations.append(int(k))
    return PairGapTable(N=seq_nu.N, rows=tuple(rows), violations=tuple(violations))


# -- L^q moments -----------------------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    N: int
    q_exponent: float
    K: int
    moment: float  # (1/(K N)) * sum over the grid of |transform|^q
    normalizer: float  # N^(q-1)
    ratio: float

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "q_exponent": self.q_exponent,
            "K": self.K,
            "moment": self.moment,
            "normalizer": self.normalizer,
            "ratio": self.ratio,
        }


def lq_moment(seq_f: WeightedSequence, q_exponent: float, K: int = 4) -> MomentReport:
    """(1/(K N)) sum |transform|^q over the K*N-point grid, against N^(q-1).

    The grid is seq_f.grid_magnitudes(K), so right after a fourth moment
    taken on the same padded grid it does not transform again.
    """
    if q_exponent <= 4:
        raise ValueError(f"q exponent must exceed 4, got {q_exponent}")
    N = seq_f.N
    mags = seq_f.grid_magnitudes(K)
    moment = float(np.sum(mags**q_exponent)) / (K * N)
    normalizer = float(N) ** (q_exponent - 1.0)
    return MomentReport(
        N=N,
        q_exponent=float(q_exponent),
        K=K,
        moment=moment,
        normalizer=normalizer,
        ratio=moment / normalizer,
    )


# -- dyadic profile ----------------------------------------------------------------


@dataclass(frozen=True)
class DyadicProfile:
    """Level-set counts at u = 2^k for k = 0, -1, ..., with a log-log slope fit.

    The slope is fitted over the mid-range levels (counts strictly between
    0 and N/4) and reported next to the reference decay exponents.
    """

    N: int
    levels: tuple[float, ...]
    counts: tuple[int, ...]
    chebyshev_bound: tuple[float, ...]
    slope: float | None
    ref_slope_moment: float
    ref_slope_target: float

    def to_csv(self, path) -> None:
        columns = [self.levels, self.counts, self.chebyshev_bound]
        write_csv(path, ["u", "count", "chebyshev_bound"], columns)


def dyadic_profile(seq_f: WeightedSequence, q_exponent: float = 5.0) -> DyadicProfile:
    N = seq_f.N
    kmax = int(math.ceil(math.log2(N))) + 1
    levels = [2.0**k for k in range(0, -kmax - 1, -1)]
    curve = level_sets(seq_f, levels)

    xs, ys = [], []
    for u, c in zip(curve.u_values, curve.counts):
        if 0 < c <= N / 4:
            xs.append(math.log(u))
            ys.append(math.log(c))
    slope = None
    if len(xs) >= 2:
        slope = float(np.polyfit(xs, ys, 1)[0])
    return DyadicProfile(
        N=N,
        levels=curve.u_values,
        counts=curve.counts,
        chebyshev_bound=curve.chebyshev_bound,
        slope=slope,
        ref_slope_moment=-4.0,
        ref_slope_target=-(q_exponent + 4.0) / 2.0,
    )
