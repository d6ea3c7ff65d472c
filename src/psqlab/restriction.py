"""Level sets, the fourth-moment identity, and empirical L^q moments.

The discrete fourth moment is computed along two independent routes and
cross-checked: a zero-padded frequency grid (no circular wraparound, so the
grid sum is exactly the autocorrelation identity), and a direct time-domain
autocorrelation.  Level-set counts use the exact N-point grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ._csvio import write_csv
from ._gridfft import MAX_CONV_LEN, grid_transform
from .arith import divisor_count
from .errors import TooLarge, VerificationError
from .wtrick import WeightedSequence

SequenceLike = Union[WeightedSequence, np.ndarray]

# Relative slack when comparing |transform| against u*N, absorbing the
# rounding of unit-magnitude phases; far below any level spacing in use.
_LEVEL_SLACK = 1e-12


def _data_and_length(seq: SequenceLike) -> tuple[np.ndarray, int, bool]:
    """Return (values, N, one_indexed).  Raw arrays are taken on [0, N-1]."""
    if isinstance(seq, WeightedSequence):
        return seq.values, seq.N, True
    arr = np.asarray(seq, dtype=float)
    return arr, len(arr), False


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
    fourth_moment_grid: float
    chebyshev_bound: tuple[float, ...]


def level_sets(seq_f: SequenceLike, u_list: Sequence[float]) -> LevelSetCurve:
    u_values = tuple(float(u) for u in u_list)
    if any(u <= 0 for u in u_values):
        raise ValueError("levels must be positive")
    if any(a <= b for a, b in zip(u_values, u_values[1:])):
        raise ValueError("levels must be strictly decreasing")
    data, N, one_indexed = _data_and_length(seq_f)
    mags = np.abs(grid_transform(data, N, 1, one_indexed))  # the N frequencies n/N
    counts = tuple(
        int(np.count_nonzero(mags >= u * N * (1.0 - _LEVEL_SLACK))) for u in u_values
    )
    m4 = float(np.sum(mags**4))
    bounds = tuple(m4 / (u**4 * N**4) for u in u_values)
    return LevelSetCurve(
        N=N,
        u_values=u_values,
        counts=counts,
        fourth_moment_grid=m4,
        chebyshev_bound=bounds,
    )


# -- fourth moment ---------------------------------------------------------------


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def fourth_moment_routes(seq_f: SequenceLike) -> tuple[float, float]:
    """(padded-grid route, autocorrelation route) for N * sum_k |c(k)|^2.

    c(k) = sum_{m-n=k} f(m) f(n) is the linear autocorrelation.  The grid
    route evaluates the transform on a zero-padded grid of length L >= 2*len,
    where the identity sum |transform|^4 / L = sum |c(k)|^2 is exact.
    """
    data, N, _ = _data_and_length(seq_f)
    arr = np.asarray(data, dtype=float)
    L = _next_pow2(2 * len(arr))
    mags = np.abs(np.fft.fft(arr, L))
    route_grid = N * float(np.sum(mags**4)) / L

    support = np.flatnonzero(arr)
    if len(support) ** 2 <= 4_000_000:
        acc: dict[int, float] = {}
        vals = arr[support]
        for i, m in enumerate(support):
            for j, n in enumerate(support):
                k = int(m - n)
                acc[k] = acc.get(k, 0.0) + vals[i] * vals[j]
        route_auto = N * float(sum(v * v for v in acc.values()))
    else:
        corr = np.correlate(arr, arr, mode="full")
        route_auto = N * float(np.sum(corr**2))
    return route_grid, route_auto


def fourth_moment(seq_f: SequenceLike, rel_tol: float = 1e-6) -> float:
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


def lq_moment(seq_f: SequenceLike, q_exponent: float, K: int = 4) -> MomentReport:
    if q_exponent <= 4:
        raise ValueError(f"q exponent must exceed 4, got {q_exponent}")
    data, N, one_indexed = _data_and_length(seq_f)
    mags = np.abs(grid_transform(data, N, K, one_indexed))
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


def dyadic_profile(seq_f: SequenceLike, q_exponent: float = 5.0) -> DyadicProfile:
    _, N, _ = _data_and_length(seq_f)
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
