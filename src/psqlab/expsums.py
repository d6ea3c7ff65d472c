"""Exponential sums, Gauss sums, local factors, and arc partitions.

The local factor S(q, a) attached to a residue b mod W is a complex value,
computed two independent ways: a literal double sum over square roots h of
b and l in [q], s_direct(ctx, b, q, units) for all the given units a of one
(b, q) at once, and a closed form s_closed(ctx, b, q, a) dispatching on
gcd(q, W) through quadratic Gauss sums, 0j where vanishes(q, W).  Their
agreement is the main oracle of this module.  All rational phases are
reduced in exact integer arithmetic before any trigonometry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._csvio import write_csv
from ._gridfft import grid_length, grid_transform
from .arith import euler_phi, mod_inverse, unit_mask
from .errors import TooLarge, VerificationError
from .wtrick import WContext, WeightedSequence

# -- pointwise and grid transforms -------------------------------------------


def _support_sum(idx: np.ndarray, weights: np.ndarray, alpha: float) -> complex:
    """sum_j weights[j] e(idx[j] alpha); 0j on an empty support."""
    phases = (idx * alpha) % 1.0
    return complex(np.sum(weights * np.exp(2j * np.pi * phases)))


def dft_at(seq: WeightedSequence, alpha: float) -> complex:
    """Direct evaluation of sum_n seq(n) e(n alpha), using only the support."""
    idx = seq.support()
    return _support_sum(idx, seq.values[idx], alpha)


@dataclass(frozen=True)
class FourierGrid:
    """Values of the exponential sum at k / (K*N) for k = 0 .. K*N - 1."""

    N: int
    K: int
    values: np.ndarray  # complex128, length K * N

    def to_csv(self, path) -> None:
        v = self.values
        write_csv(path, ["k", "re", "im"], [np.arange(len(v)), v.real, v.imag])


def dft_grid(seq: WeightedSequence, K: int) -> FourierGrid:
    values = grid_transform(seq.values, seq.N, K)
    return FourierGrid(N=seq.N, K=K, values=values)


def indicator_transform_grid(N: int, K: int) -> np.ndarray:
    """Closed-form sum_{n=1}^{N} e(n k/(K N)) on the grid (exact geometric sum):
    e(k/L) (e(kN/L) - 1) / (e(k/L) - 1) for k >= 1, and N at k = 0."""
    L = grid_length(N, K)
    k = np.arange(L)
    e = np.exp(2j * np.pi * k / L)
    # e(kN / L) = e((k mod K) / K): an exact small rational, from a K-entry table.
    num = (np.exp(2j * np.pi * np.arange(K) / K) - 1.0)[k % K]
    del k
    out = np.empty(L, dtype=complex)
    out[0] = N
    np.multiply(e[1:], num[1:], out=out[1:])
    del num
    e -= 1.0
    np.divide(out[1:], e[1:], out=out[1:])
    return out


# -- Gauss sums ---------------------------------------------------------------


# Moduli caps keeping r*l^2 (resp. q^4 phase numerators) inside int64.
MAX_GAUSS_MODULUS = 2_000_000
MAX_LOCAL_FACTOR_Q = 50_000
MAX_ARCS = 1 << 21  # bound on arc_partition's arcs, checked before any is built
_DIRECT_CELLS = 1 << 20  # (unit x l) phase-table cells s_direct holds at once


def _check_gauss_modulus(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > MAX_GAUSS_MODULUS:
        raise TooLarge(f"modulus {k} exceeds bound {MAX_GAUSS_MODULUS}")


def gauss_sum(k: int, r: int) -> complex:
    """G(k, r) = sum over units l mod k of e(r l^2 / k), gcd(r, k) = 1."""
    _check_gauss_modulus(k)
    if k == 1:
        return 1 + 0j
    r %= k
    if math.gcd(r, k) != 1:
        raise ValueError(f"gcd({r}, {k}) != 1")
    ls = np.flatnonzero(unit_mask(k))
    phases = (r * ls * ls) % k
    return complex(np.sum(np.exp(2j * np.pi * phases / k)))


def gauss_sum_row(k: int) -> np.ndarray:
    """All G(k, r) for r = 0 .. k-1 at once, via the FFT of the square counts.

    The units l mod k come from unit_mask(k), in increasing order.
    Only entries with gcd(r, k) = 1 are meaningful Gauss sums; the rest come
    along for free.  Cross-checked against gauss_sum in the tests.
    ValueError for k < 1 and TooLarge past MAX_GAUSS_MODULUS, as gauss_sum.
    """
    _check_gauss_modulus(k)
    if k == 1:
        return np.array([1 + 0j])
    ls = np.flatnonzero(unit_mask(k))
    counts = np.bincount((ls * ls) % k, minlength=k).astype(float)
    return np.conj(np.fft.fft(counts))


# -- the local factor S(q, a) -------------------------------------------------


def vanishes(q: int, W: int) -> bool:
    """Whether S(q, a) is a structural zero for every unit a: q = 2, or q
    shares an odd prime with W (gcd(q, W) > 2)."""
    return q == 2 or math.gcd(q, W) > 2


def _check_local_args(ctx: WContext, b: int, q: int, a: int) -> None:
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q > MAX_LOCAL_FACTOR_Q:
        raise TooLarge(f"q = {q} exceeds bound {MAX_LOCAL_FACTOR_Q}")
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) != 1")
    if b not in ctx.root_map:
        raise ValueError(f"b = {b} not a reduced quadratic residue mod {ctx.W}")


def s_direct(ctx: WContext, b: int, q: int, units: Sequence[int]) -> list[complex]:
    """Literal double sum over h in H(b) and l in [q] with W*l + h a unit mod q,
    for every a in units at once: one complex S(q, a) per unit, in order.

    Whether W*l + h is a unit mod q is read from unit_mask(q), built once
    per call.  Each h adds one row sum of a (unit x l) phase table to that
    unit's total, so every total accumulates in h order.  Units are taken in
    chunks of at most _DIRECT_CELLS table cells, which bounds the memory at
    any q.
    """
    for a in units:
        _check_local_args(ctx, b, q, a)
    W = ctx.W
    table = np.exp(2j * np.pi * np.arange(q) / q)
    ls = np.arange(1, q + 1, dtype=np.int64)
    wmod = W % q
    is_unit = unit_mask(q)
    totals = [0j] * len(units)
    step = max(1, _DIRECT_CELLS // q)
    for lo in range(0, len(units), step):
        amod = np.array(units[lo : lo + step], dtype=np.int64)[:, None] % q
        for h in ctx.root_map[b]:
            i_h = (h * h - b) // W  # exact: h^2 = b (mod W)
            hq = h % q
            ok = is_unit[(wmod * ls + hq) % q]
            if not ok.any():
                continue
            lv = ls[ok]
            nums = (((i_h % q) * amod) % q + (wmod * lv * lv + 2 * hq * lv) * amod) % q
            for i, row in enumerate(np.sum(table[nums], axis=1).tolist(), lo):
                totals[i] += row
    return [t / ctx.H for t in totals]


def s_closed(ctx: WContext, b: int, q: int, a: int) -> complex:
    """Closed form for the local factor, dispatching on t = gcd(q, W).

    0j where vanishes(q, W) (t > 2, or q = 2); t = 1 reduces to a single
    Gauss sum with a phase in b; t = 2 averages phases over the square roots
    of b against a Gauss sum to the odd modulus q/2.
    """
    _check_local_args(ctx, b, q, a)
    W = ctx.W
    if vanishes(q, W):
        return 0j
    if q == 1:
        return 1 + 0j
    if q % 2:  # 8 | W, so an odd q has t = 1
        w_inv = mod_inverse(W % q, q)
        phase = (-w_inv * b * a) % q
        return cmath.exp(2j * cmath.pi * phase / q) * gauss_sum(q, (w_inv * a) % q)

    # t == 2: q = 2 * q0 with q0 odd and coprime to W.
    q0 = q // 2
    inv2w = mod_inverse((2 * W) % q0, q0) if q0 > 1 else 0
    g = gauss_sum(q0, (inv2w * a) % q0 if q0 > 1 else 0)
    total = 0j
    for h in ctx.root_map[b]:
        i_h = (h * h - b) // W
        num = (i_h * a - 2 * inv2w * h * h * a) % q
        total += cmath.exp(2j * cmath.pi * num / q)
    return (2.0 / ctx.H) * total * g


# -- arcs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    q: int
    a: int
    center: float
    half_width: float


@dataclass(frozen=True)
class ArcPartition:
    """Major arcs around rationals a/q with q <= Q = (log N)^A; natural log.

    The circle is taken as (Q/N, 1 + Q/N], so the q = 1 arc sits at 1; on a
    [0, 1) grid the arcs simply wrap.
    """

    N: int
    A: float
    Q: float
    arcs: tuple[Arc, ...]

    def major_measure(self) -> float:
        return sum(2.0 * arc.half_width for arc in self.arcs)

    def minor_measure(self) -> float:
        return 1.0 - self.major_measure()

    def major_mask(self, grid_len: int) -> np.ndarray:
        """Boolean mask over k = 0 .. grid_len-1 marking major grid points."""
        mask = np.zeros(grid_len, dtype=bool)
        eps = 1e-12
        for arc in self.arcs:
            lo = math.ceil((arc.center - arc.half_width) * grid_len - eps)
            hi = math.floor((arc.center + arc.half_width) * grid_len + eps)
            mask[np.arange(lo, hi + 1) % grid_len] = True
        return mask


def arc_partition(N: int, A: float) -> ArcPartition:
    if N < 2:
        raise ValueError(f"N must be >= 2 (Q = (log N)^A), got {N}")
    if A < 0:
        raise ValueError(f"A must be >= 0, got {A}")
    try:
        Q = math.log(N) ** A
    except OverflowError:
        raise ValueError(f"--A {A!r}: Q = (log N)^A at N = {N} overflows") from None
    if N <= 2 * Q * Q:
        raise ValueError(f"need N > 2*Q^2; N = {N}, Q = {Q:.3f}")
    top = math.floor(Q)
    if top * (top + 1) // 2 > MAX_ARCS:  # the (a, q) pairs, a bound on the arcs
        raise TooLarge(
            f"--A {A!r} at --N {N}: Q = {Q:.3f} allows up to {top * (top + 1) // 2} "
            f"arcs, over budget {MAX_ARCS}"
        )
    arcs = []
    for q in range(1, top + 1):
        hw = Q / (q * N)
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                arcs.append(Arc(q=q, a=a, center=a / q, half_width=hw))
    arcs.sort(key=lambda arc: (arc.center, arc.q))
    # Disjointness is guaranteed by N > 2Q^2; verify anyway.
    for left, right in zip(arcs, arcs[1:]):
        if left.center + left.half_width >= right.center - right.half_width:
            raise VerificationError(f"arcs overlap: {left} and {right}")
    if len(arcs) > 1:
        first, last = arcs[0], arcs[-1]
        if last.center + last.half_width - 1.0 >= first.center - first.half_width:
            raise VerificationError(f"arcs overlap around the wrap: {last} and {first}")
    return ArcPartition(N=N, A=A, Q=Q, arcs=tuple(arcs))


# -- major-arc model and comparisons ------------------------------------------


def _interval_transform(beta: float, N: int) -> complex:
    """integral_0^N e(beta u) du, exactly N at beta = 0."""
    if beta == 0.0:
        return complex(N)
    z = math.pi * beta * N
    return cmath.exp(1j * z) * math.sin(z) / (math.pi * beta)


def major_arc_model(ctx: WContext, b: int, q: int, a: int, alpha: float, N: int) -> complex:
    """Local factor times the interval transform at beta = alpha - a/q."""
    factor = s_closed(ctx, b, q, a)
    if factor == 0:
        return 0j
    beta = alpha - a / q
    scale = ctx.phi_W / euler_phi(q * ctx.W)
    return scale * factor * _interval_transform(beta, N)


def compare_major(
    ctx: WContext, b: int, seq_nu: WeightedSequence, partition: ArcPartition, qmax: int
) -> dict:
    """Max |seq transform - major_arc_model(ctx, b, ...)| at center and edges
    of each major arc with q <= qmax, as a report: per arc, per q and overall.

    The transform is dft_at's sum over the support, found once per call.
    """
    if seq_nu.N != partition.N:
        raise ValueError("sequence and partition disagree on N")
    N = partition.N
    idx = seq_nu.support()
    weights = seq_nu.values[idx]

    rows = []
    per_q: dict[int, float] = {}
    for arc in partition.arcs:
        if arc.q > qmax:
            continue
        err = 0.0
        for alpha in (arc.center - arc.half_width, arc.center, arc.center + arc.half_width):
            d = _support_sum(idx, weights, alpha)
            err = max(err, abs(d - major_arc_model(ctx, b, arc.q, arc.a, alpha, N)))
        rows.append({"q": arc.q, "a": arc.a, "center": arc.center, "err_abs": err})
        per_q[arc.q] = max(per_q.get(arc.q, 0.0), err)
    max_err = max((r["err_abs"] for r in rows), default=0.0)
    q1_err = next((r["err_abs"] for r in rows if r["q"] == 1), None)
    return {
        "N": N,
        "max_err": max_err,
        "max_err_over_N": max_err / N,
        "q1_rel_err": None if q1_err is None else q1_err / N,
        "zero_sequence": seq_nu.total() == 0.0,
        "per_q_max": {str(q): v for q, v in sorted(per_q.items())},
        "rows": rows,
    }


# -- minor arcs ----------------------------------------------------------------


def rational_approximation(alpha: float, qmax: int) -> tuple[int, int]:
    """Best continued-fraction convergent a/q of alpha with q <= qmax."""
    a0 = math.floor(alpha)
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    x = alpha - a0
    while x > 1e-15 and k <= qmax:
        x = 1.0 / x
        ai = math.floor(x)
        x -= ai
        h_prev, h = h, ai * h + h_prev
        k_prev, k = k, ai * k + k_prev
    if k <= qmax:
        return h, k
    return h_prev, k_prev


def minor_arc_scan(grid: FourierGrid, partition: ArcPartition) -> dict:
    """Sup of |transform| over grid points in the minor arcs, with its grid
    index, its alpha and the nearest rational a/q with q <= N/Q."""
    if grid.N != partition.N:
        raise ValueError("grid and partition disagree on N")
    L = grid.K * grid.N
    minor = ~partition.major_mask(L)
    count = int(np.count_nonzero(minor))
    mags = np.abs(grid.values)
    mags[~minor] = -1.0
    # with no minor point every entry is -1: index 0, alpha 0 = 0/1, sup 0
    idx = int(np.argmax(mags))
    sup = float(mags[idx]) if count else 0.0
    alpha = idx / L
    a, q = rational_approximation(alpha, max(1, int(partition.N / partition.Q)))
    return {
        "N": grid.N,
        "K": grid.K,
        "sup_abs": sup,
        "sup_over_N": sup / grid.N,
        "argmax_alpha": alpha,
        "argmax_index": idx,
        "nearest_rational": [a, q],
        "minor_points": count,
    }


def pseudorandom_sup(seq_nu: WeightedSequence, K: int, reference: np.ndarray) -> float:
    """Max over the K*N grid of |transform of seq - transform of 1_[N]|, where
    reference is indicator_transform_grid(seq_nu.N, K), built once per (N, K)."""
    if len(reference) != K * seq_nu.N:
        raise ValueError(f"reference has {len(reference)} points, the grid {K * seq_nu.N}")
    diff = dft_grid(seq_nu, K).values
    diff -= reference
    return float(np.max(np.abs(diff)))
