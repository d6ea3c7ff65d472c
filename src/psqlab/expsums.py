"""Exponential sums, Gauss sums, local factors, and arc partitions.

The local factor S(q, a) attached to a residue b mod W is computed two
independent ways: a literal double sum over square roots h of b and
l in [q], evaluated by s_direct(ctx, b, q, units) for all the given units a
of one (b, q) at once, and a closed form s_closed(ctx, b, q, a) dispatching
on gcd(q, W) through quadratic Gauss sums.  Their agreement is the main
oracle of this module.  All rational phases are reduced in exact integer
arithmetic before any trigonometry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._csvio import write_csv
from ._gridfft import grid_length, grid_transform
from .arith import Factorization, euler_phi, factorize, mod_inverse
from .errors import NotCoprime, QTooLarge, TooLarge
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
_DIRECT_CELLS = 1 << 20  # (unit x l) phase-table cells s_direct holds at once


def unit_mask(fac: Factorization) -> np.ndarray:
    """Boolean mask over r = 0 .. k-1, k = fac.expand(), of the units mod k:
    True exactly where gcd(r, k) = 1, so [True] at k = 1.  Each prime factor
    p of k clears the multiples of p; no gcd is taken."""
    mask = np.ones(fac.expand(), dtype=bool)
    for p in fac.primes:
        mask[::p] = False
    return mask


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
        raise NotCoprime(f"gcd({r}, {k}) != 1")
    ls = np.flatnonzero(unit_mask(factorize(k)))
    phases = (r * ls * ls) % k
    return complex(np.sum(np.exp(2j * np.pi * phases / k)))


def gauss_sum_row(k: int) -> np.ndarray:
    """All G(k, r) for r = 0 .. k-1 at once, via the FFT of the square counts.

    The units l mod k come from unit_mask(factorize(k)), in increasing order.
    Only entries with gcd(r, k) = 1 are meaningful Gauss sums; the rest come
    along for free.  Cross-checked against gauss_sum in the tests.
    ValueError for k < 1 and TooLarge past MAX_GAUSS_MODULUS, as gauss_sum.
    """
    _check_gauss_modulus(k)
    if k == 1:
        return np.array([1 + 0j])
    ls = np.flatnonzero(unit_mask(factorize(k)))
    counts = np.bincount((ls * ls) % k, minlength=k).astype(float)
    return np.conj(np.fft.fft(counts))


# -- the local factor S(q, a) -------------------------------------------------

CASE_COPRIME = "coprime"
CASE_GCD_TWO = "gcd2"
CASE_ZERO_GCD = "zero_gcd"
CASE_ZERO_Q2 = "zero_q2"


def _case_tag(q: int, W: int) -> str:
    if q == 2:
        return CASE_ZERO_Q2
    t = math.gcd(q, W)
    if t == 1:
        return CASE_COPRIME
    if t == 2:
        return CASE_GCD_TWO
    return CASE_ZERO_GCD


@dataclass(frozen=True)
class LocalFactor:
    q: int
    a: int
    value: complex
    case_tag: str


def _check_local_args(ctx: WContext, b: int, q: int, a: int) -> None:
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q > MAX_LOCAL_FACTOR_Q:
        raise TooLarge(f"q = {q} exceeds bound {MAX_LOCAL_FACTOR_Q}")
    if math.gcd(a, q) != 1:
        raise NotCoprime(f"gcd({a}, {q}) != 1")
    if b not in ctx.root_map:
        raise ValueError(f"b = {b} not a reduced quadratic residue mod {ctx.W}")


def s_direct(ctx: WContext, b: int, q: int, units: Sequence[int]) -> list[LocalFactor]:
    """Literal double sum over h in H(b) and l in [q] with W*l + h a unit mod q,
    for every a in units at once: one LocalFactor per unit, in order.

    Whether W*l + h is a unit mod q is read from unit_mask(factorize(q)),
    built once per call.  Each h adds one row sum of a (unit x l) phase table
    to that unit's total, so every total accumulates in h order.  Units are
    taken in chunks of at most _DIRECT_CELLS table cells, which bounds the
    memory at any q.
    """
    for a in units:
        _check_local_args(ctx, b, q, a)
    W = ctx.W
    table = np.exp(2j * np.pi * np.arange(q) / q)
    ls = np.arange(1, q + 1, dtype=np.int64)
    wmod = W % q
    is_unit = unit_mask(factorize(q))
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
    tag = _case_tag(q, W)
    return [LocalFactor(q=q, a=a, value=t / ctx.H, case_tag=tag) for a, t in zip(units, totals)]


def s_closed(ctx: WContext, b: int, q: int, a: int) -> LocalFactor:
    """Closed form for the local factor, dispatching on t = gcd(q, W).

    t > 2 and q = 2 vanish; t = 1 reduces to a single Gauss sum with a
    phase in b; t = 2 averages phases over the square roots of b against
    a Gauss sum to the odd modulus q/2.
    """
    _check_local_args(ctx, b, q, a)
    W = ctx.W
    tag = _case_tag(q, W)
    if tag in (CASE_ZERO_Q2, CASE_ZERO_GCD):
        return LocalFactor(q=q, a=a, value=0j, case_tag=tag)

    if tag == CASE_COPRIME:
        if q == 1:
            return LocalFactor(q=q, a=a, value=1 + 0j, case_tag=tag)
        w_inv = mod_inverse(W % q, q)
        phase = (-w_inv * b * a) % q
        value = cmath.exp(2j * cmath.pi * phase / q) * gauss_sum(q, (w_inv * a) % q)
        return LocalFactor(q=q, a=a, value=value, case_tag=tag)

    # t == 2: q = 2 * q0 with q0 odd and coprime to W.
    q0 = q // 2
    inv2w = mod_inverse((2 * W) % q0, q0) if q0 > 1 else 0
    g = gauss_sum(q0, (inv2w * a) % q0 if q0 > 1 else 0)
    total = 0j
    for h in ctx.root_map[b]:
        i_h = (h * h - b) // W
        num = (i_h * a - 2 * inv2w * h * h * a) % q
        total += cmath.exp(2j * cmath.pi * num / q)
    value = (2.0 / ctx.H) * total * g
    return LocalFactor(q=q, a=a, value=value, case_tag=CASE_GCD_TWO)


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
            for k in range(lo, hi + 1):
                mask[k % grid_len] = True
        return mask


def arc_partition(N: int, A: float) -> ArcPartition:
    if N < 2:
        raise ValueError(f"N must be >= 2 (Q = (log N)^A), got {N}")
    if A < 0:
        raise ValueError(f"A must be >= 0, got {A}")
    Q = math.log(N) ** A
    if N <= 2 * Q * Q:
        raise QTooLarge(f"need N > 2*Q^2; N = {N}, Q = {Q:.3f}")
    arcs = []
    for q in range(1, math.floor(Q) + 1):
        hw = Q / (q * N)
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                arcs.append(Arc(q=q, a=a, center=a / q, half_width=hw))
    arcs.sort(key=lambda arc: (arc.center, arc.q))
    # Disjointness is guaranteed by N > 2Q^2; verify anyway.
    for left, right in zip(arcs, arcs[1:]):
        if left.center + left.half_width >= right.center - right.half_width:
            raise RuntimeError(f"arcs overlap: {left} and {right}")
    if len(arcs) > 1:
        first, last = arcs[0], arcs[-1]
        if last.center + last.half_width - 1.0 >= first.center - first.half_width:
            raise RuntimeError(f"arcs overlap around the wrap: {last} and {first}")
    return ArcPartition(N=N, A=A, Q=Q, arcs=tuple(arcs))


# -- major-arc model and comparisons ------------------------------------------


def _interval_transform(beta: float, N: int) -> complex:
    """integral_0^N e(beta u) du, exactly N at beta = 0."""
    if beta == 0.0:
        return complex(N)
    z = math.pi * beta * N
    return cmath.exp(1j * z) * math.sin(z) / (math.pi * beta)


def major_arc_model(
    ctx: WContext, b: int, q: int, a: int, alpha: float, N: int
) -> complex:
    """Local factor times the interval transform at beta = alpha - a/q."""
    factor = s_closed(ctx, b, q, a)
    if factor.value == 0:
        return 0j
    beta = alpha - a / q
    scale = ctx.phi_W / euler_phi(q * ctx.W)
    return scale * factor.value * _interval_transform(beta, N)


@dataclass(frozen=True)
class MajorArcRow:
    q: int
    a: int
    center: float
    err_abs: float


@dataclass(frozen=True)
class MajorReport:
    N: int
    rows: tuple[MajorArcRow, ...]
    per_q_max: dict[int, float]
    max_err: float
    max_err_over_N: float
    q1_rel_err: Optional[float]
    zero_sequence: bool

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "max_err": self.max_err,
            "max_err_over_N": self.max_err_over_N,
            "q1_rel_err": self.q1_rel_err,
            "zero_sequence": self.zero_sequence,
            "per_q_max": {str(q): v for q, v in sorted(self.per_q_max.items())},
            "rows": [
                {"q": r.q, "a": r.a, "center": r.center, "err_abs": r.err_abs}
                for r in self.rows
            ],
        }


def compare_major(
    seq_nu: WeightedSequence,
    partition: ArcPartition,
    model: Callable[[int, int, float], complex],
    qmax: Optional[int] = None,
) -> MajorReport:
    """Max |seq transform - model| at center and edges of each major arc.

    The transform is dft_at's sum over the support, found once per call.
    """
    if seq_nu.N != partition.N:
        raise ValueError("sequence and partition disagree on N")
    arcs = [a for a in partition.arcs if qmax is None or a.q <= qmax]
    zero_sequence = seq_nu.total() == 0.0
    idx = seq_nu.support()
    weights = seq_nu.values[idx]

    rows = []
    for arc in arcs:
        err = 0.0
        for alpha in (arc.center - arc.half_width, arc.center, arc.center + arc.half_width):
            d = _support_sum(idx, weights, alpha)
            err = max(err, abs(d - model(arc.q, arc.a, alpha)))
        rows.append(MajorArcRow(q=arc.q, a=arc.a, center=arc.center, err_abs=err))

    per_q: dict[int, float] = {}
    for row in rows:
        per_q[row.q] = max(per_q.get(row.q, 0.0), row.err_abs)
    max_err = max((r.err_abs for r in rows), default=0.0)
    q1_rel = None
    for row in rows:
        if row.q == 1:
            q1_rel = row.err_abs / partition.N
            break
    return MajorReport(
        N=partition.N,
        rows=tuple(rows),
        per_q_max=per_q,
        max_err=max_err,
        max_err_over_N=max_err / partition.N,
        q1_rel_err=q1_rel,
        zero_sequence=zero_sequence,
    )


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


@dataclass(frozen=True)
class MinorReport:
    N: int
    K: int
    sup_abs: float
    sup_over_N: float
    argmax_alpha: float
    argmax_index: int
    nearest_a: int
    nearest_q: int
    minor_points: int

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "K": self.K,
            "sup_abs": self.sup_abs,
            "sup_over_N": self.sup_over_N,
            "argmax_alpha": self.argmax_alpha,
            "argmax_index": self.argmax_index,
            "nearest_rational": [self.nearest_a, self.nearest_q],
            "minor_points": self.minor_points,
        }


def minor_arc_scan(grid: FourierGrid, partition: ArcPartition) -> MinorReport:
    """Sup of |transform| over grid points in the minor arcs."""
    if grid.N != partition.N:
        raise ValueError("grid and partition disagree on N")
    L = grid.K * grid.N
    minor = ~partition.major_mask(L)
    count = int(np.count_nonzero(minor))
    if count == 0:
        return MinorReport(grid.N, grid.K, 0.0, 0.0, 0.0, 0, 0, 1, 0)
    mags = np.abs(grid.values)
    mags[~minor] = -1.0
    idx = int(np.argmax(mags))
    sup = float(mags[idx])
    alpha = idx / L
    qlim = max(1, int(partition.N / partition.Q))
    a, q = rational_approximation(alpha, qlim)
    return MinorReport(
        N=grid.N,
        K=grid.K,
        sup_abs=sup,
        sup_over_N=sup / grid.N,
        argmax_alpha=alpha,
        argmax_index=idx,
        nearest_a=a,
        nearest_q=q,
        minor_points=count,
    )


def pseudorandom_sup(seq_nu: WeightedSequence, K: int, reference: np.ndarray) -> float:
    """Max over the K*N grid of |transform of seq - transform of 1_[N]|, where
    reference is indicator_transform_grid(seq_nu.N, K), built once per (N, K)."""
    if len(reference) != K * seq_nu.N:
        raise ValueError(f"reference has {len(reference)} points, the grid {K * seq_nu.N}")
    diff = dft_grid(seq_nu, K).values
    diff -= reference
    return float(np.max(np.abs(diff)))
