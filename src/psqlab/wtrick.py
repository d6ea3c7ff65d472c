"""The W-trick context and weighted prime-square sequences.

W = 8 * prod of odd primes below w.  For a reduced quadratic residue b
mod W, the sequence n -> (phi(W)/(W*H)) * 2p*log(p) is supported on the
n in [1, N] with W*n + b a prime square.  Restricting the primes to a
subset P gives the sequence f; the majorant nu is the all-primes subset
sequence, so it dominates every f.  A WeightedSequence(N, values) is the
one sequence form the transform and restriction code takes.  One sieve
(progression_roots) gives the roots in every progression at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._gridfft import grid_transform, lex_smallest_sum
from .arith import _SMALL_PRIMES, unit_mask
from .errors import Infeasible, TooLarge, VerificationError
from .primes import PrimeSubsetSpec, sieve, subset_members

MAX_W = 4_000_000


@dataclass(frozen=True)
class WContext:
    """Fully enumerated structure of the units mod W and their squares.

    Z_W lists the reduced quadratic residues; root_map[b] holds the units
    whose square is b.  Every root set has the same size H, and
    H * |Z_W| = phi(W).
    """

    w: int
    W: int
    phi_W: int
    H: int
    Z_W: tuple[int, ...]
    root_map: dict[int, tuple[int, ...]]

    def to_json(self) -> dict:
        return {
            "w": self.w,
            "W": self.W,
            "phi": self.phi_W,
            "H": self.H,
            "Z": list(self.Z_W),
            "roots": {str(b): list(hs) for b, hs in self.root_map.items()},
        }


def build_context(w: int) -> WContext:
    """Group the units mod W = 8 * prod(2 < p < w), from unit_mask(W), by square."""
    if w < 4:
        raise ValueError(f"w must be >= 4, got {w}")
    W, odd = 8, []
    for p in _SMALL_PRIMES[1:]:  # the odd primes below w, while W stays within MAX_W
        if p >= w:
            break
        if W * p > MAX_W:
            raise TooLarge(
                f"w = {w} puts W = 8 * prod(2 < p < w) past MAX_W = {MAX_W}; "
                f"the largest supported w is {p}"
            )
        W *= p
        odd.append(p)

    units = np.flatnonzero(unit_mask(W))
    squares = (units * units) % W
    order = np.argsort(squares, kind="stable")
    squares_sorted = squares[order]
    units_sorted = units[order]
    cuts = np.flatnonzero(np.diff(squares_sorted)) + 1
    groups = np.split(units_sorted, cuts)
    bs = squares_sorted[np.concatenate(([0], cuts))]

    root_map = {int(b): tuple(int(h) for h in g) for b, g in zip(bs, groups)}
    Z = tuple(sorted(root_map))
    phi = len(units)
    H = 4 * (2 ** len(odd))

    # Structural invariants; violation means the construction is broken.
    if H * len(Z) != phi or any(len(root_map[b]) != H for b in Z):
        raise VerificationError(f"root structure invariant failed for w={w}")
    if any(b % 24 != 1 for b in Z):
        raise VerificationError(f"found b in Z(W) with b % 24 != 1 for w={w}")
    return WContext(w=w, W=W, phi_W=phi, H=H, Z_W=Z, root_map=root_map)


@dataclass(frozen=True)
class WeightedSequence:
    """Nonnegative weights on n in [1, N]; values[0] is a padding slot, which
    must be 0 (ValueError otherwise).

    values is a private read-only float64 copy, so the grid grid_magnitudes
    keeps stays the transform of these weights, and the caller's array stays
    writable without its later writes reaching the sequence.
    """

    N: int
    values: np.ndarray  # float64, length N + 1, indexed by n
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.shape != (self.N + 1,):
            raise ValueError(
                f"values must have length N + 1 = {self.N + 1}, got shape {values.shape}"
            )
        if values[:1].any():  # N = -1 leaves no slot
            raise ValueError(f"the padding slot values[0] must be 0, got {float(values[0])}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.values)

    def total(self) -> float:
        return float(np.sum(self.values))

    def grid_magnitudes(self, K: int) -> np.ndarray:
        """|grid_transform(values, N, K)|, read-only.  The last grid asked for is
        kept: asking again for the same K reuses it, and asking for another K
        drops it before transforming, so no more than one grid is ever held.
        """
        mags = self._grids.get(K)
        if mags is None:
            self._grids.clear()
            mags = np.abs(grid_transform(self.values, self.N, K))
            mags.flags.writeable = False
            self._grids[K] = mags
        return mags


def progression_roots(ctx: WContext, N: int, spec: PrimeSubsetSpec) -> tuple[np.ndarray, ...]:
    """(p, n, b) for the subset primes p, ascending, with p^2 = W*n + b and n in
    [1, N]: one sieve to isqrt(W*(N + 1) - 1), then n, b = divmod(p^2, W).
    Every b is in Z_W, as a prime dividing W has p^2 < W.  ValueError for N < 1."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    p = subset_members(spec, sieve(math.isqrt(ctx.W * (N + 1) - 1)))
    n, b = np.divmod(p * p, ctx.W)
    keep = n >= 1
    return p[keep], n[keep], b[keep]


def _weights(ctx: WContext, p: np.ndarray) -> np.ndarray:
    coeff = ctx.phi_W / (ctx.W * ctx.H)
    pf = p.astype(np.float64)
    return coeff * 2.0 * pf * np.log(pf)


def nu_sequence(ctx: WContext, b: int, N: int) -> WeightedSequence:
    """Majorant sequence: every prime square in the progression contributes."""
    # Every b in Z(W) is 1 mod 24 and n >= 1, so p^2 >= W + 1 >= 25: min_prime 5 drops nothing.
    return f_sequence(ctx, b, N, PrimeSubsetSpec.all_primes())


def f_sequence(ctx: WContext, b: int, N: int, spec: PrimeSubsetSpec) -> WeightedSequence:
    """Subset sequence: same weights, kept only when the root lies in P."""
    if b not in ctx.root_map:
        raise ValueError(f"b = {b} is not a reduced quadratic residue mod {ctx.W}")
    p, n, r = progression_roots(ctx, N, spec)
    keep = r == b
    values = np.zeros(N + 1)
    values[n[keep]] = _weights(ctx, p[keep])
    return WeightedSequence(N=N, values=values)


def delta_table(ctx: WContext, N: int, roots: tuple[np.ndarray, ...]) -> dict[int, float]:
    """{b: mean of the subset sequence on [1, N]} for every b in Z_W, from
    roots = progression_roots(ctx, N, spec): each the bits of
    f_sequence(ctx, b, N, spec).total() / N, summed over one reused buffer."""
    p, n, r = roots
    order = np.argsort(r, kind="stable")  # p stays ascending within each b
    values, table = np.zeros(N + 1), {}
    for b, g in zip(ctx.Z_W, np.split(order, np.searchsorted(r[order], ctx.Z_W[1:]))):
        values[n[g]] = _weights(ctx, p[g])
        table[b] = float(np.sum(values)) / N
        values[n[g]] = 0.0
    return table


def select_residues(
    ctx: WContext, density: dict[int, float], n: int, s: int, kappa: float
) -> list[int]:
    """Pick s residues b_j with sum congruent to n mod W and high density.

    density is delta_table's {b: mean}.  The result is b0 repeated (s - 8)
    times, b0 the least b of greatest density mu, plus the lexicographically
    smallest nondecreasing 8-tuple of residues whose density clears
    2*lambda^2 - mu + kappa/4.  Every b is 1 mod 24, so on k = (b - 1)/24 in
    [0, m), m = W/24, the 8-fold sum condition mod W is sum k = t (mod m).
    An 8-tuple's integer sum lies in [0, 8(m - 1)], so the tuples meeting it
    are those whose sum is t + i*m for some i in 0..7, and the lex-smallest
    of them is the least of the eight exact lex_smallest_sum answers (one
    search, one pair-sum mask and one stack of suffix-sum bitsets, which on
    a small pool reach the top, so that each lift is answered greedily or
    refuted by one bit test): no FFT and nothing to certify.  Raises
    Infeasible when the threshold or the sum condition cannot be met.
    """
    if s < 8:
        raise ValueError(f"s must be >= 8, got {s}")
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if n % 24 != s % 24:
        raise ValueError(f"need n = s (mod 24); got n = {n}, s = {s}")

    lam_sq = 1.0 - min(s, 16) / 32.0
    mu = max(density.values())
    b0 = min(b for b, d in density.items() if d == mu)
    threshold = 2.0 * lam_sq - mu + kappa / 4.0
    pool = sorted(b for b, d in density.items() if d >= threshold)
    if not pool:
        raise Infeasible(
            f"no residue density reaches threshold {threshold:.4f} (max is {mu:.4f})"
        )

    W = ctx.W
    target = (n - (s - 8) * b0) % W
    ks = (np.asarray(pool, dtype=np.int64) - 1) // 24
    m, t = W // 24, (target - 8) // 24  # target = 8 (mod 24): t in [0, m)
    lifts = lex_smallest_sum([ks] * 8, [t + i * m for i in range(8)])
    found = min((js for js in lifts if js is not None), default=None)
    if found is None:
        raise Infeasible(f"no 8-fold combination from {pool} sums to {target} mod {W}")
    chosen = [b0] * (s - 8) + [24 * k + 1 for k in found]
    if sum(chosen) % W != n % W:
        raise VerificationError("selected residues violate the sum congruence")
    return chosen
