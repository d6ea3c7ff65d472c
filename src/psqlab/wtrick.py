"""The W-trick environment and weighted prime-square sequences.

W = 8 * prod of odd primes below w.  For a reduced quadratic residue b
mod W, the sequence n -> (phi(W)/(W*H)) * 2p*log(p) is supported on the
n in [1, N] with W*n + b a prime square.  Restricting the primes to a
subset P gives the sequence f; the majorant nu is the all-primes subset
sequence, so it dominates every f.  A WeightedSequence(N, values) is the
one sequence form the transform and restriction code takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._gridfft import Reach, grid_length, grid_transform
from .arith import _SMALL_PRIMES
from .errors import Infeasible, TableTooSmall, TooLarge
from .primes import PrimeSubsetSpec, PrimeTable, subset_members

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
    """Enumerate units mod W = 8 * prod(2 < p < w) and group them by square."""
    if w < 4:
        raise ValueError(f"w must be >= 4, got {w}")
    odd = [p for p in _SMALL_PRIMES if 2 < p < w]
    W = 8
    for p in odd:
        W *= p
    if W > MAX_W:
        raise TooLarge(f"W = {W} exceeds supported bound {MAX_W}")

    values = np.arange(W, dtype=np.int64)
    units = values[np.gcd(values, W) == 1]
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
        raise RuntimeError(f"root structure invariant failed for w={w}")
    if any(b % 24 != 1 for b in Z):
        raise RuntimeError(f"found b in Z(W) with b % 24 != 1 for w={w}")
    return WContext(w=w, W=W, phi_W=phi, H=H, Z_W=Z, root_map=root_map)


@dataclass(frozen=True)
class WeightedSequence:
    """Nonnegative weights on n in [1, N]; values[0] is a padding slot.

    values is read-only, so the grid grid_magnitudes keeps stays the
    transform of these weights.  A float64 array that owns its memory and is
    already read-only is taken as handed over (f_sequence builds its array
    that way, which spares an N-point copy); anything else, a writable array
    or a view of one, is copied, so the caller's buffer stays writable and
    later writes to it do not reach the sequence.
    """

    N: int
    values: np.ndarray  # float64, length N + 1, indexed by n
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.flags.writeable or values.base is not None or values.dtype != np.float64:
            values = np.array(values, dtype=np.float64)
        if values.shape != (self.N + 1,):
            raise ValueError(
                f"values must have length N + 1 = {self.N + 1}, got shape {values.shape}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.values)

    def total(self) -> float:
        return float(np.sum(self.values))

    def mean(self) -> float:
        return self.total() / self.N

    def grid_magnitudes(self, K: int) -> np.ndarray:
        """|grid_transform(values, N, K)|, read-only.  The last grid asked for is
        kept: asking again for the same K reuses it, and asking for another K
        drops it before transforming, so no more than one grid is ever held.

        For K > 1 with values[0] == 0, values zero-padded to K*N points is
        grid_transform's input and |conj z| = |z|, so the padded FFT gives the
        same bits without grid_transform's extra K*N-point copy.
        """
        mags = self._grids.get(K)
        if mags is None:
            self._grids.clear()
            if K > 1 and self.values[0] == 0:
                mags = np.abs(np.fft.fft(self.values, grid_length(self.N, K)))
            else:
                mags = np.abs(grid_transform(self.values, self.N, K))
            mags.flags.writeable = False
            self._grids[K] = mags
        return mags


def _squares_in_progression(ctx: WContext, b: int, N: int, table: PrimeTable):
    """Primes p with p^2 = W*n + b for some n in [1, N], and those n."""
    if b not in ctx.root_map:
        raise ValueError(f"b = {b} is not a reduced quadratic residue mod {ctx.W}")
    top = math.isqrt(ctx.W * N + b)
    if table.limit < top:
        raise TableTooSmall(f"need primes up to {top}, table stops at {table.limit}")
    p = table.primes_upto(top)
    r = p * p - b
    ok = (r > 0) & (r % ctx.W == 0)
    p = p[ok]
    n = (p * p - b) // ctx.W
    inside = n <= N
    return p[inside], n[inside]


def _weights(ctx: WContext, p: np.ndarray) -> np.ndarray:
    coeff = ctx.phi_W / (ctx.W * ctx.H)
    pf = p.astype(np.float64)
    return coeff * 2.0 * pf * np.log(pf)


def nu_sequence(ctx: WContext, b: int, N: int, table: PrimeTable) -> WeightedSequence:
    """Majorant sequence: every prime square in the progression contributes."""
    # Every b in Z(W) is 1 mod 24 and n >= 1, so p^2 >= W + 1 >= 25: min_prime 5 drops nothing.
    return f_sequence(ctx, b, N, PrimeSubsetSpec.all_primes(), table)


def f_sequence(
    ctx: WContext, b: int, N: int, spec: PrimeSubsetSpec, table: PrimeTable
) -> WeightedSequence:
    """Subset sequence: same weights, kept only when the root lies in P."""
    p, n = _squares_in_progression(ctx, b, N, table)
    members = subset_members(spec, table)
    keep = np.isin(p, members)
    values = np.zeros(N + 1)
    values[n[keep]] = _weights(ctx, p[keep])
    values.flags.writeable = False  # handed over to the sequence without a copy
    return WeightedSequence(N=N, values=values)


@dataclass(frozen=True)
class DensityTable:
    """Mean value of the subset sequence for every residue b in Z_W."""

    N: int
    entries: dict[int, float]

    def max_entry(self) -> tuple[int, float]:
        mu = max(self.entries.values())
        b0 = min(b for b, d in self.entries.items() if d == mu)
        return b0, mu


def delta_table(
    ctx: WContext, N: int, spec: PrimeSubsetSpec, table: PrimeTable
) -> DensityTable:
    entries = {b: f_sequence(ctx, b, N, spec, table).mean() for b in ctx.Z_W}
    return DensityTable(N=N, entries=entries)


def select_residues(
    ctx: WContext, dt: DensityTable, n: int, s: int, kappa: float
) -> list[int]:
    """Pick s residues b_j with sum congruent to n mod W and high density.

    The result is b0 repeated (s - 8) times, b0 the densest residue, plus the
    lexicographically smallest nondecreasing 8-tuple of residues whose density
    clears 2*lambda^2 - mu + kappa/4.  Every b is 1 mod 24, so on k = (b - 1)/24
    the 8-fold sum condition mod W is a cyclic reachability search mod
    W' = W/24.  Raises Infeasible when the threshold or the sum condition
    cannot be met.
    """
    if s < 8:
        raise ValueError(f"s must be >= 8, got {s}")
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if n % 24 != s % 24:
        raise ValueError(f"need n = s (mod 24); got n = {n}, s = {s}")

    lam_sq = 1.0 - min(s, 16) / 32.0
    b0, mu = dt.max_entry()
    threshold = 2.0 * lam_sq - mu + kappa / 4.0
    pool = sorted(b for b, d in dt.entries.items() if d >= threshold)
    if not pool:
        raise Infeasible(
            f"no residue density reaches threshold {threshold:.4f} (max is {mu:.4f})"
        )

    W = ctx.W
    target = (n - (s - 8) * b0) % W
    ks = (np.asarray(pool, dtype=np.int64) - 1) // 24
    found = Reach([ks] * 8, modulus=W // 24).smallest((target - 8) // 24)
    if found is None:
        raise Infeasible(f"no 8-fold combination from {pool} sums to {target} mod {W}")
    chosen = [b0] * (s - 8) + [24 * k + 1 for k in found]
    if sum(chosen) % W != n % W:
        raise RuntimeError("selected residues violate the sum congruence")
    return chosen
