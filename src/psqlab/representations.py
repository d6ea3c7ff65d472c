"""Counting and exhibiting n = p_1^2 + ... + p_s^2 with all p_j in P.

Every caller runs on one progression, derived from the member squares:
with m0 the least square and g the gcd of the differences from it, each
square is m0 + g*j for j in J = (squares - m0)/g, so a sum of s squares is
n = s*m0 + g*M with M in sJ.  For p >= 5, p^2 = 1 (mod 24) makes g a
multiple of 24; under a residue spec such as p = +-1 (mod 5) the squares
lie on 121 + 120Z and g = 120.

Existence (the exception scan, witnesses) is boolean reachability over M,
by exact shift-ORs on bitsets.  The scan reads only the s-fold sumset sJ,
from scan_mask; the sample witnesses come from one exact lex-order search
for their M (lex_smallest_sum).

Ordered representation counts come from s-fold convolution of the
prime-square indicator on the same progression, in s - 1 rounds of shifted
integer adds (one per member square), and stay on it: a count table holds
the progression only, never an array over all of [0, limit].  No floating
point is involved: int64 while a bound on the next round proves
it cannot overflow, Python ints (object dtype) after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._gridfft import MAX_CONV_LEN, lex_smallest_sum, reach_budget, scan_mask, sumset_power
from .arith import factorize
from .errors import NotFound, TooLarge, VerificationError
from .primes import PrimeSubsetSpec, empirical_density, sieve, subset_members
from .wtrick import WContext, delta_table, progression_roots, select_residues


def lambda_threshold(s: int) -> float:
    """Density threshold sqrt(1 - min(s, 16)/32) for the s-fold problem."""
    return math.sqrt(1.0 - min(s, 16) / 32.0)


def member_roots(spec: PrimeSubsetSpec, hi: int) -> np.ndarray:
    """The subset primes p with p^2 <= hi, the only ones a sum of squares up to
    hi can use: the members among the primes up to isqrt(hi)."""
    if hi < 0:
        raise ValueError(f"limit must be >= 0, got {hi}")
    return subset_members(spec, sieve(math.isqrt(hi)))


def square_progression(spec: PrimeSubsetSpec, hi: int) -> tuple[int, int, np.ndarray]:
    """(m0, g, J) with every member square up to hi equal to m0 + g*j for one
    j in J: m0 the least square, g the gcd of the differences from it, J
    sorted and holding 0.  A sum of s squares is s*m0 + g*M with M in sJ.
    With one member there is no difference, and g = hi + 1 steps past the
    range; with none, m0 = hi + 1 puts every sum past it."""
    squares = member_roots(spec, hi) ** 2
    m0 = int(squares[0]) if len(squares) else hi + 1
    g = int(np.gcd.reduce(squares - m0)) or hi + 1
    return m0, g, (squares - m0) // g


@dataclass(frozen=True)
class ReprCountTable:
    """Ordered s-tuple counts #{(p_1..p_s) in P^s : sum p_j^2 = n} over
    [0, limit] on one progression: n = start + step*i has count values[i],
    and every other n has count 0.  A step-1 table from start 0 is the
    whole line."""

    limit: int
    start: int
    step: int
    values: np.ndarray

    def to_csv(self, path) -> None:
        """Write the nonzero counts as (n, count) rows, n ascending."""
        from ._csvio import write_csv

        i = np.flatnonzero(self.values)
        write_csv(path, ["n", "count"], [self.start + self.step * i, self.values[i]])

    def nonzero_at(self, n: np.ndarray) -> np.ndarray:
        """Whether the count at each n is nonzero."""
        i, r = np.divmod(n - self.start, self.step)
        on = (r == 0) & (i >= 0) & (i < len(self.values))
        on[on] = self.values[i[on]] != 0
        return on


def count_budget(limit: int, s: int) -> None:
    """Raise TooLarge, before any allocation, when an s-fold count over
    [0, limit] (s >= 2) has a full convolution longer than MAX_CONV_LEN."""
    if s >= 2 and 2 * limit + 1 > MAX_CONV_LEN:
        raise TooLarge(f"convolution length {2 * limit + 1} over budget {MAX_CONV_LEN}")


def count_representations(limit: int, s: int, spec: PrimeSubsetSpec) -> ReprCountTable:
    """s-fold convolution of the prime-square indicator, exact on [0, limit].

    Runs on the member squares' progression (square_progression): after j
    factors, entry M counts n = j*m0 + g*M, which holds every nonzero count
    (the rest of the line is zero), and the table keeps just that progression
    (start s*m0, step g).  Each of the s - 1 rounds adds one shifted copy of
    the counts per member square.  A round's entries are sums of
    len(J) entries of the last, so while max * len(J) < 2^63 int64 cannot
    overflow; past that the counts move to Python ints (object dtype).  The
    progression holds the line's maximum, so the switch falls in the same
    round as on the full line.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    count_budget(limit, s)
    m0, g, J = square_progression(spec, limit)
    acc = np.zeros(max((limit - m0) // g + 1, 0), dtype=np.int64)
    acc[J] = 1
    for j in range(2, s + 1):
        if int(acc.max(initial=0)) * len(J) >= 1 << 63:
            acc = acc.astype(object)
        width = max((limit - j * m0) // g + 1, 0)
        nxt = np.zeros(width, dtype=acc.dtype)
        for k in J[J < width]:
            nxt[k:] += acc[: width - k]
        acc = nxt
    return ReprCountTable(limit=limit, start=s * m0, step=g, values=acc)


def count_violations(
    table: ReprCountTable, s: int, spec: PrimeSubsetSpec, n_lo: int, exceptions
) -> np.ndarray:
    """Sorted n with a nonzero count off n = s (mod 24) (when the spec leaves
    out 2 and 3), together with the n where "count is nonzero" disagrees
    with a stride-1 route that never divides by the step g the counts were
    built on, and the scan's targets (n = s mod 24 in [n_lo, limit]) where
    "n is one of its exceptions" disagrees with "count is zero".  With m0
    the least member square, no n below s*m0 is a sum of s member squares,
    and on the window of 2^12 + 1 values from s*m0 the sums are s*m0 plus
    the s-fold sumset of the member squares less m0.  The table is read only
    at the n each test needs, never spread over [0, limit]."""
    limit, start, step, values = table.limit, table.start, table.step, table.values
    bad = [np.zeros(0, dtype=np.int64)]
    if spec.min_prime >= 5:  # every p^2 is 1 mod 24
        period = 24 // math.gcd(step, 24)  # the period in i of n = start + step*i mod 24
        for r in range(period):
            if (start + step * r - s) % 24:
                bad.append(start + step * (r + period * np.flatnonzero(values[r::period])))
    squares = member_roots(spec, limit) ** 2
    lo = min(s * int(squares[0]), limit + 1) if len(squares) else limit + 1
    below = max(-((start - lo) // step), 0)  # n = start + step*i < lo for i < below
    bad.append(start + step * np.flatnonzero(values[:below]))
    width = max(0, min(limit + 1 - lo, (1 << 12) + 1))
    if width:
        window = np.arange(lo, lo + width)
        reached = sumset_power(squares - squares[0], s, width - 1)
        bad.append(window[table.nonzero_at(window) != reached])
    # the scan's targets n >= 0: from the first one at or past n_lo, or s mod 24
    targets = np.arange(max(n_lo + (s - n_lo) % 24, s % 24), limit + 1, 24)
    bad.append(targets[np.isin(targets, exceptions) == table.nonzero_at(targets)])
    bad = np.sort(np.concatenate(bad))
    return bad[np.diff(bad, prepend=-1) != 0]  # np.unique imports numpy.ma: ~12 ms


def scan_lattice(s: int, spec: PrimeSubsetSpec, hi: int) -> None:
    """Raise TooLarge up front if the exception scan over n <= hi is too big.

    Every square of a prime p >= 5 is 1 + 24k, so s of them sum to s + 24K
    (stride 1 when the spec admits 2 or 3); the budget is that of a search
    over K <= (hi - s)/24.  The scan itself runs on the member squares'
    progression, whose step is no shorter than that stride and whose least
    square is no smaller than its unit, so it is never longer."""
    stride, unit = (24, 1) if spec.min_prime >= 5 else (1, 0)
    reach_budget(s + 1, max(hi - s * unit, 0) // stride + 1)


# -- experiment ----------------------------------------------------------------


def theorem_experiment(s: int, spec: PrimeSubsetSpec, n_range: tuple[int, int]) -> dict:
    """Scan every n = s (mod 24) in the range for a representation.

    A target n = s*m0 + g*M is represented when M is a nonnegative integer
    in sJ (square_progression), which the scan reads from scan_mask; the
    witnesses of the first three represented targets are
    lex_smallest_sum([J] * s, [M1, M2, M3]).  The targets are indices, never
    built: target i < n_checked is n = first + 24i, on the progression only
    for i in one class mod g/gcd(24, g) (none when gcd(24, g) does not divide
    first - s*m0), where M steps by 24/gcd(24, g); so the scan holds one
    byte per target and the mask.  Exceptions (no representation) are
    reported, never fatal; a sampled target the search cannot back raises
    VerificationError.  Needs s >= 1, then a range that starts at n >= 0
    (ValueError, before anything is built); the density counts the primes up
    to hi.  The report lists the exceptions in ascending order, as one int64
    array, and each witness as its n and primes.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    lo, hi = n_range
    if lo > hi:
        raise ValueError(f"empty range {n_range}")
    if lo < 0:
        raise ValueError(f"the range must start at n >= 0, got {lo}")
    scan_lattice(s, spec, hi)
    density = empirical_density(spec, hi)  # its sieve windows before the scan's arrays
    m0, g, J = square_progression(spec, hi)

    first = lo + ((s - lo) % 24)  # target i is n = first + 24i = s*m0 + A + 24i
    T = max((hi - first) // 24 + 1, 0)
    A = first - s * m0
    d = math.gcd(24, g)
    hit = np.zeros(T, dtype=bool)
    if A % d == 0:  # else g never divides A + 24i
        # g | A + 24i for i = r (mod period); i0 the first such i with A + 24i >= 0
        period = g // d
        r = -(A // d) * pow(24 // d, -1, period) % period
        i_min = max(-(A // 24), 0)
        i0 = i_min + (r - i_min) % period
        on = hit[i0::period]  # M = (A + 24i)/g steps by 24/d from M0 along it
        M0 = (A + 24 * i0) // g
        on[:] = scan_mask(J, s, max(hi - s * m0, 0) // g)[M0 :: 24 // d][: len(on)]
    sampled, i = [], 0
    while len(sampled) < 3 and i < T:  # the first three hits, by argmax walks
        i += int(hit[i:].argmax())
        if not hit[i]:
            break
        sampled.append(first + 24 * i)
        i += 1
    exceptions = np.flatnonzero(np.logical_not(hit, out=hit)).astype(np.int64, copy=False)
    exceptions *= 24
    exceptions += first
    witnesses = []
    found = lex_smallest_sum([J] * s, [(n - s * m0) // g for n in sampled])
    for n, js in zip(sampled, found):
        if js is None:
            raise VerificationError(f"scan marks n = {n} represented; no witness reaches it")
        witnesses.append({"n": n, "primes": [math.isqrt(m0 + g * j) for j in js]})

    lam = lambda_threshold(s)
    return {
        "s": s,
        "spec": spec.to_json(),
        "lambda_threshold": lam,
        "empirical_density": density,
        "density_exceeds_threshold": density > lam,
        "range": [lo, hi],
        "n_checked": T,
        "exceptions": exceptions,
        "max_exception": int(exceptions[-1]) if len(exceptions) else None,  # targets ascend
        "sample_witnesses": witnesses,
        "exploratory": s < 8,
    }


# -- transfer ---------------------------------------------------------------------


def transfer_witness(
    ctx: WContext,
    n: int,
    s: int,
    spec: PrimeSubsetSpec,
    kappa: float = 0.1,
) -> dict:
    """Residue selection, then an index search in the transferred variables.

    One sieve (progression_roots) gives the roots p in every progression;
    picks residues b_j by density (delta_table), forms m = (n - sum b_j)/W,
    and searches for indices n_j = (p^2 - b_j)/W of roots of b_j with sum m.
    The witness reports the primes p_j, residues b_j, indices n_j and m.
    Raises Infeasible (residue selection) or NotFound (index search).  Before
    the sieve: ValueError for s < 8, n != s (mod 24) or kappa <= 0, in that
    order, then TooLarge for a window N = 2n/(sW) with 2N - 1 past
    MAX_CONV_LEN: the longest pair-sum mask of two supports in [1, N], which
    also bounds delta_table's N + 1 points.
    """
    if s < 8:
        raise ValueError(f"s must be >= 8, got {s}")
    if n % 24 != s % 24:
        raise ValueError(f"need n = s (mod 24); got n = {n}, s = {s}")
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    W = ctx.W
    N = window_length(ctx, n, s)
    if 2 * N - 1 > MAX_CONV_LEN:
        raise TooLarge(f"transfer window N = {N} over budget: 2N - 1 > {MAX_CONV_LEN}")
    if N < 1:
        raise NotFound(f"target {n} gives window length {N} < 1 at W = {W}")

    roots = progression_roots(ctx, N, spec)
    density = delta_table(ctx, N, roots)
    residues = select_residues(ctx, density, n, s, kappa)  # may raise Infeasible

    m, rem = divmod(n - sum(residues), W)
    if rem:
        raise VerificationError("residue sum violates the congruence; selection is broken")

    _, index, root_residue = roots
    support = {b: index[root_residue == b] for b in set(residues)}
    supports = [support[b] for b in residues]
    [indices] = lex_smallest_sum(supports, [m])
    if indices is None:
        raise NotFound(
            f"no index combination sums to m = {m} over supports of sizes "
            f"{[len(x) for x in supports]}"
        )

    primes = [math.isqrt(W * nj + b) for b, nj in zip(residues, indices)]
    # primality by trial division, apart from the sieve behind the supports
    for p, b, nj in zip(primes, residues, indices):
        if p * p != W * nj + b or factorize(p) != ((p, 1),):
            raise VerificationError("support index does not correspond to a prime square")
    if sum(p * p for p in primes) != n:
        raise VerificationError("transferred witness fails the square-sum identity")
    return {
        "n": n,
        "primes": primes,
        "residues": residues,
        "indices": [int(i) for i in indices],
        "m": m,
    }


def window_length(ctx: WContext, n: int, s: int) -> int:
    """N = 2n / (sW), rounded down: the index window [1, N] of the transfer."""
    return (2 * n) // (s * ctx.W)


def m_window_deviation(ctx: WContext, n: int, s: int) -> float | None:
    """Relative deviation of m from its nominal value s*N/2 (reporting aid),
    None when the window is empty (N < 1)."""
    N = window_length(ctx, n, s)
    if N < 1:
        return None
    nominal = s * N / 2.0
    return abs(n / ctx.W - nominal) / nominal
