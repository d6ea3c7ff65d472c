"""Shared FFT plumbing: exponential sums on grids, exact boolean reachability.

A grid transform takes a weighted sequence on [1, N] in its one form: an
array indexed by n, with values[0] as the padding slot.

Every boolean sumset product (the suffix layers of Reach, the binary
powers of sumset_power and the last product of scan_mask's descent) is an
FFT of 0/1 indicators rounded by `certified`: thresholded at 1/2 under one
rounding-residual certificate that raises rather than falls back.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import TooLarge, VerificationError

MAX_GRID = 1 << 25
MAX_CONV_LEN = 1 << 24
MAX_LAYER_CELLS = 1 << 28  # bytes of boolean reachability layers kept at once


def grid_length(N: int, K: int) -> int:
    """L = K * N points of a grid over [1, N]; ValueError for N or K below 1,
    TooLarge past MAX_GRID, both before anything is allocated."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if K < 1:
        raise ValueError(f"oversampling factor must be >= 1, got {K}")
    L = K * N
    if L > MAX_GRID:
        raise TooLarge(f"grid size {L} exceeds bound {MAX_GRID}")
    return L


def grid_transform(values: np.ndarray, N: int, K: int) -> np.ndarray:
    """Exponential sum sum_{n=1}^{N} v(n) e(n k / (K N)) for k = 0 .. K*N - 1.

    values is indexed by n (values[0] is a padding slot).  Index arithmetic
    is mod K*N, which is exact at grid frequencies.
    """
    L = grid_length(N, K)
    x = np.zeros(L)
    if L > N:
        x[1 : N + 1] = values[1 : N + 1]
    else:  # K == 1: index N aliases to 0
        x[1:N] = values[1:N]
        x[0] = values[N]
    return np.conj(np.fft.fft(x))


def reach_budget(layers: int, width: int) -> int:
    """Power-of-two FFT length for `width`-cell reachability layers; TooLarge,
    before any allocation, past MAX_CONV_LEN or MAX_LAYER_CELLS for all layers."""
    L = 1 << (2 * width - 1).bit_length()
    if L > MAX_CONV_LEN:
        raise TooLarge(f"convolution length {L} over budget {MAX_CONV_LEN}")
    if layers * width > MAX_LAYER_CELLS:
        raise TooLarge(f"{layers} layers of {width} cells over budget {MAX_LAYER_CELLS}")
    return L


def certified(raw: np.ndarray) -> np.ndarray:
    """raw > 1/2 for a real FFT product of 0/1 indicators, whose exact values
    are nonnegative integers; VerificationError if any entry is more than 0.25
    from an integer, since then the rounding cannot be trusted."""
    residual = float(np.max(np.abs(raw - np.rint(raw))))
    if residual > 0.25:
        raise VerificationError(f"FFT rounding residual {residual:.3g} above 0.25")
    return raw > 0.5


def sumset_power(support, s: int, cap: int) -> np.ndarray:
    """Boolean mask over [0, cap] of the s-fold sumset of a nonnegative support.

    Binary powering: A -> 2A -> 4A -> ..., with one product per set bit of s,
    each a certified FFT product at the length reach_budget(s + 1, cap + 1)
    gives, so the budget and its TooLarge are those of Reach([support] * s,
    cap), whose layers[0] this equals.  Truncating every partial sumset to
    [0, cap] is exact, since adding nonnegative elements never comes back down.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    width = cap + 1
    L = reach_budget(s + 1, width)
    sup = np.asarray(support, dtype=np.int64)
    power = np.bincount(sup[sup < width], minlength=width) > 0
    result = None
    while True:
        # power's spectrum, unless power is the last factor and needs no product
        spectrum = None if s == 1 and result is None else np.fft.rfft(power, L)
        if s & 1:
            result = power if result is None else certified(
                np.fft.irfft(np.fft.rfft(result, L) * spectrum, L)[:width]
            )
        s >>= 1
        if not s:
            return result
        power = certified(np.fft.irfft(spectrum * spectrum, L)[:width])


def scan_mask(support, s: int, cap: int) -> np.ndarray:
    """sumset_power(support, s, cap), by a certified descent where one closes.

    A is the support on [0, cap], G its largest gap and c1 the least power of
    two at least 2G + 1.  D = (s-1)A on [0, c1) holds all of [K0, c1).  If
    the intervals [k + K0, k + c1 - 1], k in A, cover [c1, cap], every M
    there is k + d with d in D, so sA holds all of it; below c1, sA is the
    one certified product D + A.  Otherwise (s < 2, c1 >= cap, or a gap in
    the cover, as when D is obstructed mod some q and misses up to c1) this
    is sumset_power(support, s, cap).
    """
    ks = np.sort(np.asarray(support, dtype=np.int64))  # not np.unique: ~10 ms on first use
    ks = ks[ks <= cap]
    c1 = 1 << (2 * int(np.diff(ks).max(initial=0))).bit_length()
    if s >= 2 and c1 < cap:
        dense = sumset_power(ks, s - 1, c1 - 1)
        misses = np.flatnonzero(~dense)
        K0 = int(misses[-1]) + 1 if len(misses) else 0
        # covered[i]: the running max of the interval ends before the i-th k,
        # which is the previous end, since ks is sorted and the lengths equal
        covered = np.concatenate(([c1 - 1], ks + c1 - 1))
        gaps = (ks + K0 > covered[:-1] + 1) & (covered[:-1] < cap)
        if covered[-1] >= cap and not gaps.any():
            L = reach_budget(2, c1)
            ind = np.bincount(ks[ks < c1], minlength=c1) > 0
            out = np.ones(cap + 1, dtype=bool)
            out[:c1] = certified(np.fft.irfft(np.fft.rfft(dense, L) * np.fft.rfft(ind, L), L)[:c1])
            return out
    return sumset_power(ks, s, cap)


class Reach:
    """Which targets are sums v_0 + ... + v_{s-1} with each v_j in supports[j].

    Supports are sorted nonnegative integer arrays; layers[j] marks the sums
    from supports[j:] on [0, cap], or on Z/modulus when one is given.  Each
    layer is the FFT convolution of the next with a 0/1 support indicator,
    rounded by `certified`: a residual above 0.25 raises, never falls back.
    """

    def __init__(self, supports, cap: int = 0, modulus: Optional[int] = None):
        self.supports = [np.asarray(sup, dtype=np.int64) for sup in supports]
        self.modulus = modulus
        width = modulus or cap + 1
        L = reach_budget(len(self.supports) + 1, width)
        layer = np.arange(width) == 0  # the empty suffix sums to 0
        self.layers = [layer]
        spectra: dict[int, np.ndarray] = {}  # by id: a repeated support is transformed once
        for sup in reversed(self.supports):
            if id(sup) not in spectra:
                ind = np.bincount(sup % width if modulus else sup[sup < width], minlength=width)
                spectra[id(sup)] = np.fft.rfft(ind > 0, L)
            raw = np.fft.irfft(np.fft.rfft(layer, L) * spectra[id(sup)], L)
            raw = raw[:width] + raw[width : 2 * width] if modulus else raw[:width]
            layer = certified(raw)
            self.layers.append(layer)
        self.layers.reverse()

    def smallest(self, target: int) -> Optional[tuple[int, ...]]:
        """Lexicographically smallest (v_0, ..., v_{s-1}) summing to target, or None:
        each v_j is the least element whose remainder the next layer reaches."""
        if self.modulus:
            target %= self.modulus
        if not 0 <= target < len(self.layers[0]) or not self.layers[0][target]:
            return None
        out = []
        for sup, rest in zip(self.supports, self.layers[1:]):
            if not self.modulus:
                sup = sup[sup <= target]
            v = int(sup[np.argmax(rest[(target - sup) % len(rest)])])
            out.append(v)
            target -= v
        return tuple(out)


def lex_smallest_sum(supports, target: int) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest (v_0, ..., v_{s-1}), v_j in supports[j], summing to target."""
    return Reach(supports, target).smallest(target) if target >= 0 else None
