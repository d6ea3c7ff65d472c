"""Shared FFT plumbing: exponential sums on grids, exact boolean reachability."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import TooLarge, VerificationError

MAX_GRID = 1 << 25
MAX_CONV_LEN = 1 << 24
MAX_LAYER_CELLS = 1 << 28  # bytes of boolean reachability layers kept at once


def fold_sequence(values: np.ndarray, N: int, K: int, one_indexed: bool) -> np.ndarray:
    """Place a sequence on [1, N] (or [0, N-1]) into a length K*N buffer.

    Index arithmetic is mod K*N, which is exact at grid frequencies.
    """
    L = K * N
    if L > MAX_GRID:
        raise TooLarge(f"grid size {L} exceeds bound {MAX_GRID}")
    x = np.zeros(L)
    if one_indexed:
        if L > N:
            x[1 : N + 1] = values[1 : N + 1]
        else:  # K == 1: index N aliases to 0
            x[1:N] = values[1:N]
            x[0] = values[N]
    else:
        x[:N] = values[:N]
    return x


def grid_transform(values: np.ndarray, N: int, K: int, one_indexed: bool) -> np.ndarray:
    """Exponential sum sum_n v(n) e(n k / (K N)) for k = 0 .. K*N - 1."""
    x = fold_sequence(values, N, K, one_indexed)
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


class Reach:
    """Which targets are sums v_0 + ... + v_{s-1} with each v_j in supports[j].

    Supports are sorted nonnegative integer arrays; layers[j] marks the sums
    from supports[j:] on [0, cap], or on Z/modulus when one is given.  Each
    layer is the FFT convolution of the next with a 0/1 support indicator,
    thresholded at 1/2; a rounding residual above 0.25 raises, never falls back.
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
            residual = float(np.max(np.abs(raw - np.rint(raw))))
            if residual > 0.25:
                raise VerificationError(f"FFT rounding residual {residual:.3g} above 0.25")
            layer = raw > 0.5
            self.layers.append(layer)
        self.layers.reverse()

    def reachable(self, targets) -> np.ndarray:
        """Boolean mask: which targets are sums (none outside [0, cap])."""
        t = np.asarray(targets, dtype=np.int64)
        if self.modulus:
            t = t % self.modulus
        first = self.layers[0]
        return (t >= 0) & (t < len(first)) & first[np.clip(t, 0, len(first) - 1)]

    def smallest(self, target: int) -> Optional[tuple[int, ...]]:
        """Lexicographically smallest (v_0, ..., v_{s-1}) summing to target, or None:
        each v_j is the least element whose remainder the next layer reaches."""
        if not self.reachable(target):
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
