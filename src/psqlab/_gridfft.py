"""Shared plumbing: exponential sums on grids, exact boolean sumsets.

A grid transform takes a weighted sequence on [1, N] in its one form: an
array indexed by n, with values[0] as the padding slot, which is 0.

Every boolean sumset is one exact primitive, shift_or, on sets held as the
bits of Python ints: integer work with no rounding, so nothing to certify.
sumset_power is s - 1 rounds of it and scan_mask's descent closes with one
more.  lex_smallest_sum, behind the experiment's sample witnesses, the
transfer's residue selection and its index search, is an exact lex-order
search: one walk over its levels, each asked by one membership test
whether it can still complete a remainder.  Low levels answer from a stack
of suffix-sum bitsets, a packed boolean mask of pair sums at the bottom
and, where they fit a budget, levels built above it by shift_or; levels
above the stack answer from a memo of the remainders that failed.  It
raises TooLarge past its step cap or its mask budget.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Optional

import numpy as np

from .errors import TooLarge

MAX_GRID = 1 << 25
# cells of a pair-sum mask, pair matrix or count convolution, and at least
# 2 * width - 1 for a sumset layer's width (at most 2^23)
MAX_CONV_LEN = 1 << 24
# (s + 1) * (cap + 1) of an s-fold sumset on [0, cap]: times the support's
# size / 64, a bound on the words its s - 1 rounds of shift-ORs touch
MAX_LAYER_CELLS = 1 << 28
MAX_SEARCH_STEPS = 1 << 20  # lex_smallest_sum's steps before it raises TooLarge
# cells of its pair-sum mask's build, or values its walk tries from the top
# of its bitset stack down, counted as one step, as a value tried above the
# stack is; a chunk of the mask's build takes about 29 us, the time of 30-45
# steps of the walk above the stack (2 vCPUs, numpy 2.4.6), and is charged
# once, up front
SEARCH_CHUNK = 1 << 12
# bit-cells of its suffix-sum bitsets, over all levels: a larger stack takes
# longer to build than many of the walks it would shorten
MAX_BITSET_CELLS = 1 << 26


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

    values is indexed by n, and values[0], the padding slot, is 0, so for
    K > 1 the FFT reads values itself, zero-padded to K*N points.  Index
    arithmetic is mod K*N, which is exact at grid frequencies.
    """
    L = grid_length(N, K)
    if L > N:
        z = np.fft.fft(values[: N + 1], L)
    else:  # K == 1: index N aliases to 0
        x = values[:N].copy()
        x[0] = values[N]
        z = np.fft.fft(x)
    return np.conjugate(z, out=z)


def reach_budget(layers: int, width: int) -> None:
    """TooLarge, before any allocation, for 2 * width - 1 past MAX_CONV_LEN, or
    past MAX_LAYER_CELLS for all `layers` layers."""
    if 2 * width - 1 > MAX_CONV_LEN:
        raise TooLarge(f"sumset width {width} over budget: 2 * width - 1 > {MAX_CONV_LEN}")
    if layers * width > MAX_LAYER_CELLS:
        raise TooLarge(f"{layers} layers of {width} cells over budget {MAX_LAYER_CELLS}")


def shift_or(words: int, offsets, width: int) -> int:
    """The OR of words << v over the offsets, cut to its low `width` bits: the
    sumset of the set whose bits words holds and the offsets, on [0, width)."""
    acc = 0
    for v in offsets:
        acc |= words << v
    return acc & ((1 << width) - 1)


def _words(mask: np.ndarray) -> int:
    """A boolean mask as an int: bit i is mask[i]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _mask(words: int, width: int) -> np.ndarray:
    """The low `width` bits of words as a boolean mask, _words' inverse."""
    raw = np.frombuffer(words.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=width, bitorder="little").view(bool)


def sumset_power(support, s: int, cap: int) -> np.ndarray:
    """Boolean mask over [0, cap] of the s-fold sumset of a nonnegative support.

    s - 1 rounds of shift_or over the support's values on [0, cap], under
    reach_budget(s + 1, cap + 1) and its TooLarge.  Truncating every partial
    sumset to [0, cap] is exact, since adding nonnegative elements never comes
    back down.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    width = cap + 1
    reach_budget(s + 1, width)
    sup = np.asarray(support, dtype=np.int64)
    first = np.zeros(width, dtype=bool)
    first[sup[sup < width]] = True
    offsets = np.flatnonzero(first).tolist()
    words = _words(first)
    for _ in range(s - 1):
        words = shift_or(words, offsets, width)
    return _mask(words, width)


def scan_mask(support, s: int, cap: int) -> np.ndarray:
    """sumset_power(support, s, cap), by a descent where one closes.

    A is the support on [0, cap], G its largest gap and c1 the least power
    of two at least 2G + 1.  D = (s-1)A on [0, c1) holds all of [K0, c1).  If
    the intervals [k + K0, k + c1 - 1], k in A, cover [c1, cap], every M
    there is k + d with d in D, so sA holds all of it; below c1, sA is the
    one shift_or D + A.  Otherwise (s < 2, c1 >= cap, or a gap in the cover,
    as when A is obstructed modulo some q or its members are too sparse)
    this is sumset_power over the whole range.  A support on a progression
    k0 + gZ, g > 1, never closes the cover; the exception scan hands this
    its reduced form (representations.square_progression).
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
            out = np.ones(cap + 1, dtype=bool)
            out[:c1] = _mask(shift_or(_words(dense), ks[ks < c1].tolist(), c1), c1)
            return out
    return sumset_power(ks, s, cap)


def lex_smallest_sum(supports, targets) -> list[Optional[tuple[int, ...]]]:
    """For each target, the lexicographically smallest (v_0, ..., v_{s-1}),
    v_j in supports[j], summing to it, or None.  Supports are sorted
    nonnegative integer arrays.

    An exact depth-first search in lexicographic order, with no FFT.  The
    pair sums of the last two supports are an exact boolean mask
    (np.add.outer), packed as the bottom level of a stack of suffix-sum
    bitsets: bit x of level j's says that x plus the sum of the minima of
    supports[j:] is a sum of supports[j:].  The levels above the mask are
    built upward by shift_or, on Python ints, while their bit-cells fit
    MAX_BITSET_CELLS; the top one built is level depth.  Mask and bitsets
    are built once for all the targets, up to the largest.  One walk tries
    each level's values in ascending order, only those with which the suffix
    sums of the later supports' minima and maxima can still meet the
    remainder, and descends on the first whose remainder the next level
    holds.  A level from depth down holds a remainder when its bit is set,
    so the walk never backtracks there; a level above holds it unless that
    (level, remainder) failed before, for any target.  Trailing {0} supports
    pad fewer than four, with the same sums in the same lex order: below
    three supports the mask is then built from two padded {0} supports and
    has one cell.  Each answer is cut back to its first s values.  Every
    test is integer membership, so the first tuple found is the lex-smallest
    and an exhausted search proves there is none: nothing to certify.  Past
    MAX_SEARCH_STEPS steps over all the targets (a value tried above depth,
    or SEARCH_CHUNK cells of the mask's build or of the values tried from
    depth down, charged with the tuple; the bitsets are bounded by
    MAX_BITSET_CELLS alone) or for a pair-sum mask longer than MAX_CONV_LEN,
    before it is built, it raises TooLarge.
    """
    targets = [int(t) for t in targets]
    given = len(supports)
    sups = [np.asarray(sup, dtype=np.int64) for sup in supports]
    sups += [np.zeros(1, dtype=np.int64)] * (4 - given)
    s = len(sups)  # at least 4
    if not all(len(sup) for sup in sups):
        return [None] * len(targets)
    least = sum(int(sup[0]) for sup in sups)
    slack = max(targets, default=least - 1) - least
    if slack < 0:
        return [None] * len(targets)
    # no value past its support's least by more than the slack can be used
    sups = [sup[: np.searchsorted(sup, int(sup[0]) + slack, "right")] for sup in sups]
    rest_lo, rest_hi = [0] * (s + 1), [0] * (s + 1)  # sums of the minima, maxima of sups[j:]
    for j in reversed(range(s)):
        rest_lo[j] = rest_lo[j + 1] + int(sups[j][0])
        rest_hi[j] = rest_hi[j + 1] + int(sups[j][-1])
    steps = 0

    def charge(cells: int = 0) -> None:
        nonlocal steps
        steps += 1 + cells // SEARCH_CHUNK
        if steps > MAX_SEARCH_STEPS:
            raise TooLarge(f"witness search past its cap of {MAX_SEARCH_STEPS} steps")

    # mask[i]: base + i is a pair sum of the last two supports, up to the
    # largest remainder they can be left with
    base = rest_lo[s - 2]
    length = min(rest_hi[s - 2], base + slack) - base + 1
    if length > MAX_CONV_LEN:
        raise TooLarge(f"pair-sum mask of {length} cells over budget {MAX_CONV_LEN}")
    charge(len(sups[-2]) * len(sups[-1]))  # up front: no mask that cannot be finished
    mask = np.zeros(length, dtype=bool)
    rows = max(1, SEARCH_CHUNK // len(sups[-1]))
    for i in range(0, len(sups[-2]), rows):
        sums = np.add.outer(sups[-2][i : i + rows] - base, sups[-1]).ravel()
        mask[sums[sums < length]] = True

    # bits[j], for j from s - 1 up to depth: bit x (byte x >> 3, bit x & 7)
    # set when rest_lo[j] + x is a sum of sups[j:], for x up to the least of
    # the slack and rest_hi[j] - rest_lo[j].  Level s - 2 is the packed mask
    # and level s - 1 the last support by itself, each a byte view of its
    # packed array (no copy); each level above comes from the one below by
    # one shift-OR per value of sups[j], while they fit
    bits = [b""] * (s - 2) + [np.packbits(mask, bitorder="little").data]
    del mask  # freed before the last support's cells are allocated
    last = np.zeros(int(sups[-1][-1] - sups[-1][0]) + 1, dtype=np.uint8)
    last[sups[-1] - sups[-1][0]] = 1
    bits.append(np.packbits(last, bitorder="little").data)
    del last
    depth, cells = s - 2, 0
    while depth:
        xmax = min(slack, rest_hi[depth - 1] - rest_lo[depth - 1])
        cells += len(sups[depth - 1]) * (xmax + 1)
        if cells > MAX_BITSET_CELLS:
            break
        words = int.from_bytes(bits[depth], "little")
        depth -= 1
        words = shift_or(words, (sups[depth] - int(sups[depth][0])).tolist(), xmax + 1)
        bits[depth] = words.to_bytes((xmax >> 3) + 1, "little")
    values = [sup.tolist() for sup in sups[:-1]]
    dead = set()  # (level, remainder) above depth with no completion

    def holds(j: int, r: int) -> bool:
        """Whether sups[j:] can still sum to r: level j's bit from depth
        down, and above it, that (j, r) has not failed before."""
        if j < depth:
            return (j, r) not in dead
        x = r - rest_lo[j]
        return bits[j][x >> 3] >> (x & 7) & 1 == 1

    def window(j: int, r: int) -> Iterator[int]:
        """The values v of sups[j] whose remainder r - v sups[j+1:] can still
        meet, in ascending order."""
        vals = values[j]
        lo = bisect_left(vals, r - rest_hi[j + 1])
        return iter(vals[lo : bisect_right(vals, r - rest_lo[j + 1], lo)])

    def search(target: int) -> Optional[tuple[int, ...]]:
        if not (least <= target <= rest_hi[0] and holds(0, target)):
            return None
        # the levels walked in ascending order by a stack of candidate
        # iterators; path[j] is the value taken at level j, rem[j] the
        # remainder level j must meet.  Only a level above depth can run out
        # of candidates: one at or below it holds its remainder
        path, rem, stack, tried = [], [target], [window(0, target)], 0
        while stack:
            j = len(stack) - 1
            v = next(stack[-1], None)
            if v is None:
                dead.add((j, rem.pop()))
                stack.pop()
                if path:
                    path.pop()
                continue
            if j < depth:
                charge()
            else:
                tried += 1
            r = rem[-1] - v
            if not holds(j + 1, r):
                continue
            if j + 1 == s - 1:  # the last support holds r itself
                charge(tried)  # the values tried from depth down, with the tuple
                return tuple(path) + (v, r)
            path.append(v)
            rem.append(r)
            stack.append(window(j + 1, r))
        return None

    found = [search(t) for t in targets]
    return [None if f is None else f[:given] for f in found]
