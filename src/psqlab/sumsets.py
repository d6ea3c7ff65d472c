"""Downset machinery in Z_q for squarefree q, and the 8-fold cover check.

A residue set is a length-q boolean mask.  Sumsets go through the shared
cyclic reachability engine (_gridfft.Reach): FFT convolutions thresholded at
1/2 under a rounding-residual certificate, exact for every modulus used here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._gridfft import Reach
from .arith import crt_combine, factorize
from .errors import NotSquarefree, ZTooLarge
from .wtrick import WContext

MAX_EXHAUSTIVE_Z = 22


def _squarefree_primes(q: int) -> tuple[int, ...]:
    fac = factorize(q)
    if not fac.is_squarefree():
        raise NotSquarefree(f"{q} is not squarefree")
    return fac.primes


def downset(a: int, q: int) -> np.ndarray:
    """Mask of all b in Z_q with every CRT coordinate at most the coordinate of a."""
    primes = _squarefree_primes(q)
    idx = np.arange(q, dtype=np.int64)
    keep = np.ones(q, dtype=bool)
    for p in primes:
        keep &= (idx % p) <= (a % p)
    return keep


def sumset(masks: list[np.ndarray]) -> np.ndarray:
    """Mask of {a_1 + ... + a_n mod q : a_j in masks[j]}, q = len(masks[0]); n >= 1.

    A mask repeated by identity ([A] * n) is transformed once.
    """
    if not masks:
        raise ValueError("a sumset needs at least one summand")
    supports = {id(m): np.flatnonzero(m) for m in masks}
    return Reach([supports[id(m)] for m in masks], modulus=len(masks[0])).layers[0]


def is_downset(S: np.ndarray) -> bool:
    """Closed under decreasing any single CRT coordinate by one."""
    q = len(S)
    primes = _squarefree_primes(q)
    idx = np.arange(q, dtype=np.int64)
    for p in primes:
        step = crt_combine([(1, p), (0, q // p)]) if q // p > 1 else 1
        src = np.flatnonzero(S & ((idx % p) > 0))
        if np.any(~S[(src - step) % q]):
            return False
    return True


@dataclass(frozen=True)
class CoverReport:
    """Outcome of checking that folded sums of E hit every admissible class."""

    w: int
    W: int
    folds: int
    e_members: tuple[int, ...]
    covered: bool
    missing: tuple[int, ...]
    sumset_size: int

    def to_json(self) -> dict:
        return {
            "w": self.w,
            "W": self.W,
            "folds": self.folds,
            "e_members": list(self.e_members),
            "covered": self.covered,
            "missing": list(self.missing),
            "sumset_size": self.sumset_size,
        }


def verify_cover(ctx: WContext, E: Iterable[int], folds: int = 8) -> CoverReport:
    """Check the folds-fold sumset of E mod W covers every class = folds mod 24.

    E must be a subset of Z_W.  folds other than 8 are exploratory.
    """
    members = tuple(sorted({int(m) % ctx.W for m in E}))
    if not set(members) <= set(ctx.Z_W):
        raise ValueError("E contains residues outside Z(W)")
    required = range(folds % 24, ctx.W, 24)

    if not members:
        return CoverReport(ctx.w, ctx.W, folds, (), False, tuple(required), 0)

    mask = np.zeros(ctx.W, dtype=bool)
    mask[list(members)] = True
    total = sumset([mask] * folds)
    missing = tuple(r for r in required if not total[r])
    return CoverReport(
        w=ctx.w,
        W=ctx.W,
        folds=folds,
        e_members=members,
        covered=not missing,
        missing=missing,
        sumset_size=int(np.count_nonzero(total)),
    )


@dataclass(frozen=True)
class LemmaReport:
    w: int
    W: int
    z_size: int
    subsets_checked: int
    failures: tuple[tuple[int, ...], ...]
    folds: int = 8

    def to_json(self) -> dict:
        return {
            "w": self.w,
            "W": self.W,
            "z_size": self.z_size,
            "subsets_checked": self.subsets_checked,
            "failures": [list(f) for f in self.failures],
        }


def exhaustive_lemma_check(ctx: WContext, folds: int = 8) -> LemmaReport:
    """Verify the cover for every E with |E| > |Z_W| / 2, exhaustively."""
    z = ctx.Z_W
    if len(z) > MAX_EXHAUSTIVE_Z:
        raise ZTooLarge(f"|Z(W)| = {len(z)} too large for 2^|Z| enumeration")
    checked = 0
    failures = []
    for size in range(len(z) // 2 + 1, len(z) + 1):
        for combo in itertools.combinations(z, size):
            checked += 1
            report = verify_cover(ctx, combo, folds=folds)
            if not report.covered:
                failures.append(combo)
    return LemmaReport(
        w=ctx.w,
        W=ctx.W,
        z_size=len(z),
        subsets_checked=checked,
        failures=tuple(failures),
        folds=folds,
    )
