"""Residue sumsets in Z_q and the 8-fold cover check.

A residue set is a length-q boolean mask.  Sumsets go through the shared
cyclic reachability engine (_gridfft.Reach): FFT convolutions thresholded at
1/2 under a rounding-residual certificate, exact for every modulus used here.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from ._gridfft import Reach
from .errors import TooLarge
from .wtrick import WContext

MAX_EXHAUSTIVE_Z = 22


def sumset(masks: list[np.ndarray]) -> np.ndarray:
    """Mask of {a_1 + ... + a_n mod q : a_j in masks[j]}, q = len(masks[0]); n >= 1.

    A mask repeated by identity ([A] * n) is transformed once.
    """
    if not masks:
        raise ValueError("a sumset needs at least one summand")
    supports = {id(m): np.flatnonzero(m) for m in masks}
    return Reach([supports[id(m)] for m in masks], modulus=len(masks[0])).layers[0]


def verify_cover(ctx: WContext, E: Iterable[int]) -> dict:
    """Check the 8-fold sumset of E mod W covers every class = 8 mod 24.

    E must be a subset of Z_W.
    """
    members = sorted({int(m) % ctx.W for m in E})
    if not set(members) <= set(ctx.Z_W):
        raise ValueError("E contains residues outside Z(W)")
    total = np.zeros(ctx.W, dtype=bool)
    if members:
        mask = np.zeros(ctx.W, dtype=bool)
        mask[members] = True
        total = sumset([mask] * 8)
    missing = [r for r in range(8, ctx.W, 24) if not total[r]]
    return {
        "w": ctx.w,
        "W": ctx.W,
        "e_members": members,
        "covered": not missing,
        "missing": missing,
        "sumset_size": int(np.count_nonzero(total)),
    }


def exhaustive_lemma_check(ctx: WContext) -> dict:
    """Verify the cover for every E with |E| > |Z_W| / 2, exhaustively."""
    z = ctx.Z_W
    if len(z) > MAX_EXHAUSTIVE_Z:
        raise TooLarge(f"|Z(W)| = {len(z)} too large for 2^|Z| enumeration")
    checked = 0
    failures = []
    for size in range(len(z) // 2 + 1, len(z) + 1):
        for combo in itertools.combinations(z, size):
            checked += 1
            if not verify_cover(ctx, combo)["covered"]:
                failures.append(list(combo))
    return {
        "w": ctx.w,
        "W": ctx.W,
        "z_size": len(z),
        "subsets_checked": checked,
        "failures": failures,
    }
