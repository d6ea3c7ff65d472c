"""Residue sumsets in Z_q and the 8-fold cover check.

The 8-fold sumset of a residue set mod W is the top layer of the shared
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


def verify_cover(ctx: WContext, E: Iterable[int]) -> dict:
    """Check the 8-fold sumset of E mod W covers every class = 8 mod 24.

    E must be a subset of Z_W.
    """
    members = sorted({int(m) % ctx.W for m in E})
    if not set(members) <= set(ctx.Z_W):
        raise ValueError("E contains residues outside Z(W)")
    # eight references to one array, which Reach transforms once
    total = Reach([np.array(members, dtype=np.int64)] * 8, modulus=ctx.W).layers[0]
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
