"""The 8-fold residue cover check over Z(W): the integer 8-fold sumset of
k = (b - 1)/24 from the shared engine (_gridfft.sumset_power, exact
shift-ORs on bitsets), folded mod W/24.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from ._gridfft import sumset_power
from .errors import TooLarge
from .wtrick import WContext

MAX_EXHAUSTIVE_Z = 22


def verify_cover(ctx: WContext, E: Iterable[int]) -> dict:
    """Check the 8-fold sumset of E mod W covers every class = 8 mod 24.

    E must be a subset of Z_W, whose members are 1 (mod 24): an 8-fold sum
    mod W is 8 + 24*(sum of k mod m), k = (b - 1)/24, m = W/24, with the
    integer sum of the k in [0, 8(m - 1)].
    """
    members = sorted({int(b) % ctx.W for b in E})
    if not set(members) <= set(ctx.Z_W):
        raise ValueError("E contains residues outside Z(W)")
    m = ctx.W // 24
    line = np.zeros(8 * m, dtype=bool)
    line[: 8 * m - 7] = sumset_power((np.array(members, dtype=np.int64) - 1) // 24, 8, 8 * (m - 1))
    hit = line.reshape(8, m).any(axis=0)
    missing = [8 + 24 * k for k in np.flatnonzero(~hit).tolist()]
    return {
        "w": ctx.w,
        "W": ctx.W,
        "e_members": members,
        "covered": not missing,
        "missing": missing,
        "sumset_size": int(np.count_nonzero(hit)),
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
