"""Downset machinery in Z_q for squarefree q, and the 8-fold cover check.

Residue sets are stored as bitmasks in a single Python int, so sumsets are
shift-or convolutions: exact, and fast for every modulus used here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .arith import crt_combine, factorize
from .errors import ModulusMismatch, NotSquarefree, ZTooLarge
from .wtrick import WContext

MAX_EXHAUSTIVE_Z = 22


def _squarefree_primes(q: int) -> tuple[int, ...]:
    fac = factorize(q)
    if not fac.is_squarefree():
        raise NotSquarefree(f"{q} is not squarefree")
    return fac.primes


@dataclass(frozen=True)
class ResidueSet:
    """Subset of Z_q as a q-bit mask (bit r set iff r is a member)."""

    q: int
    bits: int

    @classmethod
    def from_members(cls, q: int, members: Iterable[int]) -> "ResidueSet":
        bits = 0
        for m in members:
            bits |= 1 << (m % q)
        return cls(q=q, bits=bits)

    @classmethod
    def from_bool_array(cls, arr: np.ndarray) -> "ResidueSet":
        packed = np.packbits(arr.astype(np.uint8), bitorder="little")
        return cls(q=len(arr), bits=int.from_bytes(packed.tobytes(), "little"))

    def members(self) -> list[int]:
        return [r for r in range(self.q) if (self.bits >> r) & 1]

    def contains(self, r: int) -> bool:
        return bool((self.bits >> (r % self.q)) & 1)

    def size(self) -> int:
        return self.bits.bit_count()


def downset(a: int, q: int) -> ResidueSet:
    """All b in Z_q with every CRT coordinate at most the coordinate of a."""
    primes = _squarefree_primes(q)
    idx = np.arange(q, dtype=np.int64)
    keep = np.ones(q, dtype=bool)
    for p in primes:
        keep &= (idx % p) <= (a % p)
    return ResidueSet.from_bool_array(keep)


def _rotate(bits: int, shift: int, q: int) -> int:
    shift %= q
    if shift == 0:
        return bits
    full = (1 << q) - 1
    return ((bits << shift) | (bits >> (q - shift))) & full


def sumset(A: ResidueSet, B: ResidueSet) -> ResidueSet:
    """{a + b mod q : a in A, b in B}."""
    if A.q != B.q:
        raise ModulusMismatch(f"moduli differ: {A.q} vs {B.q}")
    small, large = (A, B) if A.size() <= B.size() else (B, A)
    out = 0
    for a in small.members():
        out |= _rotate(large.bits, a, A.q)
    return ResidueSet(q=A.q, bits=out)


def n_fold_sumset(A: ResidueSet, n: int) -> ResidueSet:
    """n-fold A + ... + A by binary doubling; n >= 1."""
    if n < 1:
        raise ValueError(f"fold count must be >= 1, got {n}")
    acc = None
    base = A
    while n:
        if n & 1:
            acc = base if acc is None else sumset(acc, base)
        n >>= 1
        if n:
            base = sumset(base, base)
    return acc


def is_downset(S: ResidueSet) -> bool:
    """Closed under decreasing any single CRT coordinate by one."""
    q = S.q
    primes = _squarefree_primes(q)
    arr = np.zeros(q, dtype=bool)
    arr[S.members()] = True
    idx = np.arange(q, dtype=np.int64)
    for p in primes:
        step = crt_combine([(1, p), (0, q // p)]) if q // p > 1 else 1
        movable = arr & ((idx % p) > 0)
        src = np.flatnonzero(movable)
        if np.any(~arr[(src - step) % q]):
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


def verify_cover(
    ctx: WContext, E: Union[ResidueSet, Iterable[int]], folds: int = 8
) -> CoverReport:
    """Check the folds-fold sumset of E mod W covers every class = folds mod 24.

    E must be a subset of Z_W.  folds other than 8 are exploratory.
    """
    if not isinstance(E, ResidueSet):
        E = ResidueSet.from_members(ctx.W, E)
    if E.q != ctx.W:
        raise ModulusMismatch(f"E lives mod {E.q}, context uses {ctx.W}")
    zset = set(ctx.Z_W)
    members = tuple(E.members())
    if any(m not in zset for m in members):
        raise ValueError("E contains residues outside Z(W)")

    if not members:
        required = tuple(range(folds % 24, ctx.W, 24))
        return CoverReport(ctx.w, ctx.W, folds, (), False, required, 0)

    total = n_fold_sumset(E, folds)
    missing = tuple(r for r in range(folds % 24, ctx.W, 24) if not total.contains(r))
    return CoverReport(
        w=ctx.w,
        W=ctx.W,
        folds=folds,
        e_members=members,
        covered=not missing,
        missing=missing,
        sumset_size=total.size(),
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
