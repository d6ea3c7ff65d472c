"""Prime generation and declarative prime-subset construction.

A subset of the primes is described by a PrimeSubsetSpec and realized
against a sieved PrimeTable.  Seeded subsampling is reproducible and
order-independent: each prime is kept or dropped by hashing (seed, p)
through the splitmix64 finalizer, never by consuming a shared stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyReference, TooLarge

MAX_SIEVE_LIMIT = 1 << 31

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step: advance by the golden-ratio increment and mix."""
    z = (x + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_C1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_C2) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    z = x + np.uint64(_SPLITMIX_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_C1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_C2)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class PrimeTable:
    """Exact primes up to `limit`, as a sorted list."""

    limit: int
    primes: np.ndarray  # int64, strictly increasing

    def is_prime(self, n: int) -> bool:
        # the largest prime up to n is n itself exactly when n is prime
        return 0 <= n <= self.limit and n in self.primes_upto(n)[-1:]

    def primes_upto(self, bound: int) -> np.ndarray:
        hi = np.searchsorted(self.primes, bound, side="right")
        return self.primes[:hi]


def sieve(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes over [0, limit], limit >= 2."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise TooLarge(f"sieve limit {limit} exceeds bound {MAX_SIEVE_LIMIT}")
    mark = np.ones(limit + 1, dtype=bool)
    mark[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = False
    return PrimeTable(limit=limit, primes=np.flatnonzero(mark).astype(np.int64, copy=False))


VARIANT_ALL = "all"
VARIANT_RESIDUE_CLASSES = "residue_classes"
VARIANT_BERNOULLI = "bernoulli_sample"
VARIANT_EXPLICIT = "explicit_list"


@dataclass(frozen=True)
class PrimeSubsetSpec:
    """Declarative description of a prime subset.

    Variants: the full prime set, primes restricted to residue classes mod q,
    a Bernoulli(rho) subsample keyed by (seed, p), or an explicit list.
    Primes below min_prime are always excluded.
    """

    variant: str = VARIANT_ALL
    modulus: Optional[int] = None
    classes: tuple[int, ...] = ()
    rho: Optional[float] = None
    seed: Optional[int] = None
    primes: tuple[int, ...] = ()
    min_prime: int = 5

    def __post_init__(self):
        if self.variant == VARIANT_RESIDUE_CLASSES:
            if not self.modulus or self.modulus < 2:
                raise ValueError("residue_classes requires a modulus >= 2")
            if not self.classes:
                raise ValueError("residue_classes requires a nonempty allowed set")
            for c in self.classes:
                if math.gcd(c, self.modulus) != 1:
                    raise ValueError(f"class {c} not coprime to modulus {self.modulus}")
        elif self.variant == VARIANT_BERNOULLI:
            if self.rho is None or not (0.0 < self.rho <= 1.0):
                raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
            if self.seed is None:
                raise ValueError("bernoulli_sample requires a seed")
        elif self.variant == VARIANT_EXPLICIT:
            pass
        elif self.variant != VARIANT_ALL:
            raise ValueError(f"unknown variant {self.variant!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def all_primes(cls, min_prime: int = 5) -> "PrimeSubsetSpec":
        return cls(variant=VARIANT_ALL, min_prime=min_prime)

    @classmethod
    def residue_classes(cls, modulus: int, classes, min_prime: int = 5) -> "PrimeSubsetSpec":
        if modulus < 2:  # checked here too: the classes are reduced mod it below
            raise ValueError("residue_classes requires a modulus >= 2")
        return cls(
            variant=VARIANT_RESIDUE_CLASSES,
            modulus=modulus,
            classes=tuple(sorted(set(int(c) % modulus for c in classes))),
            min_prime=min_prime,
        )

    @classmethod
    def bernoulli(cls, rho: float, seed: int, min_prime: int = 5) -> "PrimeSubsetSpec":
        return cls(variant=VARIANT_BERNOULLI, rho=float(rho), seed=int(seed), min_prime=min_prime)

    @classmethod
    def explicit(cls, primes, min_prime: int = 5) -> "PrimeSubsetSpec":
        return cls(
            variant=VARIANT_EXPLICIT,
            primes=tuple(sorted(set(int(p) for p in primes))),
            min_prime=min_prime,
        )

    # -- JSON wire format ---------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {"variant": self.variant, "min_prime": self.min_prime}
        if self.variant == VARIANT_RESIDUE_CLASSES:
            out["modulus"] = self.modulus
            out["classes"] = list(self.classes)
        elif self.variant == VARIANT_BERNOULLI:
            out["rho"] = self.rho
            out["seed"] = self.seed
        elif self.variant == VARIANT_EXPLICIT:
            out["primes"] = list(self.primes)
        return out

    @classmethod
    def from_json(cls, obj) -> "PrimeSubsetSpec":
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except RecursionError:
                raise ValueError("subset spec JSON nested too deeply") from None
        variant = obj.get("variant", VARIANT_ALL)
        try:  # a missing, null, mistyped or infinite field is malformed input
            min_prime = int(obj.get("min_prime", 5))
            if variant == VARIANT_ALL:
                return cls.all_primes(min_prime)
            if variant == VARIANT_RESIDUE_CLASSES:
                return cls.residue_classes(int(obj["modulus"]), obj["classes"], min_prime)
            if variant == VARIANT_BERNOULLI:
                return cls.bernoulli(float(obj["rho"]), int(obj["seed"]), min_prime)
            if variant == VARIANT_EXPLICIT:
                return cls.explicit(obj.get("primes", ()), min_prime)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed {variant!r} subset spec: {exc!r}") from None
        raise ValueError(f"unknown variant {variant!r}")


def subset_members(spec: PrimeSubsetSpec, table: PrimeTable) -> np.ndarray:
    """Ordered members of the subset among the table's primes (>= min_prime)."""
    base = table.primes[table.primes >= spec.min_prime]
    if spec.variant == VARIANT_ALL:  # base is already a fresh array
        return base
    if spec.variant == VARIANT_RESIDUE_CLASSES:
        keep = np.isin(base % spec.modulus, np.asarray(spec.classes, dtype=np.int64))
        return base[keep]
    if spec.variant == VARIANT_BERNOULLI:
        if spec.rho >= 1.0:
            return base
        key = splitmix64(spec.seed)
        draws = _splitmix64_array(np.uint64(key) ^ base.astype(np.uint64))
        threshold = np.uint64(int(spec.rho * float(1 << 64)))
        return base[draws < threshold]
    if spec.variant == VARIANT_EXPLICIT:
        wanted = np.asarray(spec.primes, dtype=np.int64)
        return np.intersect1d(base, wanted)
    raise ValueError(f"unknown variant {spec.variant!r}")


def empirical_density(spec: PrimeSubsetSpec, table: PrimeTable) -> float:
    """|P intersect [limit]| / |primes intersect [limit]|, both above min_prime."""
    reference = int(np.count_nonzero(table.primes >= spec.min_prime))
    if reference == 0:
        raise EmptyReference(
            f"no primes >= {spec.min_prime} below {table.limit}; density undefined"
        )
    return len(subset_members(spec, table)) / reference
