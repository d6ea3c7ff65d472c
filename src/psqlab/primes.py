"""Prime generation and declarative prime-subset construction.

A subset of the primes is described by a PrimeSubsetSpec and realized
against an array of sieved primes.  Seeded subsampling is reproducible and
order-independent: each prime is kept or dropped by hashing (seed, p)
through the splitmix64 finalizer, never by consuming a shared stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import TooLarge

MAX_SIEVE_LIMIT = 1 << 31
INT64_BOUND = 1 << 63  # spec integers, which subset_members converts to int64, lie below it in size
DENSITY_WINDOW = 1 << 21  # integers per window of empirical_density's count: 1 MiB of odd marks
DENSITY_SLICE = 1 << 15  # a window's primes per subset_members call: its temporaries stay small

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


def sieve(limit: int, lo: int = 0) -> np.ndarray:
    """The primes in [lo, limit], ascending, as a read-only int64 array.

    A window sieve over the odd numbers only: odd n >= 3 sits at index
    (n - o0) // 2, o0 the least of them >= lo, and each odd prime up to
    isqrt(limit), from sieve(isqrt(limit)), strikes its odd multiples from
    max(p^2, lo) with step p in that index.  2 is added when it lies in the
    window.  Empty when limit < max(lo, 2).
    """
    if limit < 0 or lo < 0:
        raise ValueError(f"sieve bounds must be >= 0, got [{lo}, {limit}]")
    if limit > MAX_SIEVE_LIMIT:
        raise TooLarge(f"sieve limit {limit} exceeds bound {MAX_SIEVE_LIMIT}")
    o0 = max(lo | 1, 3)
    mark = np.ones(max((limit - o0) // 2 + 1, 0), dtype=bool)
    if len(mark):
        for p in sieve(math.isqrt(limit))[1:].tolist():
            start = max(p * p, -(-lo // p) * p)  # p's first multiple in the window, from p^2
            start += p * (start % 2 == 0)  # and the first odd one
            mark[(start - o0) // 2 :: p] = False
    primes = np.flatnonzero(mark).astype(np.int64, copy=False)
    primes *= 2  # in place, so a window holds one prime array
    primes += o0
    if lo <= 2 <= limit:
        primes = np.concatenate(([2], primes))
    primes.flags.writeable = False
    return primes


VARIANT_ALL = "all"
VARIANT_RESIDUE_CLASSES = "residue_classes"
VARIANT_BERNOULLI = "bernoulli_sample"
VARIANT_EXPLICIT = "explicit_list"


@dataclass(frozen=True)
class PrimeSubsetSpec:
    """Declarative description of a prime subset.

    Variants: the full prime set, primes restricted to residue classes mod q,
    a Bernoulli(rho) subsample keyed by (seed, p), or an explicit list.
    Primes below min_prime are always excluded.  Build one through the four
    constructors, which validate their arguments: every inline and JSON spec
    enters through them.  The modulus, and so every class reduced mod it, and
    each explicit prime must fit in int64, as subset_members converts them.
    """

    variant: str = VARIANT_ALL
    modulus: Optional[int] = None
    classes: tuple[int, ...] = ()
    rho: Optional[float] = None
    seed: Optional[int] = None
    primes: tuple[int, ...] = ()
    min_prime: int = 5

    # -- constructors -------------------------------------------------------

    @classmethod
    def all_primes(cls, min_prime: int = 5) -> "PrimeSubsetSpec":
        return cls(variant=VARIANT_ALL, min_prime=min_prime)

    @classmethod
    def residue_classes(cls, modulus: int, classes, min_prime: int = 5) -> "PrimeSubsetSpec":
        if modulus < 2:
            raise ValueError("residue_classes requires a modulus >= 2")
        if modulus >= INT64_BOUND:  # then every class, reduced mod modulus, is an int64 too
            raise ValueError(f"residue_classes modulus {modulus} is not below 2^63")
        classes = tuple(sorted(set(int(c) % modulus for c in classes)))
        if not classes:
            raise ValueError("residue_classes requires a nonempty allowed set")
        for c in classes:
            if math.gcd(c, modulus) != 1:
                raise ValueError(f"class {c} not coprime to modulus {modulus}")
        return cls(variant=VARIANT_RESIDUE_CLASSES, modulus=modulus, classes=classes, min_prime=min_prime)

    @classmethod
    def bernoulli(cls, rho: float, seed: int, min_prime: int = 5) -> "PrimeSubsetSpec":
        rho = float(rho)
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {rho}")
        return cls(variant=VARIANT_BERNOULLI, rho=rho, seed=int(seed), min_prime=min_prime)

    @classmethod
    def explicit(cls, primes, min_prime: int = 5) -> "PrimeSubsetSpec":
        primes = tuple(sorted(set(int(p) for p in primes)))
        for p in primes:
            if not -INT64_BOUND <= p < INT64_BOUND:
                raise ValueError(f"explicit_list primes entry {p} is outside the int64 range")
        return cls(variant=VARIANT_EXPLICIT, primes=primes, min_prime=min_prime)

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

        def integer(key, value):  # a JSON integer: no bool, float or str is coerced
            if type(value) is not int:
                raise TypeError(f"{key} must be a JSON integer, got {type(value).__name__}")
            return value

        try:  # a missing, null, mistyped or infinite field is malformed input
            min_prime = integer("min_prime", obj.get("min_prime", 5))
            if variant == VARIANT_ALL:
                return cls.all_primes(min_prime)
            if variant == VARIANT_RESIDUE_CLASSES:
                modulus = integer("modulus", obj["modulus"])
                classes = [integer("classes entry", c) for c in obj["classes"]]
                return cls.residue_classes(modulus, classes, min_prime)
            if variant == VARIANT_BERNOULLI:
                rho = obj["rho"]
                if type(rho) not in (int, float):
                    raise TypeError(f"rho must be a JSON number, got {type(rho).__name__}")
                return cls.bernoulli(rho, integer("seed", obj["seed"]), min_prime)
            if variant == VARIANT_EXPLICIT:
                primes = [integer("primes entry", p) for p in obj.get("primes", ())]
                return cls.explicit(primes, min_prime)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed {variant!r} subset spec: {exc!r}") from None
        raise ValueError(f"unknown variant {variant!r}")


def subset_members(spec: PrimeSubsetSpec, primes: np.ndarray) -> np.ndarray:
    """Ordered members of the subset among the given ascending primes (>= min_prime).

    Every variant keeps or drops each prime on its own, so the members of a
    slice of the primes are that slice of the members."""
    base = primes[primes >= spec.min_prime]
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
    # explicit_list, whose primes explicit() sorts: a lookup, no sort; a base
    # prime past the last wanted one reads the -1, which no prime equals
    wanted = np.append(np.asarray(spec.primes, dtype=np.int64), -1)
    return base[wanted[np.searchsorted(wanted[:-1], base)] == base]


def empirical_density(spec: PrimeSubsetSpec, hi: int) -> float:
    """|P intersect [hi]| / |primes intersect [hi]|, both above min_prime.

    Both counts are integers summed over windows of DENSITY_WINDOW integers,
    so no more than one window's primes are held at a time, and the members
    are counted DENSITY_SLICE primes at a time (the members of a slice are
    that slice of the members), so neither are a window's.  A spec that
    keeps every prime has density 1.0 wherever it is defined, and Bertrand's
    postulate puts a prime in [m, 2m - 2] for m = max(min_prime, 2), so
    from hi = 2m - 2 on it is 1.0 without a sieve."""
    keeps_all = spec.variant == VARIANT_ALL or (spec.variant == VARIANT_BERNOULLI and spec.rho >= 1.0)
    if keeps_all and hi >= 2 * max(spec.min_prime, 2) - 2:
        return 1.0
    members = reference = 0
    for lo in range(0, hi + 1, DENSITY_WINDOW):
        primes = sieve(min(lo + DENSITY_WINDOW - 1, hi), lo)
        reference += int(np.count_nonzero(primes >= spec.min_prime))
        for k in range(0, len(primes), DENSITY_SLICE):
            members += len(subset_members(spec, primes[k : k + DENSITY_SLICE]))
    if reference == 0:
        raise ValueError(f"no primes >= {spec.min_prime} below {hi}; density undefined")
    return members / reference
