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
DENSITY_SLICE = 1 << 15  # a window's marks turned into primes at a time: its temporaries stay small

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


def _odd_marks(limit: int, lo: int) -> tuple[np.ndarray, int]:
    """Marks of the window [lo, limit]'s odd n >= 3, True where n is prime, n
    at index (n - o0) // 2, and o0, the least of them.  Each odd prime up to
    isqrt(limit) strikes its odd multiples from max(p^2, lo), step p there."""
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
    return mark, o0


def _primes(mark: np.ndarray, o0: int, two: bool) -> np.ndarray:
    """The primes of odd marks from o0, as int64, after a 2 if two."""
    primes = np.flatnonzero(mark).astype(np.int64, copy=False)
    primes *= 2  # in place, so the marks' indices are the one prime array
    primes += o0
    return np.concatenate(([2], primes)) if two else primes


def sieve(limit: int, lo: int = 0) -> np.ndarray:
    """The primes in [lo, limit], ascending, as a read-only int64 array: the
    window's odd marks, and 2 where it lies in the window."""
    primes = _primes(*_odd_marks(limit, lo), lo <= 2 <= limit)
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


def _keep(spec: PrimeSubsetSpec, base: np.ndarray) -> np.ndarray:
    """Which of base, primes >= min_prime, are members, each on its own."""
    if spec.variant == VARIANT_BERNOULLI and spec.rho < 1.0:
        draws = _splitmix64_array(np.uint64(splitmix64(spec.seed)) ^ base.astype(np.uint64))
        return draws < np.uint64(int(spec.rho * float(1 << 64)))
    if spec.variant not in (VARIANT_RESIDUE_CLASSES, VARIANT_EXPLICIT):
        return np.ones(len(base), dtype=bool)
    # a lookup in the classes or primes, which their constructors sort; an x
    # past the last wanted one reads the -1, which no x >= 0 equals
    x = base % spec.modulus if spec.variant == VARIANT_RESIDUE_CLASSES else base
    wanted = np.append(np.asarray(spec.classes or spec.primes, dtype=np.int64), -1)
    return wanted[np.searchsorted(wanted[:-1], x)] == x


def subset_members(spec: PrimeSubsetSpec, primes: np.ndarray) -> np.ndarray:
    """Ordered members of the subset among the given ascending primes (>= min_prime).

    Every variant keeps or drops each prime on its own, so the members of a
    slice of the primes are that slice of the members."""
    base = primes[primes >= spec.min_prime]
    return base[_keep(spec, base)]


def empirical_density(spec: PrimeSubsetSpec, hi: int) -> float:
    """|P intersect [hi]| / |primes intersect [hi]|, both above min_prime.

    Both counts are integers summed over windows of DENSITY_WINDOW integers,
    so no more than one window's marks are held at a time.  DENSITY_SLICE
    of them at a time become primes; the reference counts those from
    min_prime on, and the members are count_nonzero of their keep mask, so
    no table of primes is built and nothing is compressed.  A spec that keeps
    every prime has density 1.0 wherever it is defined, and Bertrand's
    postulate puts a prime in [m, 2m - 2] for m = max(min_prime, 2), so from
    hi = 2m - 2 on it is 1.0 without a sieve."""
    keeps_all = spec.variant == VARIANT_ALL or (spec.variant == VARIANT_BERNOULLI and spec.rho >= 1.0)
    if keeps_all and hi >= 2 * max(spec.min_prime, 2) - 2:
        return 1.0
    members = reference = 0
    for lo in range(0, hi + 1, DENSITY_WINDOW):
        mark, o0 = _odd_marks(min(lo + DENSITY_WINDOW - 1, hi), lo)
        for k in range(0, len(mark) or 1, DENSITY_SLICE):  # a window of no odd number may hold 2
            primes = _primes(mark[k : k + DENSITY_SLICE], o0 + 2 * k, lo == k == 0 and hi >= 2)
            base = primes[np.count_nonzero(primes < spec.min_prime) :]  # ascending: a view
            reference += len(base)
            members += int(np.count_nonzero(_keep(spec, base)))
        del mark  # before the next window's marks are made
    if reference == 0:
        raise ValueError(f"no primes >= {spec.min_prime} below {hi}; density undefined")
    return members / reference
