"""Exact integer and modular arithmetic primitives.

Everything here is pure and reentrant; all intermediates are Python ints,
so W*N + b and p**2 comparisons stay exact at any desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonInvertible

# Trial-division table: every n whose part free of primes below 2**16 is
# below 2**32 factors completely against it.
_TABLE_LIMIT = 1 << 16


def _build_small_primes(limit: int) -> list[int]:
    mark = bytearray([1]) * (limit + 1)
    mark[0] = mark[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = bytes(len(mark[p * p :: p]))
    return [i for i in range(limit + 1) if mark[i]]


_SMALL_PRIMES = _build_small_primes(_TABLE_LIMIT)


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization as (prime, exponent) pairs, primes increasing."""

    prime_powers: tuple[tuple[int, int], ...]

    def expand(self) -> int:
        n = 1
        for p, e in self.prime_powers:
            n *= p**e
        return n

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.prime_powers)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.prime_powers)


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division against the primes below 2^16.

    ValueError when the cofactor left after them is 2^32 or more, since it
    may then be composite.  No caller reaches that.  The gauss and saq
    moduli, W and the pair gaps are all below 2^32.  The one larger
    argument, q * W in major_arc_model, loses W's primes (all below w) to
    the table and leaves at most q <= 2 * MAX_GAUSS_MODULUS.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    pairs: list[tuple[int, int]] = []
    rem = n
    for p in _SMALL_PRIMES:
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            pairs.append((p, e))
    if rem >= _TABLE_LIMIT * _TABLE_LIMIT:
        raise ValueError(f"{n} leaves a cofactor {rem} >= 2^32 with no prime factor below 2^16")
    if rem > 1:
        pairs.append((rem, 1))
    return Factorization(tuple(pairs))


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m >= 2; raises NonInvertible when gcd(a, m) != 1."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise NonInvertible(f"{a} is not invertible mod {m}") from exc


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    phi = 1
    for p, e in factorize(n).prime_powers:
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisor_count(n: int) -> int:
    """Number of positive divisors of n >= 1."""
    tau = 1
    for _, e in factorize(n).prime_powers:
        tau *= e + 1
    return tau
