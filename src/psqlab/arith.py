"""Exact integer and modular arithmetic primitives.

Everything here is pure and reentrant; all intermediates are Python ints,
so W*N + b and p**2 comparisons stay exact at any desk scale.  unit_mask is
the one builder of the units mod m, for W as for the Gauss and saq moduli.
"""

from __future__ import annotations

import numpy as np

from .primes import sieve

# Trial-division table: every n whose part free of primes below 2**16 is
# below 2**32 factors completely against it.
_TABLE_LIMIT = 1 << 16
_SMALL_PRIMES = sieve(_TABLE_LIMIT).tolist()


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 by trial division against the primes below 2^16: its
    (prime, exponent) pairs, primes increasing, and () at n = 1.

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
    return tuple(pairs)


def unit_mask(k: int, pairs: tuple[tuple[int, int], ...] | None = None) -> np.ndarray:
    """Boolean mask over r = 0 .. k-1 of the units mod k: True exactly where
    gcd(r, k) = 1, so [True] at k = 1.  Each prime factor p of k, from pairs
    (a caller's factorize(k)) or else factorize(k), clears the multiples of
    p; no gcd is taken."""
    mask = np.ones(k, dtype=bool)
    for p, _ in factorize(k) if pairs is None else pairs:
        mask[::p] = False
    return mask


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m >= 2; raises ValueError when gcd(a, m) != 1."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise ValueError(f"{a} is not invertible mod {m}") from exc


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisor_count(n: int) -> int:
    """Number of positive divisors of n >= 1."""
    tau = 1
    for _, e in factorize(n):
        tau *= e + 1
    return tau
