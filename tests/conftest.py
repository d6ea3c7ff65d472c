import math

import numpy as np
import pytest

import psqlab


@pytest.fixture(scope="session")
def table_1k():
    return psqlab.sieve(1000)


@pytest.fixture(scope="session")
def table_100k():
    return psqlab.sieve(100_000)


@pytest.fixture(scope="session")
def table_1m():
    return psqlab.sieve(1_000_000)


@pytest.fixture(scope="session")
def ctx4():
    return psqlab.build_context(4)


@pytest.fixture(scope="session")
def ctx6():
    return psqlab.build_context(6)


@pytest.fixture(scope="session")
def ctx8():
    return psqlab.build_context(8)


def table_for(ctx, N):
    """Sieve just far enough to build length-N sequences for this context."""
    return psqlab.sieve(math.isqrt(ctx.W * N + max(ctx.Z_W)) + 1)


@pytest.fixture(scope="session")
def all_spec():
    return psqlab.PrimeSubsetSpec.all_primes()


def as_sequence(arr):
    """The sequence n -> arr[n - 1] on [1, len(arr)], with the padding slot prepended."""
    arr = np.asarray(arr, dtype=float)
    return psqlab.WeightedSequence(N=len(arr), values=np.concatenate(([0.0], arr)))


def gauss_row_gcd(k):
    """gauss_sum_row as it was with the np.gcd unit test, before unit_mask."""
    if k == 1:
        return np.array([1 + 0j])
    ls = np.arange(1, k + 1, dtype=np.int64)
    ls = ls[np.gcd(ls, k) == 1]
    counts = np.bincount((ls * ls) % k, minlength=k).astype(float)
    return np.conj(np.fft.fft(counts))
