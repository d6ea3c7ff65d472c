import numpy as np
import pytest

import psqlab


@pytest.fixture(scope="session")
def primes_1k():
    return psqlab.sieve(1000)


@pytest.fixture(scope="session")
def primes_100k():
    return psqlab.sieve(100_000)


@pytest.fixture(scope="session")
def primes_1m():
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


def count_line(table):
    """The table's counts scattered onto [0, limit]: line[n] is the count of n.
    The progression must fill [start, limit] exactly, as count_representations'
    tables do."""
    line = np.zeros(table.limit + 1, dtype=table.values.dtype)
    line[table.start :: table.step] = table.values
    return line


class CyclicSumset:
    """Exact reference for the sums v_0 + ... + v_{s-1} mod q, v_j in
    supports[j], with no FFT.  layers[j] marks the sums of supports[j:] on
    Z/q: the OR of the next layer rolled (np.roll) by each element's
    residue.  smallest(target) is the lex-smallest tuple summing to target
    mod q, or None, taken greedily from those layers."""

    def __init__(self, supports, q):
        self.supports = [sorted({int(v) for v in sup}) for sup in supports]
        self.q = q
        layer = np.arange(q) == 0  # the empty suffix sums to 0
        self.layers = [layer]
        for sup in reversed(self.supports):
            rolled = np.zeros(q, dtype=bool)
            for r in {v % q for v in sup}:
                rolled |= np.roll(layer, r)
            layer = rolled
            self.layers.append(layer)
        self.layers.reverse()

    def smallest(self, target):
        target %= self.q
        if not self.layers[0][target]:
            return None
        out = []
        for sup, rest in zip(self.supports, self.layers[1:]):
            v = next(v for v in sup if rest[(target - v) % self.q])
            out.append(v)
            target = (target - v) % self.q
        return tuple(out)
