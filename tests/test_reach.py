import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psqlab._gridfft as gridfft
from psqlab._gridfft import (
    MAX_CONV_LEN,
    MAX_LAYER_CELLS,
    Reach,
    lex_smallest_sum,
    reach_budget,
    scan_mask,
    sumset_power,
)
from psqlab.errors import TooLarge, VerificationError
from psqlab.primes import PrimeSubsetSpec, sieve, subset_members

supports_st = st.lists(
    st.lists(st.integers(0, 12), max_size=5).map(lambda v: np.array(sorted(set(v)), dtype=np.int64)),
    min_size=1,
    max_size=4,
)


def brute_smallest(supports, target):
    found = [t for t in itertools.product(*[s.tolist() for s in supports]) if sum(t) == target]
    return min(found) if found else None


class TestLexSmallestSumOracle:
    @settings(max_examples=200, deadline=None)
    @given(supports_st, st.integers(-3, 50))
    def test_matches_product_minimum(self, supports, target):
        assert lex_smallest_sum(supports, target) == brute_smallest(supports, target)


class TestReach:
    @settings(max_examples=100, deadline=None)
    @given(supports_st, st.integers(1, 9), st.integers(-20, 40))
    def test_cyclic_matches_product_minimum(self, supports, modulus, target):
        found = [
            t
            for t in itertools.product(*[s.tolist() for s in supports])
            if (sum(t) - target) % modulus == 0
        ]
        reach = Reach(supports, modulus=modulus)
        assert reach.smallest(target) == (min(found) if found else None)
        assert bool(reach.layers[0][target % modulus]) == bool(found)

    def test_reachable_mask_outside_range(self):
        reach = Reach([np.array([1, 2])], cap=3)
        assert list(reach.layers[0]) == [False, True, True, False]
        assert [reach.smallest(t) for t in (-1, 0, 1, 2, 3, 4)] == [None, None, (1,), (2,), None, None]

    def test_budget_checked_before_allocation(self):
        assert reach_budget(9, MAX_CONV_LEN // 2) == MAX_CONV_LEN
        with pytest.raises(TooLarge):
            reach_budget(2, MAX_CONV_LEN // 2 + 1)
        with pytest.raises(TooLarge):
            reach_budget(MAX_LAYER_CELLS // 1000 + 1, 1000)
        with pytest.raises(TooLarge):
            Reach([np.array([1])], cap=MAX_CONV_LEN // 2)

    def test_rounding_certificate_raises(self, monkeypatch):
        real_irfft = np.fft.irfft

        def noisy(*args, **kwargs):
            return real_irfft(*args, **kwargs) + 0.3

        monkeypatch.setattr(gridfft.np.fft, "irfft", noisy)
        with pytest.raises(VerificationError):
            Reach([np.array([1, 2])], cap=10)


class TestSumsetPower:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(0, 60), st.integers(0, 6000)), max_size=30).map(
            lambda v: np.array(sorted(set(v)), dtype=np.int64)
        ),
        st.integers(1, 12),
        st.integers(0, 5000),
    )
    def test_matches_reach_layer(self, support, s, cap):
        powered = sumset_power(support, s, cap)
        assert powered.dtype == bool and len(powered) == cap + 1
        assert np.array_equal(powered, Reach([support] * s, cap).layers[0])

    def test_budget_is_reachs(self):
        with pytest.raises(TooLarge):
            sumset_power(np.array([1]), 2, MAX_CONV_LEN // 2)
        with pytest.raises(TooLarge):
            sumset_power(np.array([1]), MAX_LAYER_CELLS // 1000, 999)

    @pytest.mark.parametrize("s", [2, 3, 10, 12])
    def test_every_product_is_certified(self, monkeypatch, s):
        # one noisy irfft, at each product in turn, must raise
        real_irfft = np.fft.irfft
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real_irfft(*args, **kwargs)

        monkeypatch.setattr(gridfft.np.fft, "irfft", counting)
        sumset_power(np.array([1, 2]), s, 100)
        assert len(calls) == (s.bit_length() - 1) + (bin(s).count("1") - 1)
        for bad in range(len(calls)):
            seen = []

            def noisy(*args, **kwargs):
                seen.append(1)
                return real_irfft(*args, **kwargs) + (0.3 if len(seen) == bad + 1 else 0.0)

            monkeypatch.setattr(gridfft.np.fft, "irfft", noisy)
            with pytest.raises(VerificationError):
                sumset_power(np.array([1, 2]), s, 100)


def lattice_ks(spec, s, hi, table):
    """(ks, cap): the K of each member square p^2 <= hi and the scan cap for
    n = s + 24K <= hi, as the exception scan forms them."""
    members = subset_members(spec, table)
    members = members[members <= math.isqrt(hi)]
    return (members**2 - 1) // 24, (hi - s) // 24


@pytest.fixture
def powers(monkeypatch):
    """Records the (s, cap) of every sumset_power call scan_mask makes."""
    calls = []
    real = gridfft.sumset_power

    def spy(support, s, cap):
        calls.append((s, cap))
        return real(support, s, cap)

    monkeypatch.setattr(gridfft, "sumset_power", spy)
    return calls


specs_st = st.one_of(
    st.just(PrimeSubsetSpec.all_primes()),
    st.builds(PrimeSubsetSpec.bernoulli, st.sampled_from([0.3, 0.6, 0.9, 0.97]), st.integers(0, 99)),
    st.lists(st.integers(5, 1800), min_size=1, max_size=300).map(PrimeSubsetSpec.explicit),
    st.sampled_from(
        [
            PrimeSubsetSpec.residue_classes(5, [1, 4]),
            PrimeSubsetSpec.residue_classes(7, [1, 2, 3]),
            PrimeSubsetSpec.residue_classes(12, [1, 5, 7]),
        ]
    ),
)


class TestScanMask:
    table = sieve(2000)

    @settings(max_examples=60, deadline=None)
    @given(specs_st, st.integers(5, 12), st.integers(0, 3_000_000))
    @example(PrimeSubsetSpec.all_primes(), 8, 3_000_000)
    @example(PrimeSubsetSpec.bernoulli(0.9, 7), 12, 2_000_000)
    @example(PrimeSubsetSpec.explicit(range(5, 1800)), 5, 3_000_000)
    @example(PrimeSubsetSpec.residue_classes(7, [1, 2, 3]), 9, 3_000_000)
    def test_matches_sumset_power(self, spec, s, hi):
        ks, cap = lattice_ks(spec, s, max(hi, s), self.table)
        mask = scan_mask(ks, s, cap)
        assert mask.dtype == bool and len(mask) == cap + 1
        assert np.array_equal(mask, sumset_power(ks, s, cap))
        # unsorted, with repeats: the same set
        assert np.array_equal(scan_mask(np.concatenate([ks[::-1], ks[:3]]), s, cap), mask)

    def test_planted_gap_falls_back(self, powers):
        # clusters [1, 50] + 1050 j: G = 1000 and c1 = 2048.  7A misses
        # [351, 1055], so no k covers M - k in [K0, c1) and the scan falls back.
        ks = np.concatenate([np.arange(1, 51) + 1050 * j for j in range(100)])
        cap = 100_000
        mask = scan_mask(ks, 8, cap)
        assert powers == [(7, 2047), (8, cap)]
        assert np.array_equal(mask, sumset_power(ks, 8, cap))
        assert not mask[2048:].all()  # a certificate here would have been wrong

    def test_cover_must_reach_cap(self, powers):
        # members up to 500 only: the union ends at the last k + c1 - 1 < cap
        ks, _ = lattice_ks(PrimeSubsetSpec.all_primes(), 8, 500**2, self.table)
        mask = scan_mask(ks, 8, 200_000)
        assert powers[-1] == (8, 200_000)
        assert np.array_equal(mask, sumset_power(ks, 8, 200_000))

    def test_residue_obstruction_falls_back(self, powers):
        # p = +-1 mod 5 makes every k a multiple of 5: D misses 4/5 of the
        # lattice up to c1, so K0 reaches c1 and no interval covers anything
        ks, cap = lattice_ks(PrimeSubsetSpec.residue_classes(5, [1, 4]), 10, 2_000_000, self.table)
        c1 = 1 << (2 * int(np.diff(ks).max())).bit_length()
        mask = scan_mask(ks, 10, cap)
        assert powers == [(9, c1 - 1), (10, cap)]
        assert np.array_equal(mask, sumset_power(ks, 10, cap))

    @pytest.mark.parametrize("s, hi", [(1, 100_000), (2, 100_000), (8, 400)])
    def test_edges_fall_back(self, powers, s, hi):
        # s = 1 and c1 >= cap (at n <= 400: ks 1, 2, 5, 7, 12, 15, G = 5,
        # c1 = 16 = cap) never build a dense layer; at s = 2, D = A misses up
        # to c1, so its cover fails
        ks, cap = lattice_ks(PrimeSubsetSpec.all_primes(), s, hi, self.table)
        mask = scan_mask(ks, s, cap)
        assert powers[-1] == (s, cap) and len(powers) == (2 if s == 2 else 1)
        assert np.array_equal(mask, sumset_power(ks, s, cap))

    def test_descent_closes_at_two_hundred_million(self, powers):
        table = sieve(math.isqrt(200_000_000))
        ks, cap = lattice_ks(PrimeSubsetSpec.all_primes(), 8, 200_000_000, table)
        mask = scan_mask(ks, 8, cap)
        [(s_dense, top)] = powers
        c1 = top + 1
        assert s_dense == 7 and c1 <= 1 << 18
        assert mask[c1:].all() and not mask[:7].any()

    def test_descent_product_is_certified(self, monkeypatch, powers):
        # the descent's own product D + A is the last irfft; noise there must raise
        ks, cap = lattice_ks(PrimeSubsetSpec.all_primes(), 8, 4_000_000, self.table)
        real_irfft = np.fft.irfft
        seen = []
        monkeypatch.setattr(gridfft.np.fft, "irfft", lambda *a: seen.append(1) or real_irfft(*a))
        scan_mask(ks, 8, cap)
        assert (8, cap) not in powers
        total = len(seen)
        seen.clear()

        def noisy_last(*args):
            seen.append(1)
            return real_irfft(*args) + (0.3 if len(seen) == total else 0.0)

        monkeypatch.setattr(gridfft.np.fft, "irfft", noisy_last)
        with pytest.raises(VerificationError):
            scan_mask(ks, 8, cap)
        assert len(seen) == total
