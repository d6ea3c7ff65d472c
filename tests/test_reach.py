import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psqlab._gridfft as gridfft
from psqlab._gridfft import (
    MAX_CONV_LEN,
    MAX_LAYER_CELLS,
    Reach,
    lex_smallest_sum,
    reach_budget,
    sumset_power,
)
from psqlab.errors import TooLarge, VerificationError

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
        assert bool(reach.reachable(target)) == bool(found)

    def test_reachable_mask_outside_range(self):
        reach = Reach([np.array([1, 2])], cap=3)
        assert list(reach.reachable([-1, 0, 1, 2, 3, 4])) == [False, False, True, True, False, False]

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
