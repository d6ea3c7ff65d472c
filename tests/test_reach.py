import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CyclicSumset
import psqlab._gridfft as gridfft
from psqlab._gridfft import (
    MAX_CONV_LEN,
    MAX_LAYER_CELLS,
    lex_smallest_sum,
    reach_budget,
    scan_mask,
    sumset_power,
)
from psqlab.errors import TooLarge
from psqlab.primes import PrimeSubsetSpec, sieve, subset_members

supports_st = st.lists(
    st.lists(st.integers(0, 12), max_size=5).map(lambda v: np.array(sorted(set(v)), dtype=np.int64)),
    min_size=1,
    max_size=4,
)


def brute_smallest(supports, target):
    found = [t for t in itertools.product(*[s.tolist() for s in supports]) if sum(t) == target]
    return min(found) if found else None


def sorted_support(values):
    return np.array(sorted(set(values)), dtype=np.int64)


def mask_lengths(monkeypatch):
    """The lengths of the boolean arrays (the search's pair-sum masks)
    allocated while gridfft.np.zeros stays patched."""
    masks = []
    real_zeros = np.zeros

    def zeros(shape, dtype=float):
        masks.extend([shape] if dtype is bool else [])
        return real_zeros(shape, dtype=dtype)

    monkeypatch.setattr(gridfft.np, "zeros", zeros)
    return masks


@st.composite
def deep_supports(draw):
    """1 to 8 supports, some empty; at most 3 elements each past 4 supports,
    so the product a brute force walks stays small."""
    s = draw(st.integers(1, 8))
    size = 5 if s <= 4 else 3
    return [draw(st.lists(st.integers(0, 15), max_size=size).map(sorted_support)) for _ in range(s)]


class TestLexSmallestSumOracle:
    @settings(max_examples=200, deadline=None)
    @given(supports_st, st.integers(-3, 50))
    def test_matches_product_minimum(self, supports, target):
        assert lex_smallest_sum(supports, [target]) == [brute_smallest(supports, target)]

    @settings(max_examples=300, deadline=None)
    @given(deep_supports(), st.integers(-5, 125))
    @example([sorted_support([0, 1])] * 8, 8)
    @example([sorted_support([2, 4])] * 8, 17)  # every sum is even
    @example([sorted_support([1, 3]), sorted_support([])] + [sorted_support([0])] * 4, 1)
    @example([sorted_support([5, 7])] * 6, -1)
    def test_matches_product_minimum_up_to_eight_supports(self, supports, target):
        # the walk, which may backtrack above the bitsets and never does
        # from the top one down, padded to four levels with trailing {0}
        # supports below four supports
        assert lex_smallest_sum(supports, [target]) == [brute_smallest(supports, target)]

    @settings(max_examples=100, deadline=None)
    @given(deep_supports(), st.lists(st.integers(-5, 125), max_size=6))
    def test_several_targets_match_product_minimum(self, supports, targets):
        expected = [brute_smallest(supports, t) for t in targets]
        assert lex_smallest_sum(supports, targets) == expected

    @settings(max_examples=150, deadline=None)
    @given(deep_supports(), st.lists(st.integers(-5, 125), min_size=1, max_size=6))
    @example([sorted_support([0, 1])] * 8, [8, 0, 3])
    @example([sorted_support([2, 4])] * 8, [17, 16])  # every sum is even
    def test_every_bitset_budget_matches_product_minimum(self, supports, targets):
        # no bitset above the mask (the walk may backtrack at every level
        # above it), a partial stack (it may backtrack over the top levels:
        # 2^8 bit-cells hold one or two of the lowest levels of eight 3-point
        # supports) and every level (it never backtracks) all give the
        # product minimum
        expected = [brute_smallest(supports, t) for t in targets]
        for cells in (0, 1 << 8, 1 << 60):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gridfft, "MAX_BITSET_CELLS", cells)
                assert lex_smallest_sum(supports, targets) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(4, 12), st.sampled_from([60, 600, 6000]), st.integers(1, 1 << 22))
    def test_every_bitset_budget_gives_the_same_tuples(self, data, s, hi, partial):
        # larger supports than a brute force can walk, where a level takes up
        # to about 2^22 bit-cells: no level above the mask, a partial stack
        # and every level agree
        supports = [
            data.draw(st.lists(st.integers(0, hi), min_size=1, max_size=60).map(sorted_support))
            for _ in range(s)
        ]
        least = sum(int(sup[0]) for sup in supports)
        most = sum(int(sup[-1]) for sup in supports)
        targets = data.draw(st.lists(st.integers(least - 2, most + 2), min_size=1, max_size=5))
        found = []
        for cells in (0, partial, 1 << 60):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gridfft, "MAX_BITSET_CELLS", cells)
                found.append(lex_smallest_sum(supports, targets))
        assert found[0] == found[1] == found[2]
        assert all(f is None or sum(f) == t for f, t in zip(found[0], targets))

    def test_mask_built_and_charged_once_for_several_targets(self, monkeypatch):
        # the pair-sum mask of J + J, the one boolean array the search
        # allocates, costs len(J)^2 / SEARCH_CHUNK steps; with a cap of twice
        # that, three targets are answered, not refused with TooLarge, only
        # if it is charged once
        J = np.arange(1024, dtype=np.int64)
        mask_steps = len(J) ** 2 // gridfft.SEARCH_CHUNK
        monkeypatch.setattr(gridfft, "MAX_SEARCH_STEPS", 2 * mask_steps)
        masks = mask_lengths(monkeypatch)
        targets = [4000, 4001, 8000]
        found = lex_smallest_sum([J] * 8, targets)
        monkeypatch.undo()
        assert masks == [2 * 1023 + 1]  # one mask, of the pair sums 0 .. 2046
        assert [sum(f) for f in found] == targets
        assert found[2] == (839,) + (1023,) * 7  # the least v_0 with seven maxima after it

    def test_step_cap_is_monotone_past_the_mask(self, monkeypatch):
        # the mask of J + J costs 257 steps; the bitset levels above it are
        # bounded by MAX_BITSET_CELLS alone, never by the steps left, so the
        # walk never backtracks and answers in one more step at every cap
        # past the mask, and the cap of the mask alone refuses it
        J = np.arange(1024, dtype=np.int64)
        for k in range(40):
            monkeypatch.setattr(gridfft, "MAX_SEARCH_STEPS", 257 + k)
            if k:
                assert lex_smallest_sum([J] * 8, [8000]) == [(839,) + (1023,) * 7]
            else:
                with pytest.raises(TooLarge, match="past its cap of 257 steps"):
                    lex_smallest_sum([J] * 8, [8000])

    @pytest.mark.parametrize("s", [1, 2])
    def test_padding_keeps_a_one_cell_mask(self, monkeypatch, s):
        # fewer than four supports are padded with trailing {0} supports, so
        # the pair-sum mask of the last two holds only 0; leading ones would
        # make it as long as the slack
        masks = mask_lengths(monkeypatch)
        J = np.arange(0, 3000, 3, dtype=np.int64)
        found = lex_smallest_sum([J] * s, [2997 * s, 1])
        monkeypatch.undo()
        assert masks == [1]
        assert found == [(2997,) * s, None]

    @pytest.mark.parametrize(
        "supports, target, expected",
        [
            ([], 0, ()),
            ([], 3, None),
            ([[1, 2], []], 3, None),  # an empty support
            ([[1, 2]] * 5, 11, None),  # past the sum of the maxima
            ([[1, 2]] * 5, 4, None),  # below the sum of the minima
            ([[1, 2]] * 5, -2, None),
            ([[0, 3]] * 6, 7, None),  # inside the bounds, unreachable
            ([[0, 3]] * 6, 9, (0, 0, 0, 3, 3, 3)),
            ([[0, 10, 11], [0, 1], [0, 100]], 112, (11, 1, 100)),
        ],
    )
    def test_edges(self, supports, target, expected):
        supports = [np.array(sup, dtype=np.int64) for sup in supports]
        assert lex_smallest_sum(supports, [target]) == [expected]

    @settings(max_examples=100, deadline=None)
    @given(deep_supports(), st.integers(-5, 125))
    def test_step_cap_raises_too_large(self, supports, target):
        # with no steps allowed, only a search the supports settle up front (one
        # of them empty, or the target below the sum of their minima) answers,
        # with the product minimum; every other raises TooLarge, since a tuple
        # is found by a step, never by the bounds alone
        settled = not all(len(sup) for sup in supports) or target < sum(int(sup[0]) for sup in supports)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gridfft, "MAX_SEARCH_STEPS", 0)
            if settled:
                assert lex_smallest_sum(supports, [target]) == [brute_smallest(supports, target)]
            else:
                with pytest.raises(TooLarge, match="past its cap of 0 steps"):
                    lex_smallest_sum(supports, [target])

    def test_mask_past_budget_raises_too_large(self, monkeypatch):
        # the pair sums of the last two supports would need a mask of 2^25 + 1
        # cells: refused before it is allocated
        masks = mask_lengths(monkeypatch)
        with pytest.raises(TooLarge, match=f"mask of {(1 << 25) + 1} cells over budget {MAX_CONV_LEN}"):
            lex_smallest_sum([np.array([0, 1 << 25], dtype=np.int64)] * 3, [1 << 25])
        assert masks == []

    def test_transfer_search_runs_no_fft(self, monkeypatch, ctx6, all_spec):
        # the index search of transfer --w 6 --n 960008 --s 8, with every FFT
        # raising while it runs, gives the witness of the FFT-free reference on
        # the supports cut to [0, m], modulo q = 8m + 1, past every such sum
        import psqlab.representations as reprs

        searches = []

        def no_fft(*args, **kwargs):
            raise AssertionError("lex_smallest_sum called an FFT")

        def guarded(supports, targets):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gridfft.np.fft, "rfft", no_fft)
                mp.setattr(gridfft.np.fft, "irfft", no_fft)
                [found] = lex_smallest_sum(supports, targets)
            searches.append((supports, targets, found))
            return [found]

        monkeypatch.setattr(reprs, "lex_smallest_sum", guarded)
        witness = reprs.transfer_witness(ctx6, 960_008, 8, all_spec)
        [(supports, [target], found)] = searches
        assert len(supports) == 8 and target == witness["m"]
        reference = CyclicSumset([sup[sup <= target] for sup in supports], 8 * target + 1)
        assert found == tuple(witness["indices"]) == reference.smallest(target)


class TestReach:
    @settings(max_examples=100, deadline=None)
    @given(supports_st, st.integers(1, 9), st.integers(-20, 40))
    def test_cyclic_matches_product_minimum(self, supports, modulus, target):
        found = [
            t
            for t in itertools.product(*[s.tolist() for s in supports])
            if (sum(t) - target) % modulus == 0
        ]
        # the roll-OR reference that the residue tests compare against
        reach = CyclicSumset(supports, modulus)
        assert reach.smallest(target) == (min(found) if found else None)
        assert bool(reach.layers[0][target % modulus]) == bool(found)

    def test_budget_checked_before_allocation(self):
        reach_budget(2, MAX_CONV_LEN // 2)  # 2 * width - 1 = MAX_CONV_LEN - 1
        with pytest.raises(
            TooLarge, match=rf"width {MAX_CONV_LEN // 2 + 1} over budget: 2 \* width - 1 > {MAX_CONV_LEN}"
        ):
            reach_budget(2, MAX_CONV_LEN // 2 + 1)
        with pytest.raises(TooLarge, match=f"layers of 1000 cells over budget {MAX_LAYER_CELLS}"):
            reach_budget(MAX_LAYER_CELLS // 1000 + 1, 1000)


class TestSumsetPower:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(0, 60), st.integers(0, 6000)), max_size=30).map(
            lambda v: np.array(sorted(set(v)), dtype=np.int64)
        ),
        st.integers(1, 12),
        st.integers(0, 5000),
    )
    # caps at the byte edges of the packed words, with sums on the top bit
    @example(np.array([0, 7, 8, 63, 64], dtype=np.int64), 3, 0)
    @example(np.array([0, 7, 8, 63, 64], dtype=np.int64), 3, 7)
    @example(np.array([0, 7, 8, 63, 64], dtype=np.int64), 3, 8)
    @example(np.array([0, 7, 8, 63, 64], dtype=np.int64), 3, 63)
    @example(np.array([0, 7, 8, 63, 64], dtype=np.int64), 3, 64)
    @example(np.array([], dtype=np.int64), 4, 64)  # an empty support
    def test_matches_reach_layer(self, support, s, cap):
        # the FFT-free reference on the support cut to [0, cap], modulo a q
        # past every sum of s of its elements, so nothing wraps
        powered = sumset_power(support, s, cap)
        assert powered.dtype == bool and len(powered) == cap + 1
        reference = CyclicSumset([support[support <= cap]] * s, s * cap + 1)
        assert np.array_equal(powered, reference.layers[0][: cap + 1])

    def test_budget_is_reachs(self):
        with pytest.raises(TooLarge):
            sumset_power(np.array([1]), 2, MAX_CONV_LEN // 2)
        with pytest.raises(TooLarge):
            sumset_power(np.array([1]), MAX_LAYER_CELLS // 1000, 999)


def lattice_ks(spec, s, hi, primes):
    """(ks, cap): k = (p^2 - 1)/24 for each member square p^2 <= hi, and the
    largest K with s + 24K <= hi.  Under all, ks is the exception scan's J
    plus one (J = (p^2 - 25)/24); under a residue spec it lies on a
    progression k0 + gZ, g > 1, where scan_mask falls back unless handed
    the reduced form (ks - k0)/g."""
    members = subset_members(spec, primes)
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
            PrimeSubsetSpec.residue_classes(5, [2, 3]),
            PrimeSubsetSpec.residue_classes(7, [1, 6]),
            PrimeSubsetSpec.residue_classes(13, [1, 12]),
            PrimeSubsetSpec.residue_classes(7, [1, 2, 3]),
            PrimeSubsetSpec.residue_classes(12, [1, 5, 7]),
        ]
    ),
)


class TestScanMask:
    primes = sieve(2000)

    @settings(max_examples=60, deadline=None)
    @given(specs_st, st.integers(5, 12), st.integers(0, 3_000_000))
    @example(PrimeSubsetSpec.all_primes(), 8, 3_000_000)
    @example(PrimeSubsetSpec.bernoulli(0.9, 7), 12, 2_000_000)
    @example(PrimeSubsetSpec.explicit(range(5, 1800)), 5, 3_000_000)
    @example(PrimeSubsetSpec.residue_classes(7, [1, 2, 3]), 9, 3_000_000)
    def test_matches_sumset_power(self, spec, s, hi):
        ks, cap = lattice_ks(spec, s, max(hi, s), self.primes)
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
        ks, _ = lattice_ks(PrimeSubsetSpec.all_primes(), 8, 500**2, self.primes)
        mask = scan_mask(ks, 8, 200_000)
        assert powers[-1] == (8, 200_000)
        assert np.array_equal(mask, sumset_power(ks, 8, 200_000))

    @pytest.mark.parametrize(
        "modulus, classes, k0, g",
        [(5, [1, 4], 5, 5), (5, [2, 3], 2, 5), (7, [1, 6], 7, 7)],
        ids=["residues5_1_4", "residues5_2_3", "residues7_1_6"],
    )
    def test_residue_obstruction_takes_the_descent(self, powers, modulus, classes, k0, g):
        # p = +-1 mod 5 makes every k a multiple of 5 (p = +-2 mod 5: k = 2
        # mod 5; p = +-1 mod 7: k = 0 mod 7), so A lies on k0 + gZ.  Handed
        # J = (A - k0)/g over [0, (cap - s*k0)//g], as the exception scan
        # hands it, the descent closes: one dense layer, no sumset_power at
        # the reduced cap, and s*k0 + g*sJ is sA, which is empty off the line
        spec = PrimeSubsetSpec.residue_classes(modulus, classes)
        ks, cap = lattice_ks(spec, 10, 2_000_000, self.primes)
        assert int(ks.min()) == k0 and np.gcd.reduce(ks - k0) == g
        top_j = (cap - 10 * k0) // g
        mask = scan_mask((ks - k0) // g, 10, top_j)
        [(s_dense, top)] = powers
        assert s_dense == 9 and top < top_j
        full = sumset_power(ks, 10, cap)
        on_line = 10 * k0 + g * np.arange(top_j + 1)
        assert np.array_equal(mask, full[on_line])
        assert full.sum() == mask.sum()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 40),
        st.integers(2, 9),
        st.lists(st.integers(0, 300), max_size=20),
        st.integers(1, 8),
        st.integers(0, 4000),
    )
    def test_progression_matches_sumset_power(self, k0, g, js, s, cap):
        # a support on k0 + gZ, g > 1, as the exception scan never hands it:
        # the dense layer misses every other residue mod g, so the cover
        # cannot close, and the fallback must still give sA
        ks = k0 + g * np.array([0] + js, dtype=np.int64)
        assert np.array_equal(scan_mask(ks, s, cap), sumset_power(ks, s, cap))

    @pytest.mark.parametrize(
        "ks, s, cap, reached",
        [
            ([7], 8, 100, [56]),  # one member: no gap, c1 = 1
            ([7, 7, 7], 8, 100, [56]),  # a repeated single value: the same set
            ([10, 20, 30], 5, 40, []),  # s*k0 > cap: nothing is reachable
            ([10, 20, 30], 5, 50, [50]),  # s*k0 = cap: only the top entry
        ],
    )
    def test_progression_edges(self, ks, s, cap, reached):
        mask = scan_mask(np.array(ks), s, cap)
        assert np.array_equal(mask, sumset_power(np.array(ks), s, cap))
        assert np.flatnonzero(mask).tolist() == reached

    @pytest.mark.parametrize("s, hi", [(1, 100_000), (2, 100_000), (8, 400)])
    def test_edges_fall_back(self, powers, s, hi):
        # s = 1 and c1 >= cap (at n <= 400: ks 1, 2, 5, 7, 12, 15, G = 5,
        # c1 = 16 = cap) never build a dense layer; at s = 2, D = A misses up
        # to c1, so its cover fails
        ks, cap = lattice_ks(PrimeSubsetSpec.all_primes(), s, hi, self.primes)
        mask = scan_mask(ks, s, cap)
        assert powers[-1] == (s, cap) and len(powers) == (2 if s == 2 else 1)
        assert np.array_equal(mask, sumset_power(ks, s, cap))

    def test_descent_closes_at_two_hundred_million(self, powers):
        primes = sieve(math.isqrt(200_000_000))
        ks, cap = lattice_ks(PrimeSubsetSpec.all_primes(), 8, 200_000_000, primes)
        mask = scan_mask(ks, 8, cap)
        [(s_dense, top)] = powers
        c1 = top + 1
        assert s_dense == 7 and c1 <= 1 << 18
        assert mask[c1:].all() and not mask[:7].any()


class TestNoFft:
    def test_sumset_engine_runs_no_fft(self, monkeypatch, powers, ctx6, all_spec):
        # with every FFT raising while they run: sumset_power, scan_mask's
        # descent (closing at 4e6) and its fallback (a planted gap),
        # verify_cover and count_violations' window route each give the
        # exact answer
        import psqlab.representations as reprs
        from psqlab.sumsets import verify_cover

        def no_fft(*args, **kwargs):
            raise AssertionError("the sumset engine called an FFT")

        for name in ("fft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, no_fft)
        support = np.array([0, 3, 7, 8, 64], dtype=np.int64)
        reference = CyclicSumset([support] * 5, 5 * 100 + 1)
        assert np.array_equal(sumset_power(support, 5, 100), reference.layers[0][:101])

        ks, cap = lattice_ks(all_spec, 8, 4_000_000, TestScanMask.primes)
        closed = scan_mask(ks, 8, cap)
        [(s_dense, _)] = powers  # the descent closed, with no sumset_power at cap
        assert s_dense == 7 and np.array_equal(closed, sumset_power(ks, 8, cap))
        gapped = np.concatenate([np.arange(1, 51) + 1050 * j for j in range(100)])
        fallback = scan_mask(gapped, 8, 100_000)
        assert powers[1:] == [(7, 2047), (8, 100_000)]
        assert np.array_equal(fallback, sumset_power(gapped, 8, 100_000))

        assert verify_cover(ctx6, ctx6.Z_W)["missing"] == []
        table = reprs.count_representations(20_000, 5, all_spec)
        exceptions = reprs.theorem_experiment(5, all_spec, (0, 20_000))["exceptions"]
        assert reprs.count_violations(table, 5, all_spec, 0, exceptions).size == 0
