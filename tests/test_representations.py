import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqlab._gridfft import lex_smallest_sum
from psqlab.errors import Infeasible, NotFound, TableTooSmall, TooLarge
from psqlab.primes import PrimeSubsetSpec, sieve, subset_members
from psqlab.representations import (
    MAX_CONV_LEN,
    _convolve_trunc,
    _split_convolve_exact,
    count_representations,
    find_witness,
    lambda_threshold,
    m_window_deviation,
    scan_lattice,
    square_indicator,
    theorem_experiment,
    transfer_witness,
)


def brute_force_counts(limit, s, spec, table):
    """Ordered tuple counts by nested enumeration."""
    squares = [int(p) ** 2 for p in subset_members(spec, table) if int(p) ** 2 <= limit]
    counts = np.zeros(limit + 1, dtype=np.int64)
    for combo in itertools.product(squares, repeat=s):
        total = sum(combo)
        if total <= limit:
            counts[total] += 1
    return counts


SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


@st.composite
def small_specs(draw):
    """Explicit, residue-class and Bernoulli subsets, min_prime 2, 3 or 5."""
    min_prime = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["explicit", "residues", "bernoulli"]))
    if kind == "explicit":
        return PrimeSubsetSpec.explicit(draw(st.sets(st.sampled_from(SMALL_PRIMES))), min_prime)
    if kind == "residues":
        q = draw(st.integers(3, 12))
        units = [c for c in range(1, q) if math.gcd(c, q) == 1]
        classes = draw(st.sets(st.sampled_from(units), min_size=1))
        return PrimeSubsetSpec.residue_classes(q, classes, min_prime)
    rho = draw(st.floats(0.3, 1.0))
    return PrimeSubsetSpec.bernoulli(rho, draw(st.integers(0, 1000)), min_prime)


class TestSquareIndicator:
    def test_small(self, table_1k, all_spec):
        ind = square_indicator(30, all_spec, table_1k)
        assert list(np.flatnonzero(ind)) == [25]

    def test_medium(self, table_1k, all_spec):
        ind = square_indicator(130, all_spec, table_1k)
        assert list(np.flatnonzero(ind)) == [25, 49, 121]

    def test_empty_subset(self, table_1k):
        ind = square_indicator(100, PrimeSubsetSpec.explicit([]), table_1k)
        assert not ind.any()

    def test_table_too_small(self, all_spec):
        with pytest.raises(TableTooSmall):
            square_indicator(10**6, all_spec, sieve(100))


class TestLambdaThreshold:
    def test_reference_values(self):
        assert lambda_threshold(8) == pytest.approx(math.sqrt(3) / 2)
        assert lambda_threshold(16) == pytest.approx(1 / math.sqrt(2))
        assert lambda_threshold(40) == lambda_threshold(16)


class TestCountRepresentations:
    @pytest.mark.parametrize("s", [2, 3])
    def test_matches_brute_force(self, s, table_1k, all_spec):
        limit = 2000
        table = count_representations(limit, s, all_spec, table_1k)
        brute = brute_force_counts(limit, s, all_spec, table_1k)
        assert np.array_equal(table.counts, brute)

    def test_two_squares_of_74(self, table_1k, all_spec):
        counts = count_representations(100, 2, all_spec, table_1k).counts
        assert counts[74] == 2  # (5,7) and (7,5)
        assert counts[50] == 1  # (5,5)

    def test_eight_fives(self, table_1k, all_spec):
        counts = count_representations(200, 8, all_spec, table_1k).counts
        assert counts[200] >= 1

    def test_congruence_vanishing(self, table_1k, all_spec):
        counts = count_representations(3000, 8, all_spec, table_1k).counts
        ns = np.arange(3001)
        assert not counts[ns % 24 != 8].any()

    def test_fft_path_agrees_with_plain_convolution(self, table_1k, all_spec):
        limit = 20_000  # above the exact-convolution crossover
        ind = square_indicator(limit, all_spec, table_1k)
        want = ind.copy()
        for _ in range(2):
            want = np.convolve(want, ind)[: limit + 1]
        got = count_representations(limit, 3, all_spec, table_1k).counts
        assert np.array_equal(got, want)

    def test_split_convolution_is_exact(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 1 << 40, 50).astype(np.int64)
        b = rng.integers(0, 1 << 40, 70).astype(np.int64)
        want = np.convolve(a.astype(object), b.astype(object))[:100]
        got = _split_convolve_exact(a, b, 99)
        assert list(got) == list(want)

    def test_trunc_keeps_prefix_only(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        assert list(_convolve_trunc(a, a, 2)) == [1, 4, 10]

    def test_routing_to_split_on_huge_values_small_length(self):
        a = np.array([1 << 60, 1], dtype=np.int64)
        got = _convolve_trunc(a, a, 2)
        assert list(got) == [1 << 120, 1 << 61, 1]

    def test_routing_to_split_above_fft_residual_guard(self):
        # uniform big values make the rounded FFT untrustworthy; the result
        # must come out exact anyway (closed form: (i+1) * 2^60 up to length)
        L = 9000
        a = np.full(L, 1 << 30, dtype=np.int64)
        got = _convolve_trunc(a, a, L - 1)
        assert got.dtype == object
        want = [(i + 1) << 60 for i in range(L)]
        assert list(got) == want

    def test_counts_divisible_by_orbit(self, table_1k, all_spec):
        counts = count_representations(500, 3, all_spec, table_1k).counts
        w = find_witness(171, 3, all_spec, table_1k)  # 25 + 25 + 121
        assert w is not None
        from collections import Counter

        orbit = math.factorial(3)
        for mult in Counter(w.primes).values():
            orbit //= math.factorial(mult)
        assert counts[171] % orbit == 0


class TestFindWitness:
    def test_all_fives(self, table_1k, all_spec):
        assert find_witness(200, 8, all_spec, table_1k).primes == (5,) * 8

    def test_five_seven(self, table_1k, all_spec):
        assert find_witness(74, 2, all_spec, table_1k).primes == (5, 7)

    def test_none_when_impossible(self, table_1k, all_spec):
        assert find_witness(100, 2, all_spec, table_1k) is None

    def test_lexicographically_smallest(self, table_1k, all_spec):
        assert find_witness(290, 2, all_spec, table_1k).primes == (11, 13)

    def test_respects_subset(self, table_1k):
        spec = PrimeSubsetSpec.explicit([7, 11])
        w = find_witness(170, 2, spec, table_1k)  # 49 + 121
        assert w.primes == (7, 11)
        assert find_witness(74, 2, spec, table_1k) is None

    def test_witness_validates(self, table_1k, all_spec):
        for n in (224, 1088, 4328):
            w = find_witness(n, 8, all_spec, table_1k)
            assert w is not None
            assert sum(p * p for p in w.primes) == w.n == n
            assert all(table_1k.is_prime(p) for p in w.primes)
            assert list(w.primes) == sorted(w.primes)

    @settings(max_examples=60, deadline=None)
    @given(small_specs(), st.integers(1, 4), st.integers(0, 3000))
    def test_matches_brute_force_smallest(self, spec, s, n):
        table = sieve(100)
        members = [int(p) for p in subset_members(spec, table) if p * p <= n]
        want = next(
            (c for c in itertools.combinations_with_replacement(members, s)
             if sum(p * p for p in c) == n),
            None,
        )
        w = find_witness(n, s, spec, table)
        assert (w.primes if w else None) == want


class TestTheoremExperiment:
    @settings(max_examples=60, deadline=None)
    @given(small_specs(), st.integers(1, 6), st.integers(0, 3000), st.integers(0, 2000))
    def test_exceptions_are_zero_counts(self, spec, s, hi, lo):
        lo = min(lo, hi)
        table = sieve(100)
        report = theorem_experiment(s, spec, (lo, hi), table)
        counts = count_representations(hi, s, spec, table).counts
        targets = range(lo + ((s - lo) % 24), hi + 1, 24)
        assert report.exceptions == tuple(n for n in targets if counts[n] == 0)
        represented = [n for n in targets if counts[n] != 0]
        assert [w.n for w in report.sample_witnesses] == represented[:3]
        for w in report.sample_witnesses:
            assert w == find_witness(w.n, s, spec, table)

    def test_scan_lattice_reach(self, all_spec):
        # stride 24: the FFT over K holds 2 * (cap + 1) <= MAX_CONV_LEN points
        reach = 8 + 24 * (MAX_CONV_LEN // 2 - 1) + 23
        assert scan_lattice(8, all_spec, reach) == (24, 1, MAX_CONV_LEN // 2 - 1)
        with pytest.raises(TooLarge):
            scan_lattice(8, all_spec, reach + 1)
        with pytest.raises(TooLarge):
            scan_lattice(8, PrimeSubsetSpec.all_primes(min_prime=2), MAX_CONV_LEN // 2)
        with pytest.raises(TooLarge):  # s + 1 layers of 4.2e6 cells each
            scan_lattice(80, all_spec, 10**8)

    def test_small_range_no_exceptions(self, table_100k, all_spec):
        report = theorem_experiment(8, all_spec, (200, 20_000), table_100k)
        assert report.exceptions == ()
        assert report.max_exception is None
        assert report.n_checked == len(range(200, 20_001, 24))
        assert report.density_exceeds_threshold
        assert not report.exploratory
        for w in report.sample_witnesses:
            assert sum(p * p for p in w.primes) == w.n

    def test_exceptions_reported_not_fatal(self, table_1k, all_spec):
        # below 8 * 25 nothing is representable: every target is an exception
        report = theorem_experiment(8, all_spec, (8, 199), table_1k, sample_limit=0)
        assert report.exceptions == tuple(range(8, 200, 24))
        assert report.max_exception == 176

    def test_exploratory_flag(self, table_1k, all_spec):
        report = theorem_experiment(4, all_spec, (100, 500), table_1k, sample_limit=0)
        assert report.exploratory

    def test_json_fields(self, table_1k, all_spec):
        blob = theorem_experiment(8, all_spec, (200, 1000), table_1k).to_json()
        for key in (
            "s",
            "spec",
            "lambda_threshold",
            "empirical_density",
            "range",
            "exceptions",
            "max_exception",
            "sample_witnesses",
        ):
            assert key in blob


class TestLexSmallestSum:
    def test_finds_lex_smallest(self):
        sup = np.array([1, 2, 5])
        got = lex_smallest_sum([sup, sup, sup, sup], 9)
        assert got == (1, 1, 2, 5)

    def test_impossible_target(self):
        sup = np.array([1, 5])
        assert lex_smallest_sum([sup, sup], 100) is None
        assert lex_smallest_sum([sup, np.array([], dtype=np.int64)], 2) is None


class TestTransferWitness:
    def test_w4_round_trip(self, ctx4, all_spec):
        n = 10016
        table = sieve(math.isqrt(24 * ((2 * n) // (8 * 24)) + 1) + 1)
        w = transfer_witness(ctx4, n, 8, all_spec, table)
        assert w.residues == (1,) * 8
        assert sum(w.indices) == w.m == (n - 8) // 24
        assert all(24 * nj + 1 == p * p for nj, p in zip(w.indices, w.primes))
        assert sum(p * p for p in w.primes) == n

    def test_w6_residues_match_squares(self, ctx6, all_spec):
        n = 48008
        table = sieve(math.isqrt(120 * ((2 * n) // (8 * 120)) + 49) + 1)
        w = transfer_witness(ctx6, n, 8, all_spec, table)
        assert set(w.residues) <= {1, 49}
        for b, nj, p in zip(w.residues, w.indices, w.primes):
            assert 120 * nj + b == p * p
            assert p * p % 120 == b
        assert sum(w.indices) == w.m == (n - sum(w.residues)) // 120

    def test_congruence_precondition(self, ctx4, table_1k, all_spec):
        with pytest.raises(ValueError):
            transfer_witness(ctx4, 10000, 8, all_spec, table_1k)

    def test_infeasible_for_empty_subset(self, ctx4, table_1k):
        with pytest.raises(Infeasible):
            transfer_witness(ctx4, 10016, 8, PrimeSubsetSpec.explicit([]), sieve(2000))

    def test_not_found_when_search_fails(self, ctx4, all_spec, monkeypatch):
        import psqlab.representations as reprs

        monkeypatch.setattr(reprs, "lex_smallest_sum", lambda sup, t: None)
        table = sieve(2000)
        with pytest.raises(NotFound):
            transfer_witness(ctx4, 10016, 8, all_spec, table)

    def test_window_too_small(self, ctx6, table_1k, all_spec):
        with pytest.raises(NotFound):
            transfer_witness(ctx6, 128, 8, all_spec, table_1k)

    def test_m_window_deviation(self, ctx4):
        # m/(s N / 2) stays within a modest window once n clears the scale
        assert m_window_deviation(ctx4, 10016, 8) < 0.2
