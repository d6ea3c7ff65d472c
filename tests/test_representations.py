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
    count_budget,
    count_representations,
    lambda_threshold,
    m_window_deviation,
    member_roots,
    scan_lattice,
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


def brute_smallest(n, s, spec, table):
    """The lexicographically smallest nondecreasing s-tuple of subset primes
    whose squares sum to n, by enumeration, or None."""
    members = [int(p) for p in subset_members(spec, table) if p * p <= n]
    return next(
        (c for c in itertools.combinations_with_replacement(members, s)
         if sum(p * p for p in c) == n),
        None,
    )


def smallest_witness(n, s, spec, table):
    """The primes of the lexicographically smallest s-tuple of member squares
    summing to n, from lex_smallest_sum over [0, n], or None.  The smallest
    ordered tuple is nondecreasing, since its sorted copy is a solution too."""
    squares = member_roots(spec, table, max(n, 0)) ** 2
    found = lex_smallest_sum([squares] * s, n)
    return None if found is None else tuple(math.isqrt(v) for v in found)


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
    """The prime-square indicator is the one-fold count, and its support is
    member_roots squared."""

    def test_small(self, table_1k, all_spec):
        ind = count_representations(30, 1, all_spec, table_1k).counts
        assert list(ind) == [0] * 25 + [1] + [0] * 5

    def test_medium(self, table_1k, all_spec):
        ind = count_representations(130, 1, all_spec, table_1k).counts
        assert list(np.flatnonzero(ind)) == [25, 49, 121]
        assert set(ind.tolist()) == {0, 1}
        assert list(member_roots(all_spec, table_1k, 130)) == [5, 7, 11]

    def test_empty_subset(self, table_1k):
        ind = count_representations(100, 1, PrimeSubsetSpec.explicit([]), table_1k).counts
        assert len(ind) == 101 and not ind.any()

    def test_table_too_small(self, all_spec):
        with pytest.raises(TableTooSmall):
            count_representations(10**6, 1, all_spec, sieve(100))
        with pytest.raises(TableTooSmall):
            member_roots(all_spec, sieve(100), 10**6)
        assert member_roots(all_spec, sieve(100), 101**2 - 1)[-1] == 97  # isqrt 100 is in the table
        with pytest.raises(ValueError):
            member_roots(all_spec, sieve(100), -1)

    @settings(max_examples=60, deadline=None)
    @given(small_specs(), st.integers(0, 4_000_000))
    def test_member_roots_match_the_full_table(self, spec, hi):
        members = subset_members(spec, sieve(2000))
        got = member_roots(spec, sieve(2000), hi)
        assert got.dtype == np.int64
        assert np.array_equal(got, members[members <= math.isqrt(hi)])


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

    def test_agrees_with_repeated_plain_convolution(self, table_1k, all_spec):
        limit = 20_000
        ind = count_representations(limit, 1, all_spec, table_1k).counts
        want = ind.copy()
        for _ in range(2):
            want = np.convolve(want, ind)[: limit + 1]
        got = count_representations(limit, 3, all_spec, table_1k).counts
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(small_specs(), st.integers(1, 5), st.integers(0, 400))
    def test_matches_brute_force_any_spec(self, spec, s, limit):
        table = sieve(100)
        got = count_representations(limit, s, spec, table).counts
        assert len(got) == limit + 1
        assert np.array_equal(got, brute_force_counts(limit, s, spec, table))

    def test_exact_past_int64(self, table_1k):
        # a twos and 70 - a threes sum to 630 - 5a, in comb(70, a) orders;
        # comb(70, 35) is about 1.1e20 > 2^63
        spec = PrimeSubsetSpec.explicit([2, 3], min_prime=2)
        counts = count_representations(630, 70, spec, table_1k).counts
        want = [0] * 631
        for a in range(71):
            want[630 - 5 * a] = math.comb(70, a)
        assert max(want) > 1 << 63
        assert [int(c) for c in counts] == want

    def test_exact_past_int64_on_lattice(self, table_1k):
        # a fives and b = 70 - a sevens sum to 1750 + 24b, in comb(70, b)
        # orders: the object switch on the stride-24 lattice
        spec = PrimeSubsetSpec.explicit([5, 7])
        counts = count_representations(3430, 70, spec, table_1k).counts
        want = [0] * 3431
        for b in range(71):
            want[1750 + 24 * b] = math.comb(70, b)
        assert max(want) > 1 << 63
        assert [int(c) for c in counts] == want

    def test_budget(self):
        count_budget(MAX_CONV_LEN // 2 - 1, 8)  # 2 * limit + 1 = MAX_CONV_LEN fits
        count_budget(10**9, 1)  # one factor is no convolution
        with pytest.raises(TooLarge, match="over budget"):
            count_budget(MAX_CONV_LEN // 2, 2)

    def test_counts_divisible_by_orbit(self, table_1k, all_spec):
        counts = count_representations(500, 3, all_spec, table_1k).counts
        w = smallest_witness(171, 3, all_spec, table_1k)  # 25 + 25 + 121
        assert w == (5, 5, 11)
        from collections import Counter

        orbit = math.factorial(3)
        for mult in Counter(w).values():
            orbit //= math.factorial(mult)
        assert counts[171] % orbit == 0


class TestFindWitness:
    """Smallest witnesses: lex_smallest_sum over the member squares."""

    def test_all_fives(self, table_1k, all_spec):
        assert smallest_witness(200, 8, all_spec, table_1k) == (5,) * 8

    def test_five_seven(self, table_1k, all_spec):
        assert smallest_witness(74, 2, all_spec, table_1k) == (5, 7)

    def test_none_when_impossible(self, table_1k, all_spec):
        assert smallest_witness(100, 2, all_spec, table_1k) is None

    def test_lexicographically_smallest(self, table_1k, all_spec):
        assert smallest_witness(290, 2, all_spec, table_1k) == (11, 13)

    def test_respects_subset(self, table_1k):
        spec = PrimeSubsetSpec.explicit([7, 11])
        assert smallest_witness(170, 2, spec, table_1k) == (7, 11)  # 49 + 121
        assert smallest_witness(74, 2, spec, table_1k) is None

    def test_witness_validates(self, table_1k, all_spec):
        for n in (224, 1088, 4328):
            w = smallest_witness(n, 8, all_spec, table_1k)
            assert w is not None
            assert sum(p * p for p in w) == n
            assert all(table_1k.is_prime(p) for p in w)
            assert list(w) == sorted(w)

    @settings(max_examples=60, deadline=None)
    @given(small_specs(), st.integers(1, 4), st.integers(0, 3000))
    def test_matches_brute_force_smallest(self, spec, s, n):
        table = sieve(100)
        assert smallest_witness(n, s, spec, table) == brute_smallest(n, s, spec, table)


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
            assert w.primes == brute_smallest(w.n, s, spec, table)

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

    def test_witness_reach_capped_at_last_sample(self, table_1k, all_spec, monkeypatch):
        import psqlab.representations as reprs

        caps = []
        real_reach = reprs.Reach

        def recording(supports, cap=0, modulus=None):
            caps.append(cap)
            return real_reach(supports, cap, modulus)

        monkeypatch.setattr(reprs, "Reach", recording)
        report = theorem_experiment(8, all_spec, (5000, 400_000), table_1k)
        assert len(report.sample_witnesses) == 3
        assert caps == [(report.sample_witnesses[-1].n - 8) // 24]
        caps.clear()
        theorem_experiment(8, all_spec, (5000, 400_000), table_1k, sample_limit=0)
        theorem_experiment(8, all_spec, (8, 199), table_1k)  # every target an exception
        assert caps == []

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
