import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_line

from psqlab._gridfft import lex_smallest_sum, scan_mask
from psqlab.errors import Infeasible, NotFound, TooLarge, VerificationError
from psqlab.primes import PrimeSubsetSpec, sieve, subset_members
from psqlab.representations import (
    MAX_CONV_LEN,
    count_budget,
    count_representations,
    lambda_threshold,
    m_window_deviation,
    member_roots,
    scan_lattice,
    square_progression,
    theorem_experiment,
    transfer_witness,
    window_length,
)
from psqlab.wtrick import build_context


def brute_force_counts(limit, s, spec, primes):
    """Ordered tuple counts by nested enumeration."""
    squares = [int(p) ** 2 for p in subset_members(spec, primes) if int(p) ** 2 <= limit]
    counts = np.zeros(limit + 1, dtype=np.int64)
    for combo in itertools.product(squares, repeat=s):
        total = sum(combo)
        if total <= limit:
            counts[total] += 1
    return counts


def brute_smallest(n, s, spec, primes):
    """The lexicographically smallest nondecreasing s-tuple of subset primes
    whose squares sum to n, by enumeration, or None."""
    members = [int(p) for p in subset_members(spec, primes) if p * p <= n]
    return next(
        (c for c in itertools.combinations_with_replacement(members, s)
         if sum(p * p for p in c) == n),
        None,
    )


def smallest_witness(n, s, spec):
    """The primes of the lexicographically smallest s-tuple of member squares
    summing to n, from lex_smallest_sum over [0, n], or None.  The smallest
    ordered tuple is nondecreasing, since its sorted copy is a solution too."""
    squares = member_roots(spec, max(n, 0)) ** 2
    [found] = lex_smallest_sum([squares] * s, [n])
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

    def test_small(self, all_spec):
        ind = count_line(count_representations(30, 1, all_spec))
        assert list(ind) == [0] * 25 + [1] + [0] * 5

    def test_medium(self, all_spec):
        ind = count_line(count_representations(130, 1, all_spec))
        assert list(np.flatnonzero(ind)) == [25, 49, 121]
        assert set(ind.tolist()) == {0, 1}
        assert list(member_roots(all_spec, 130)) == [5, 7, 11]

    def test_empty_subset(self):
        ind = count_line(count_representations(100, 1, PrimeSubsetSpec.explicit([])))
        assert len(ind) == 101 and not ind.any()

    def test_member_roots_edges(self, all_spec):
        assert member_roots(all_spec, 101**2 - 1)[-1] == 97
        assert member_roots(all_spec, 101**2)[-1] == 101
        assert len(member_roots(all_spec, 24)) == 0 and len(member_roots(all_spec, 0)) == 0
        with pytest.raises(ValueError):
            member_roots(all_spec, -1)

    @settings(max_examples=60, deadline=None)
    @given(small_specs(), st.integers(0, 4_000_000))
    def test_member_roots_match_the_full_table(self, spec, hi):
        members = subset_members(spec, sieve(2000))
        got = member_roots(spec, hi)
        assert got.dtype == np.int64
        assert np.array_equal(got, members[members <= math.isqrt(hi)])


class TestLambdaThreshold:
    def test_reference_values(self):
        assert lambda_threshold(8) == pytest.approx(math.sqrt(3) / 2)
        assert lambda_threshold(16) == pytest.approx(1 / math.sqrt(2))
        assert lambda_threshold(40) == lambda_threshold(16)


class TestCountRepresentations:
    @pytest.mark.parametrize("s", [2, 3])
    def test_matches_brute_force(self, s, primes_1k, all_spec):
        limit = 2000
        table = count_representations(limit, s, all_spec)
        brute = brute_force_counts(limit, s, all_spec, primes_1k)
        assert np.array_equal(count_line(table), brute)

    def test_two_squares_of_74(self, all_spec):
        counts = count_line(count_representations(100, 2, all_spec))
        assert counts[74] == 2  # (5,7) and (7,5)
        assert counts[50] == 1  # (5,5)

    def test_eight_fives(self, all_spec):
        counts = count_line(count_representations(200, 8, all_spec))
        assert counts[200] >= 1

    def test_congruence_vanishing(self, all_spec):
        counts = count_line(count_representations(3000, 8, all_spec))
        ns = np.arange(3001)
        assert not counts[ns % 24 != 8].any()

    def test_agrees_with_repeated_plain_convolution(self, all_spec):
        limit = 20_000
        ind = count_line(count_representations(limit, 1, all_spec))
        want = ind.copy()
        for _ in range(2):
            want = np.convolve(want, ind)[: limit + 1]
        got = count_line(count_representations(limit, 3, all_spec))
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(small_specs(), st.integers(1, 5), st.integers(0, 400))
    # the squares' progression at its edges: g = 1 (2 and 3 admitted), one
    # member, none, g = 120 (squares on 121 + 120Z), every sum past the range
    @example(PrimeSubsetSpec.all_primes(min_prime=2), 3, 400)
    @example(PrimeSubsetSpec.explicit([7]), 4, 400)
    @example(PrimeSubsetSpec.explicit([]), 3, 400)
    @example(PrimeSubsetSpec.residue_classes(5, [1, 4]), 3, 8000)
    @example(PrimeSubsetSpec.explicit([11, 13]), 4, 400)
    def test_matches_brute_force_any_spec(self, spec, s, limit):
        got = count_line(count_representations(limit, s, spec))
        assert len(got) == limit + 1
        assert np.array_equal(got, brute_force_counts(limit, s, spec, sieve(100)))

    def test_exact_past_int64(self):
        # a twos and 70 - a threes sum to 630 - 5a, in comb(70, a) orders;
        # comb(70, 35) is about 1.1e20 > 2^63
        spec = PrimeSubsetSpec.explicit([2, 3], min_prime=2)
        counts = count_line(count_representations(630, 70, spec))
        want = [0] * 631
        for a in range(71):
            want[630 - 5 * a] = math.comb(70, a)
        assert max(want) > 1 << 63
        assert [int(c) for c in counts] == want

    def test_exact_past_int64_on_lattice(self):
        # a fives and b = 70 - a sevens sum to 1750 + 24b, in comb(70, b)
        # orders: the object switch on the stride-24 lattice
        spec = PrimeSubsetSpec.explicit([5, 7])
        counts = count_line(count_representations(3430, 70, spec))
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

    def test_counts_divisible_by_orbit(self, all_spec):
        counts = count_line(count_representations(500, 3, all_spec))
        w = smallest_witness(171, 3, all_spec)  # 25 + 25 + 121
        assert w == (5, 5, 11)
        from collections import Counter

        orbit = math.factorial(3)
        for mult in Counter(w).values():
            orbit //= math.factorial(mult)
        assert counts[171] % orbit == 0


class TestFindWitness:
    """Smallest witnesses: lex_smallest_sum over the member squares."""

    def test_all_fives(self, all_spec):
        assert smallest_witness(200, 8, all_spec) == (5,) * 8

    def test_five_seven(self, all_spec):
        assert smallest_witness(74, 2, all_spec) == (5, 7)

    def test_none_when_impossible(self, all_spec):
        assert smallest_witness(100, 2, all_spec) is None

    def test_lexicographically_smallest(self, all_spec):
        assert smallest_witness(290, 2, all_spec) == (11, 13)

    def test_respects_subset(self):
        spec = PrimeSubsetSpec.explicit([7, 11])
        assert smallest_witness(170, 2, spec) == (7, 11)  # 49 + 121
        assert smallest_witness(74, 2, spec) is None

    def test_witness_validates(self, primes_1k, all_spec):
        for n in (224, 1088, 4328):
            w = smallest_witness(n, 8, all_spec)
            assert w is not None
            assert sum(p * p for p in w) == n
            assert np.all(np.isin(w, primes_1k))
            assert list(w) == sorted(w)

    @settings(max_examples=60, deadline=None)
    @given(small_specs(), st.integers(1, 4), st.integers(0, 3000))
    def test_matches_brute_force_smallest(self, spec, s, n):
        assert smallest_witness(n, s, spec) == brute_smallest(n, s, spec, sieve(100))


def target_array_scan(s, spec, n_range):
    """(exceptions, n_checked, sample witnesses) of theorem_experiment, by
    the scan it once ran: an array of every target n, their M = (n - s*m0)/g
    and a mask read at each M."""
    lo, hi = n_range
    m0, g, J = square_progression(spec, hi)
    first = lo + ((s - lo) % 24)
    targets = np.arange(first, hi + 1, 24, dtype=np.int64)
    M = targets - s * m0
    hit = (M >= 0) & (M % g == 0)
    M //= g
    np.clip(M, 0, None, out=M)
    hit &= scan_mask(J, s, max(hi - s * m0, 0) // g)[M]
    sampled = targets[hit][:3].tolist()
    found = lex_smallest_sum([J] * s, [(n - s * m0) // g for n in sampled])
    witnesses = [
        {"n": n, "primes": [math.isqrt(m0 + g * j) for j in js]} for n, js in zip(sampled, found)
    ]
    return targets[~hit].tolist(), len(targets), witnesses


@st.composite
def scan_specs(draw):
    """all (min_prime 2, 3, 5), residues mod 5, 7 or 11, bernoulli, and
    explicit lists: [2, 3] (g = 5), [5, 11] (g = 96, which does not divide
    24), one member or none."""
    kind = draw(st.sampled_from(["all", "residues", "bernoulli", "explicit"]))
    if kind == "all":
        return PrimeSubsetSpec.all_primes(draw(st.sampled_from([2, 3, 5])))
    if kind == "residues":
        q = draw(st.sampled_from([5, 7, 11]))
        return PrimeSubsetSpec.residue_classes(q, draw(st.sets(st.integers(1, q - 1), min_size=1)))
    if kind == "bernoulli":
        return PrimeSubsetSpec.bernoulli(draw(st.floats(0.3, 1.0)), draw(st.integers(0, 1000)))
    primes = draw(st.sampled_from([[], [5], [2, 3], [5, 11], [2], [3]]))
    return PrimeSubsetSpec.explicit(primes, min_prime=2)


class TestTheoremExperiment:
    @settings(max_examples=150, deadline=None)
    @given(
        scan_specs(),
        st.integers(1, 12),
        st.integers(5, 30_000),
        st.sampled_from(["equal", "zero", "below", "any"]),
        st.integers(0, 10**6),
    )
    @example(PrimeSubsetSpec.explicit([5, 11]), 8, 20_000, "below", 7)
    @example(PrimeSubsetSpec.explicit([2]), 3, 1007, "zero", 0)  # gcd(24, g) = 8 does not divide A
    @example(PrimeSubsetSpec.explicit([]), 5, 5000, "any", 123)
    @example(PrimeSubsetSpec.all_primes(min_prime=2), 12, 30_000, "below", 5)
    @example(PrimeSubsetSpec.residue_classes(5, [1, 4]), 10, 30_000, "zero", 0)
    def test_matches_the_target_array_scan(self, spec, s, hi, where, u):
        m0 = square_progression(spec, hi)[0]
        lo = {"equal": hi, "zero": 0, "below": u % min(s * m0, hi + 1), "any": u % (hi + 1)}[where]
        report = theorem_experiment(s, spec, (lo, hi))
        exceptions, n_checked, witnesses = target_array_scan(s, spec, (lo, hi))
        assert report["exceptions"].dtype == np.int64
        assert report["exceptions"].tolist() == exceptions
        assert report["n_checked"] == n_checked
        assert report["max_exception"] == (exceptions[-1] if exceptions else None)
        assert report["sample_witnesses"] == witnesses

    def test_scan_holds_no_target_length_array(self, all_spec):
        # 833,126 targets: an int64 array over them is 8 bytes each, and the
        # scan's peak stays under one; the exceptions of explicit:5 (every
        # target) stay one int64 array after the call
        hi = 2 * 10**7
        tracemalloc.start()
        try:
            report = theorem_experiment(8, all_spec, (5000, hi))
            peak = tracemalloc.get_traced_memory()[1]
            assert report["n_checked"] == 833_126
            assert peak < 8 * report["n_checked"]
            del report
            report = theorem_experiment(8, PrimeSubsetSpec.explicit([5]), (5000, hi))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(report["exceptions"]) == 833_126
        assert held <= 8 * len(report["exceptions"]) + (1 << 20)

    @settings(max_examples=60, deadline=None)
    @given(small_specs(), st.integers(1, 6), st.integers(0, 3000), st.integers(0, 2000))
    # as in test_matches_brute_force_any_spec: the squares' progression at its edges
    @example(PrimeSubsetSpec.all_primes(min_prime=2), 3, 400, 0)
    @example(PrimeSubsetSpec.explicit([7]), 4, 400, 0)
    @example(PrimeSubsetSpec.explicit([]), 3, 400, 0)
    @example(PrimeSubsetSpec.residue_classes(5, [1, 4]), 3, 8000, 0)
    @example(PrimeSubsetSpec.explicit([11, 13]), 4, 400, 0)
    def test_exceptions_are_zero_counts(self, spec, s, hi, lo):
        lo = min(lo, hi)
        if hi < spec.min_prime:  # 2, 3 or 5: no prime to measure the density by
            with pytest.raises(ValueError, match="density undefined"):
                theorem_experiment(s, spec, (lo, hi))
            return
        report = theorem_experiment(s, spec, (lo, hi))
        counts = count_line(count_representations(hi, s, spec))
        targets = range(lo + ((s - lo) % 24), hi + 1, 24)
        assert report["exceptions"].tolist() == [n for n in targets if counts[n] == 0]
        represented = [n for n in targets if counts[n] != 0]
        assert [w["n"] for w in report["sample_witnesses"]] == represented[:3]
        for w in report["sample_witnesses"]:
            assert tuple(w["primes"]) == brute_smallest(w["n"], s, spec, sieve(100))

    def test_scan_lattice_reach(self, all_spec):
        # stride 24: K takes a width of MAX_CONV_LEN / 2 cells, the widest
        # with 2 * width - 1 <= MAX_CONV_LEN
        reach = 8 + 24 * (MAX_CONV_LEN // 2 - 1) + 23
        scan_lattice(8, all_spec, reach)
        with pytest.raises(TooLarge):
            scan_lattice(8, all_spec, reach + 1)
        with pytest.raises(TooLarge):
            scan_lattice(8, PrimeSubsetSpec.all_primes(min_prime=2), MAX_CONV_LEN // 2)
        with pytest.raises(TooLarge):  # s + 1 layers of 4.2e6 cells each
            scan_lattice(80, all_spec, 10**8)

    def test_small_range_no_exceptions(self, all_spec):
        report = theorem_experiment(8, all_spec, (200, 20_000))
        assert report["exceptions"].tolist() == []
        assert report["max_exception"] is None
        assert report["n_checked"] == len(range(200, 20_001, 24))
        assert report["density_exceeds_threshold"] is True
        assert report["exploratory"] is False
        for w in report["sample_witnesses"]:
            assert sum(p * p for p in w["primes"]) == w["n"]

    def test_witness_search_asked_for_the_sampled_targets(self, all_spec, monkeypatch):
        import psqlab.representations as reprs

        calls = []
        real = reprs.lex_smallest_sum

        def recording(supports, targets):
            calls.append(list(targets))
            return real(supports, targets)

        monkeypatch.setattr(reprs, "lex_smallest_sum", recording)
        report = theorem_experiment(8, all_spec, (5000, 400_000))
        assert len(report["sample_witnesses"]) == 3
        # M of each sampled n = 8*5^2 + 24M, all in one search
        assert calls == [[(w["n"] - 8 * 25) // 24 for w in report["sample_witnesses"]]]
        calls.clear()
        theorem_experiment(8, all_spec, (8, 199))  # every target an exception
        assert calls == [[]]

    @pytest.mark.parametrize(
        "modulus, classes, m0, g",
        [(5, [1, 4], 121, 120), (5, [2, 3], 49, 120), (7, [1, 6], 169, 168)],
        ids=["residues5_1_4", "residues5_2_3", "residues7_1_6"],
    )
    def test_residue_obstruction_takes_the_descent(self, monkeypatch, modulus, classes, m0, g):
        # p = +-1 (mod 5) puts every square on 121 + 120Z (p = +-2 mod 5 on
        # 49 + 120Z, p = +-1 mod 7 on 169 + 168Z), so the scan runs on J and
        # its descent closes there: one dense layer, no sumset_power over the
        # whole reduced cap, and the exceptions of the plain sumset_power scan
        import psqlab._gridfft as gridfft
        import psqlab.representations as reprs

        powers = []
        real = gridfft.sumset_power
        monkeypatch.setattr(
            gridfft, "sumset_power", lambda sup, s, cap: powers.append((s, cap)) or real(sup, s, cap)
        )
        spec = PrimeSubsetSpec.residue_classes(modulus, classes)
        hi = 2_000_000
        report = theorem_experiment(10, spec, (0, hi))
        assert reprs.square_progression(spec, hi)[:2] == (m0, g)
        [(s_dense, top)] = powers
        assert s_dense == 9 and top < (hi - 10 * m0) // g
        monkeypatch.setattr(reprs, "scan_mask", real)
        plain = theorem_experiment(10, spec, (0, hi))
        assert report["exceptions"].tolist() == plain["exceptions"].tolist() and len(report["exceptions"]) > 0
        assert report["sample_witnesses"] == plain["sample_witnesses"]

    def test_unbacked_witness_raises(self, monkeypatch):
        # 10J misses M = 1 under residues:5:1,4; marked reachable, its target
        # n = 10 * 121 + 120 must fail the witness search, naming n
        import psqlab.representations as reprs

        real = reprs.scan_mask

        def flipped(ks, s, cap):
            mask = real(ks, s, cap).copy()
            mask[1] = True
            return mask

        monkeypatch.setattr(reprs, "scan_mask", flipped)
        with pytest.raises(VerificationError, match="n = 1330 "):
            theorem_experiment(10, PrimeSubsetSpec.residue_classes(5, [1, 4]), (0, 6000))

    def test_negative_start_raises_before_the_scan(self, all_spec, monkeypatch):
        import psqlab.representations as reprs

        def unreachable(*args):
            raise AssertionError("scanned a range that starts below 0")

        monkeypatch.setattr(reprs, "scan_lattice", unreachable)
        for lo in (-1, -5_000_000_000):
            with pytest.raises(ValueError, match="n >= 0"):
                theorem_experiment(8, all_spec, (lo, 300))

    def test_exceptions_reported_not_fatal(self, all_spec):
        # below 8 * 25 nothing is representable: every target is an exception
        report = theorem_experiment(8, all_spec, (8, 199))
        assert report["exceptions"].tolist() == list(range(8, 200, 24))
        assert report["max_exception"] == 176
        assert report["sample_witnesses"] == []

    def test_exploratory_flag(self, all_spec):
        report = theorem_experiment(4, all_spec, (100, 500))
        assert report["exploratory"] is True

    def test_json_fields(self, all_spec):
        blob = theorem_experiment(8, all_spec, (200, 1000))
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
        got = lex_smallest_sum([sup, sup, sup, sup], [9])
        assert got == [(1, 1, 2, 5)]

    def test_impossible_target(self):
        sup = np.array([1, 5])
        assert lex_smallest_sum([sup, sup], [100]) == [None]
        assert lex_smallest_sum([sup, np.array([], dtype=np.int64)], [2]) == [None]


class TestTransferWitness:
    def test_w4_round_trip(self, ctx4, all_spec):
        n = 10016
        w = transfer_witness(ctx4, n, 8, all_spec)
        assert set(w) == {"n", "primes", "residues", "indices", "m"} and w["n"] == n
        assert w["residues"] == [1] * 8
        assert sum(w["indices"]) == w["m"] == (n - 8) // 24
        assert all(24 * nj + 1 == p * p for nj, p in zip(w["indices"], w["primes"]))
        assert sum(p * p for p in w["primes"]) == n

    def test_w6_residues_match_squares(self, ctx6, all_spec):
        n = 48008
        w = transfer_witness(ctx6, n, 8, all_spec)
        assert set(w["residues"]) <= {1, 49}
        for b, nj, p in zip(w["residues"], w["indices"], w["primes"]):
            assert 120 * nj + b == p * p
            assert p * p % 120 == b
        assert sum(w["indices"]) == w["m"] == (n - sum(w["residues"])) // 120

    def test_searches_over_the_mask_alone_stay_far_under_the_step_cap(self, ctx6, all_spec, monkeypatch):
        # the index search of transfer --w 6 --n 1000000016 --s 8 and the
        # sample witnesses of the [1.9e8, 2e8] experiment fit no bitset level
        # above their pair-sum masks, so the DFS walks every level above the
        # mask and finishes greedily over it: both answer within 2^13 steps,
        # a 128th of MAX_SEARCH_STEPS (their reports are pinned by
        # tests/golden/transfer_w6_1e9.json and experiment_all_2e8.json)
        import psqlab._gridfft as gridfft

        monkeypatch.setattr(gridfft, "MAX_SEARCH_STEPS", 1 << 13)
        w = transfer_witness(ctx6, 1_000_000_016, 8, all_spec)
        assert w["indices"] == [1, 1, 1, 4095, 2082704, 2082704, 2082704, 2081123]
        result = theorem_experiment(8, all_spec, (190_000_000, 200_000_000))
        assert [x["primes"] for x in result["sample_witnesses"]] == [
            [5, 5, 5, 5, 5, 7, 8089, 11161],
            [5, 5, 5, 5, 7, 7, 8089, 11161],
            [5, 5, 5, 5, 5, 11, 863, 13757],
        ]

    @pytest.mark.parametrize(
        "search, steps",
        [
            ("transfer --w 6 --n 1000000016 --s 8", 214),
            ("experiment --s 8 --n-lo 190000000 --n-hi 200000000", 2302),
            ("transfer --w 12 --n 19377684488 --s 8 --spec bernoulli:0.9:7", 28_885),
        ],
    )
    def test_step_accounting_over_the_mask_alone(self, ctx6, all_spec, monkeypatch, search, steps):
        # with no bitset level above the mask, each value the walk tries
        # above it is one step, and the values tried from the mask down are
        # charged once, with the tuple: each search answers in exactly these
        # steps, so a cap one lower refuses it (the residue selections before
        # the transfers' index searches take at most 9 steps)
        import psqlab._gridfft as gridfft

        run = {
            "transfer --w 6 --n 1000000016 --s 8": lambda: transfer_witness(
                ctx6, 1_000_000_016, 8, all_spec
            ),
            "experiment --s 8 --n-lo 190000000 --n-hi 200000000": lambda: theorem_experiment(
                8, all_spec, (190_000_000, 200_000_000)
            ),
            "transfer --w 12 --n 19377684488 --s 8 --spec bernoulli:0.9:7": lambda: transfer_witness(
                build_context(12), 19_377_684_488, 8, PrimeSubsetSpec.bernoulli(0.9, 7)
            ),
        }[search]
        monkeypatch.setattr(gridfft, "MAX_SEARCH_STEPS", steps)
        run()
        monkeypatch.setattr(gridfft, "MAX_SEARCH_STEPS", steps - 1)
        with pytest.raises(TooLarge, match=f"past its cap of {steps - 1} steps"):
            run()

    def test_congruence_precondition(self, ctx4, all_spec):
        with pytest.raises(ValueError):
            transfer_witness(ctx4, 10000, 8, all_spec)

    def test_infeasible_for_empty_subset(self, ctx4):
        with pytest.raises(Infeasible):
            transfer_witness(ctx4, 10016, 8, PrimeSubsetSpec.explicit([]))

    def test_not_found_when_search_fails(self, ctx4, all_spec, monkeypatch):
        import psqlab.representations as reprs

        monkeypatch.setattr(reprs, "lex_smallest_sum", lambda sup, ts: [None] * len(ts))
        with pytest.raises(NotFound):
            transfer_witness(ctx4, 10016, 8, all_spec)

    @pytest.mark.parametrize("w, n", [(6, 48008), (10, 6720008), (12, 73920008)])
    def test_one_sieve_and_no_sequence(self, w, n, monkeypatch):
        # the densities and the supports both come from one progression table
        import psqlab.wtrick as wtrick

        calls = []

        def counted(*args):
            calls.append(args)
            return sieve(*args)

        def no_sequence(*args, **kwargs):
            raise AssertionError("transfer_witness built a WeightedSequence")

        monkeypatch.setattr(wtrick, "sieve", counted)
        monkeypatch.setattr(wtrick, "WeightedSequence", no_sequence)
        ctx = build_context(w)
        result = transfer_witness(ctx, n, 8, PrimeSubsetSpec.all_primes())
        assert sum(p * p for p in result["primes"]) == n
        assert len(calls) == 1

    def test_window_too_small(self, ctx6, all_spec):
        with pytest.raises(NotFound):
            transfer_witness(ctx6, 128, 8, all_spec)

    def test_m_window_deviation(self, ctx4, ctx6):
        # m/(s N / 2) stays within a modest window once n clears the scale
        assert m_window_deviation(ctx4, 10016, 8) < 0.2
        # no window below n = sW/2: no deviation, where it was math.inf
        assert window_length(ctx6, 200, 8) == 0
        assert m_window_deviation(ctx6, 200, 8) is None
