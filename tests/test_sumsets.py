import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CyclicSumset
from psqlab.arith import factorize
from psqlab.errors import TooLarge
from psqlab.sumsets import exhaustive_lemma_check, verify_cover
from psqlab.wtrick import build_context

SQUAREFREE = [q for q in range(2, 4000) if all(e == 1 for _, e in factorize(q))]


def mask(q, members):
    out = np.zeros(q, dtype=bool)
    out[[m % q for m in members]] = True
    return out


def members(m):
    return np.flatnonzero(m).tolist()


def downset(a, q):
    """Oracle: mask of all b in Z_q, q squarefree, with every CRT coordinate
    at most the coordinate of a."""
    pairs = factorize(q)
    if any(e > 1 for _, e in pairs):
        raise ValueError(f"{q} is not squarefree")
    idx = np.arange(q)
    keep = np.ones(q, dtype=bool)
    for p, _ in pairs:
        keep &= (idx % p) <= (a % p)
    return keep


def is_downset(S):
    """Oracle: closed under decreasing any single CRT coordinate by one."""
    q = len(S)
    idx = np.arange(q)
    for p, _ in factorize(q):
        step = (q // p) * pow(q // p, -1, p)  # 1 mod p, 0 mod q / p
        src = np.flatnonzero(S & ((idx % p) > 0))
        if np.any(~S[(src - step) % q]):
            return False
    return True


def middle(primes):
    """The residue mod prod(primes) that is (p - 1) / 2 mod each p."""
    q = math.prod(primes)
    return next(x for x in range(q) if all(x % p == (p - 1) // 2 for p in primes))


def brute_fold(q, elems, n):
    """{x_1 + ... + x_n mod q : x_j in elems} by iterated set addition."""
    acc = {0}
    for _ in range(n):
        acc = {(x + y) % q for x in acc for y in elems}
    return acc


class TestDownset:
    """The downset and is_downset oracles of TestSumset and TestProofDevices."""

    def test_zero(self):
        assert members(downset(0, 15)) == [0]

    def test_not_squarefree(self):
        with pytest.raises(ValueError):
            downset(1, 12)

    def test_full_box(self):
        # coordinates (2, 4) mod 15 give the whole ring
        assert downset(14, 15).all()

    def test_seven_mod_fifteen(self):
        d = downset(7, 15)
        assert np.count_nonzero(d) == 2 * 3 == 6
        want = {
            b
            for b in range(15)
            if b % 3 <= 7 % 3 and b % 5 <= 7 % 5
        }
        assert set(members(d)) == want

    @given(st.sampled_from(SQUAREFREE), st.integers(0, 10**6))
    def test_size_formula_and_closure(self, q, a):
        a %= q
        d = downset(a, q)
        expected = math.prod((a % p) + 1 for p, _ in factorize(q))
        assert np.count_nonzero(d) == expected
        assert is_downset(d)

    def test_not_downset(self):
        # 4 = (1, 4) mod (3, 5) without (0, 4) = 4 - 10 = 9 mod 15
        assert not is_downset(mask(15, [0, 4]))


class TestSumset:
    """Residue sumsets mod q: the top layer of the roll-OR reference
    CyclicSumset(supports, q), which the cover tests compare against."""

    def test_identity_element(self):
        A = mask(9, [1, 3, 7])
        assert np.array_equal(CyclicSumset([members(A), [0]], 9).layers[0], A)

    def test_small_example(self):
        assert members(CyclicSumset([[0, 1]] * 2, 5).layers[0]) == [0, 1, 2]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 300),
        st.lists(st.integers(0, 10**6), max_size=25),
        st.integers(1, 8),
    )
    @example(35, [1, 4, 9], 2)
    @example(21, [2, 20], 2)
    @example(30, [0, 7, 11, 29], 2)
    def test_against_brute_force(self, q, elems, n):
        total = CyclicSumset([members(mask(q, elems))] * n, q).layers[0]
        assert total.dtype == bool and len(total) == q
        assert set(members(total)) == brute_fold(q, {e % q for e in elems}, n)

    @settings(max_examples=60)
    @given(
        st.sampled_from([q for q in SQUAREFREE if q <= 1000]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )
    def test_sum_of_downsets_is_downset(self, q, a, b):
        supports = [members(downset(a % q, q)), members(downset(b % q, q))]
        total = CyclicSumset(supports, q).layers[0]
        assert is_downset(total)

    def test_n_fold_matches_iteration(self):
        A = [1, 5]
        folded = A
        for _ in range(7):
            folded = members(CyclicSumset([folded, A], 13).layers[0])
        assert members(CyclicSumset([A] * 8, 13).layers[0]) == folded


class TestVerifyCover:
    def test_w6_full_z_covers(self, ctx6):
        report = verify_cover(ctx6, ctx6.Z_W)
        assert report["covered"]
        assert report["missing"] == []
        # 8-fold sums of {1, 49} land exactly on {8 + 48k mod 120}
        total = CyclicSumset([list(ctx6.Z_W)] * 8, 120).layers[0]
        assert members(total) == [8, 32, 56, 80, 104]
        assert report["sumset_size"] == 5

    def test_members_reduced_sorted_unique(self, ctx6):
        report = verify_cover(ctx6, [169, 49, 1, 121])
        assert report["e_members"] == [1, 49]
        assert all(type(m) is int for m in report["e_members"])

    def test_empty_set_covers_nothing(self, ctx6):
        report = verify_cover(ctx6, [])
        assert not report["covered"]
        assert report["missing"] == [8, 32, 56, 80, 104]
        assert report["sumset_size"] == 0

    def test_w4_singleton(self, ctx4):
        report = verify_cover(ctx4, [1])
        assert report["covered"]
        assert report["e_members"] == [1]

    def test_rejects_non_z_members(self, ctx6):
        with pytest.raises(ValueError):
            verify_cover(ctx6, [7])

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([12, 14]).map(build_context), st.randoms(use_true_random=False), st.data())
    def test_matches_roll_or_reference_past_exhaustive_range(self, ctx, rng, data):
        # W/24 = 385 and 5005, past the |Z(W)| <= 22 that sumset-verify reaches:
        # the 8-fold sumset mod W itself, by roll-OR, against the k-line fold
        z = ctx.Z_W
        size = data.draw(st.sampled_from([0, 1, 2, 5, len(z) // 4, len(z) // 2, len(z) // 2 + 1, len(z)]))
        E = rng.sample(z, size)
        total = CyclicSumset([E] * 8, ctx.W).layers[0]
        missing = [r for r in range(8, ctx.W, 24) if not total[r]]
        report = verify_cover(ctx, E)
        assert report["covered"] == (not missing)
        assert report["missing"] == missing
        assert report["sumset_size"] == np.count_nonzero(total)



class TestExhaustive:
    def test_w4(self, ctx4):
        report = exhaustive_lemma_check(ctx4)
        assert report["subsets_checked"] == 1
        assert report["failures"] == []

    def test_w6(self, ctx6):
        report = exhaustive_lemma_check(ctx6)
        assert report["subsets_checked"] == 1  # only E = Z(W) has size > 1
        assert report["failures"] == []

    def test_w8(self, ctx8):
        report = exhaustive_lemma_check(ctx8)
        assert report["subsets_checked"] == sum(
            math.comb(6, k) for k in (4, 5, 6)
        )
        assert report["failures"] == []

    def test_json_schema(self, ctx6):
        blob = exhaustive_lemma_check(ctx6)
        assert set(blob) == {"w", "W", "z_size", "subsets_checked", "failures"}

    def test_too_large(self):
        ctx12 = build_context(12)
        assert len(ctx12.Z_W) == 30
        with pytest.raises(TooLarge):
            exhaustive_lemma_check(ctx12)


class TestProofDevices:
    """Structural facts used by the covering argument, checked directly."""

    @pytest.mark.parametrize("w", [6, 8, 10])
    def test_middle_element_downset_size(self, w):
        ctx = build_context(w)
        Wp = ctx.W // 24
        u = middle([p for p, _ in factorize(Wp)])
        d = downset(u - 1, Wp)
        z_wp = {pow(x, 2, Wp) for x in range(1, Wp) if math.gcd(x, Wp) == 1}
        assert np.count_nonzero(d) == len(z_wp) == len(ctx.Z_W)

    @pytest.mark.parametrize("w", [6, 8])
    def test_four_fold_middle_downset_fills_ring(self, w):
        ctx = build_context(w)
        Wp = ctx.W // 24
        u = middle([p for p, _ in factorize(Wp)])
        assert CyclicSumset([members(downset(u - 1, Wp))] * 4, Wp).layers[0].all()

    @pytest.mark.parametrize("w", [6, 8])
    def test_reduction_view_agrees(self, w):
        # covering mod W is equivalent to filling the ring mod W'
        ctx = build_context(w)
        Wp = ctx.W // 24
        half = len(ctx.Z_W) // 2 + 1
        for combo in itertools.islice(itertools.combinations(ctx.Z_W, half), 8):
            reduced = mask(Wp, combo)
            assert np.count_nonzero(reduced) == half  # reduction mod W' is injective on Z(W)
            filled = CyclicSumset([members(reduced)] * 8, Wp).layers[0].all()
            assert filled == verify_cover(ctx, combo)["covered"]
