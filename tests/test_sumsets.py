import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqlab.arith import crt_combine, factorize
from psqlab.errors import ModulusMismatch, NotSquarefree, ZTooLarge
from psqlab.sumsets import (
    ResidueSet,
    downset,
    exhaustive_lemma_check,
    is_downset,
    n_fold_sumset,
    sumset,
    verify_cover,
)
from psqlab.wtrick import build_context

SQUAREFREE = [q for q in range(2, 4000) if factorize(q).is_squarefree()]


class TestDownset:
    def test_zero(self):
        assert downset(0, 15).members() == [0]

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            downset(1, 12)

    def test_full_box(self):
        # coordinates (2, 4) mod 15 give the whole ring
        a = crt_combine([(2, 3), (4, 5)])
        assert downset(a, 15).size() == 15

    def test_seven_mod_fifteen(self):
        d = downset(7, 15)
        assert d.size() == 2 * 3 == 6
        want = {
            b
            for b in range(15)
            if b % 3 <= 7 % 3 and b % 5 <= 7 % 5
        }
        assert set(d.members()) == want

    @given(st.sampled_from(SQUAREFREE), st.integers(0, 10**6))
    def test_size_formula_and_closure(self, q, a):
        a %= q
        d = downset(a, q)
        expected = math.prod((a % p) + 1 for p in factorize(q).primes)
        assert d.size() == expected
        assert is_downset(d)


class TestSumset:
    def test_identity_element(self):
        A = ResidueSet.from_members(9, [1, 3, 7])
        zero = ResidueSet.from_members(9, [0])
        assert sumset(A, zero).bits == A.bits

    def test_small_example(self):
        A = ResidueSet.from_members(5, [0, 1])
        assert set(sumset(A, A).members()) == {0, 1, 2}

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            sumset(ResidueSet.from_members(5, [1]), ResidueSet.from_members(7, [1]))

    def test_against_brute_force(self):
        rngpairs = [(35, [1, 4, 9]), (21, [2, 20]), (30, [0, 7, 11, 29])]
        for q, members in rngpairs:
            A = ResidueSet.from_members(q, members)
            brute = {(x + y) % q for x in members for y in members}
            assert set(sumset(A, A).members()) == brute

    @settings(max_examples=60)
    @given(
        st.sampled_from([q for q in SQUAREFREE if q <= 1000]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )
    def test_sum_of_downsets_is_downset(self, q, a, b):
        total = sumset(downset(a % q, q), downset(b % q, q))
        assert is_downset(total)

    def test_n_fold_matches_iteration(self):
        A = ResidueSet.from_members(13, [1, 5])
        folded = A
        for _ in range(7):
            folded = sumset(folded, A)
        assert n_fold_sumset(A, 8).bits == folded.bits


class TestVerifyCover:
    def test_w6_full_z_covers(self, ctx6):
        report = verify_cover(ctx6, ctx6.Z_W)
        assert report.covered
        assert report.missing == ()
        # 8-fold sums of {1, 49} land exactly on {8 + 48k mod 120}
        total = n_fold_sumset(ResidueSet.from_members(120, ctx6.Z_W), 8)
        assert set(total.members()) == {8, 32, 56, 80, 104}

    def test_empty_set_covers_nothing(self, ctx6):
        report = verify_cover(ctx6, [])
        assert not report.covered
        assert set(report.missing) == {8, 32, 56, 80, 104}

    def test_w4_singleton(self, ctx4):
        report = verify_cover(ctx4, [1])
        assert report.covered
        assert report.e_members == (1,)

    def test_rejects_non_z_members(self, ctx6):
        with pytest.raises(ValueError):
            verify_cover(ctx6, [7])

    def test_exploratory_fold_count(self, ctx6):
        # 4-fold sums of the full Z(W) cover the classes = 4 mod 24 at w = 6
        report = verify_cover(ctx6, ctx6.Z_W, folds=4)
        assert report.folds == 4
        assert report.covered


class TestExhaustive:
    def test_w4(self, ctx4):
        report = exhaustive_lemma_check(ctx4)
        assert report.subsets_checked == 1
        assert report.failures == ()

    def test_w6(self, ctx6):
        report = exhaustive_lemma_check(ctx6)
        assert report.subsets_checked == 1  # only E = Z(W) has size > 1
        assert report.failures == ()

    def test_w8(self, ctx8):
        report = exhaustive_lemma_check(ctx8)
        assert report.subsets_checked == sum(
            math.comb(6, k) for k in (4, 5, 6)
        )
        assert report.failures == ()

    def test_json_schema(self, ctx6):
        blob = exhaustive_lemma_check(ctx6).to_json()
        assert set(blob) == {"w", "W", "z_size", "subsets_checked", "failures"}

    def test_too_large(self):
        ctx12 = build_context(12)
        assert len(ctx12.Z_W) == 30
        with pytest.raises(ZTooLarge):
            exhaustive_lemma_check(ctx12)


class TestProofDevices:
    """Structural facts used by the covering argument, checked directly."""

    @pytest.mark.parametrize("w", [6, 8, 10])
    def test_middle_element_downset_size(self, w):
        ctx = build_context(w)
        Wp = ctx.W // 24
        primes = factorize(Wp).primes
        u = crt_combine([((p - 1) // 2, p) for p in primes])
        d = downset(u - 1, Wp)
        z_wp = {pow(x, 2, Wp) for x in range(1, Wp) if math.gcd(x, Wp) == 1}
        assert d.size() == len(z_wp) == len(ctx.Z_W)

    @pytest.mark.parametrize("w", [6, 8])
    def test_four_fold_middle_downset_fills_ring(self, w):
        ctx = build_context(w)
        Wp = ctx.W // 24
        primes = factorize(Wp).primes
        u = crt_combine([((p - 1) // 2, p) for p in primes])
        assert n_fold_sumset(downset(u - 1, Wp), 4).size() == Wp

    @pytest.mark.parametrize("w", [6, 8])
    def test_reduction_view_agrees(self, w):
        # covering mod W is equivalent to filling the ring mod W'
        ctx = build_context(w)
        Wp = ctx.W // 24
        half = len(ctx.Z_W) // 2 + 1
        for combo in itertools.islice(itertools.combinations(ctx.Z_W, half), 8):
            reduced = ResidueSet.from_members(Wp, [m % Wp for m in combo])
            assert reduced.size() == half  # reduction mod W' is injective on Z(W)
            filled = n_fold_sumset(reduced, 8).size() == Wp
            assert filled == verify_cover(ctx, combo).covered
