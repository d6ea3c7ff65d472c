import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import table_for
from psqlab.arith import divisor_count
from psqlab.errors import TooLarge
from psqlab.expsums import dft_at
from psqlab.restriction import (
    dyadic_profile,
    fourth_moment,
    fourth_moment_routes,
    level_sets,
    lq_moment,
    pair_difference_counts,
)
from psqlab.wtrick import WeightedSequence, f_sequence, nu_sequence


def make_seq(values01):
    arr = np.asarray(values01, dtype=float)
    return WeightedSequence(kind="subset", b=1, N=len(arr) - 1, W=24, values=arr)


class TestLevelSets:
    def test_zero_sequence(self):
        curve = level_sets(np.zeros(64), [1.0, 0.5, 0.25])
        assert curve.counts == (0, 0, 0)

    def test_above_sup_is_zero(self, ctx4, table_100k):
        seq = nu_sequence(ctx4, 1, 512, table_100k)
        sup = max(abs(dft_at(seq, n / 512)) for n in range(0, 512, 7))
        curve = level_sets(seq, [2 * sup / 512])
        assert curve.counts == (0,)

    def test_against_direct_scan(self, ctx6, table_100k, all_spec):
        N = 1 << 12
        seq = f_sequence(ctx6, 1, N, all_spec, table_100k)
        levels = [0.5, 0.1, 0.02, 0.004]
        curve = level_sets(seq, levels)
        mags = np.array([abs(dft_at(seq, n / N)) for n in range(N)])
        for u, count in zip(levels, curve.counts):
            assert count == int(np.count_nonzero(mags >= u * N))

    def test_monotone_and_bounded(self, ctx6, table_100k, all_spec):
        N = 1 << 10
        seq = f_sequence(ctx6, 49, N, all_spec, table_100k)
        levels = [2.0**k for k in range(0, -12, -1)]
        curve = level_sets(seq, levels)
        assert all(a <= b for a, b in zip(curve.counts, curve.counts[1:]))
        assert all(c <= N for c in curve.counts)

    def test_chebyshev_column_dominates(self, ctx6, table_100k, all_spec):
        seq = f_sequence(ctx6, 1, 1 << 10, all_spec, table_100k)
        curve = level_sets(seq, [0.5, 0.1, 0.05, 0.01])
        for count, bound in zip(curve.counts, curve.chebyshev_bound):
            assert count <= bound + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            level_sets(np.ones(8), [0.5, 0.5])
        with pytest.raises(ValueError):
            level_sets(np.ones(8), [0.1, -0.2])


class TestFourthMoment:
    def test_unit_impulse(self):
        arr = np.zeros(128)
        arr[3] = 1.0
        assert fourth_moment(arr) == pytest.approx(128.0)

    def test_two_point_sequence(self):
        arr = np.zeros(64)
        arr[0] = arr[1] = 1.0
        # autocorrelation (1, 2, 1) gives N * (1 + 4 + 1)
        assert fourth_moment(arr) == pytest.approx(6 * 64.0)

    def test_weighted_sequence_input(self, ctx6, table_100k, all_spec):
        seq = f_sequence(ctx6, 1, 1 << 12, all_spec, table_100k)
        grid_route, auto_route = fourth_moment_routes(seq)
        assert grid_route == pytest.approx(auto_route, rel=1e-9)
        assert fourth_moment(seq) == auto_route

    @settings(max_examples=40)
    @given(
        arrays(
            np.float64,
            st.integers(16, 200),
            elements=st.floats(-5, 5, allow_nan=False, width=32),
        )
    )
    def test_routes_agree_on_arbitrary_real_sequences(self, arr):
        grid_route, auto_route = fourth_moment_routes(arr)
        scale = max(abs(grid_route), abs(auto_route), 1.0)
        assert abs(grid_route - auto_route) <= 1e-9 * scale


class TestPairGaps:
    def test_empty_support(self):
        table = pair_difference_counts(make_seq(np.zeros(32)))
        assert table.rows == ()
        assert table.violations == ()

    def test_gap_counts_match_brute_force(self, ctx4, table_100k):
        seq = nu_sequence(ctx4, 1, 1000, table_100k)
        table = pair_difference_counts(seq)
        support = seq.support().tolist()
        brute = {}
        for m in support:
            for n in support:
                if m > n:
                    brute[m - n] = brute.get(m - n, 0) + 1
        assert {r.k: r.count for r in table.rows} == brute

    def test_flags_divisor_bound_excess(self, ctx4, table_100k):
        # gap 5 carries three support pairs (13/7, 17/13, 31/29 squared),
        # one more than tau(5): the table must flag it
        seq = nu_sequence(ctx4, 1, 1000, table_100k)
        table = pair_difference_counts(seq)
        row5 = next(r for r in table.rows if r.k == 5)
        assert (row5.count, row5.tau) == (3, 2)
        assert 5 in table.violations

    def test_pair_matrix_past_budget_raises_before_allocating(self):
        # 4097^2 > MAX_CONV_LEN = 2^24 cells; the int64 matrix would be 134 MB
        seq = make_seq(np.ones(4098))
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="over budget"):
                pair_difference_counts(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("w", [4, 6])
    def test_scaled_divisor_bound_holds(self, w):
        # counting d = x - y among divisors of W*k bounds every observed gap
        from psqlab.wtrick import build_context

        ctx = build_context(w)
        table = table_for(ctx, 10_000)
        for b in ctx.Z_W:
            seq = nu_sequence(ctx, b, 10_000, table)
            gaps = pair_difference_counts(seq)
            for row in gaps.rows:
                assert row.count <= divisor_count(ctx.W * row.k)


class TestLqMoment:
    def test_zero_sequence(self):
        assert lq_moment(np.zeros(64), 5.0).moment == 0.0

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            lq_moment(np.ones(16), 4.0)

    def test_dirichlet_kernel_ratio_stable(self):
        ratios = [lq_moment(np.ones(1 << k), 5.0, K=4).ratio for k in (10, 12, 14)]
        assert ratios[0] == pytest.approx(0.599623, abs=1e-4)
        assert max(ratios) / min(ratios) < 1.01

    def test_ratio_definition(self, ctx6, table_100k, all_spec):
        seq = f_sequence(ctx6, 1, 1 << 10, all_spec, table_100k)
        rep = lq_moment(seq, 5.0, K=2)
        assert rep.ratio == rep.moment / rep.normalizer
        assert rep.normalizer == (1 << 10) ** 4.0


class TestDyadicProfile:
    def test_unit_impulse(self):
        N = 256
        arr = np.zeros(N)
        arr[5] = 1.0
        prof = dyadic_profile(arr)
        for u, c in zip(prof.levels, prof.counts):
            assert c == (N if u <= 1 / N else 0)

    def test_counts_nonincreasing_in_u(self, ctx6, table_100k, all_spec):
        seq = f_sequence(ctx6, 1, 1 << 12, all_spec, table_100k)
        prof = dyadic_profile(seq)
        assert all(a <= b for a, b in zip(prof.counts, prof.counts[1:]))

    def test_slope_steeper_than_reference(self, ctx6, all_spec):
        N = 1 << 18
        table = table_for(ctx6, N)
        seq = f_sequence(ctx6, 1, N, all_spec, table)
        prof = dyadic_profile(seq)
        assert prof.slope is not None
        assert prof.slope <= -3.0
        assert prof.ref_slope_moment == -4.0
        assert prof.ref_slope_target == -4.5
