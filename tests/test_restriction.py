import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import as_sequence
from psqlab._gridfft import grid_transform
from psqlab.arith import divisor_count
from psqlab.errors import TooLarge
from psqlab.expsums import dft_at
from psqlab.restriction import (
    dyadic_profile,
    fourth_moment_routes,
    level_sets,
    lq_moment,
    pair_difference_counts,
)
from psqlab.primes import PrimeSubsetSpec
from psqlab.wtrick import WeightedSequence, f_sequence, nu_sequence


def autocorrelation_dict_loop(arr, N):
    """The autocorrelation route as a per-pair dict loop, which the bincount
    route replaced.  It runs on Python floats, the same IEEE doubles, for
    speed; the squares are added one by one because sum() of Python floats
    compensates its rounding from Python 3.12 on."""
    support = np.flatnonzero(arr).tolist()
    vals = arr[support].tolist()
    acc = {}
    for i, m in enumerate(support):
        for j, n in enumerate(support):
            k = m - n
            acc[k] = acc.get(k, 0.0) + vals[i] * vals[j]
    total = 0.0
    for v in acc.values():
        total += v * v
    return N * total


def _sparse_example(n_points, N, seed):
    rng = np.random.default_rng(seed)
    where = rng.choice(np.arange(1, N + 1), n_points, replace=False)
    weights = rng.standard_normal(n_points) * 10.0 ** rng.integers(-12, 12, n_points)
    return N, dict(zip(where.tolist(), weights.tolist()))


# weights of both signs spread over many magnitudes
_mixed_weights = st.builds(
    lambda m, e: m * 2.0**e, st.floats(-1, 1, allow_nan=False), st.integers(-60, 60)
)


class TestLevelSets:
    def test_zero_sequence(self):
        counts, bounds = level_sets(as_sequence(np.zeros(64)), [1.0, 0.5, 0.25])
        assert counts == (0, 0, 0)
        assert bounds == (0.0, 0.0, 0.0)

    def test_above_sup_is_zero(self, ctx4):
        seq = nu_sequence(ctx4, 1, 512)
        sup = max(abs(dft_at(seq, n / 512)) for n in range(0, 512, 7))
        counts, _ = level_sets(seq, [2 * sup / 512])
        assert counts == (0,)

    def test_against_direct_scan(self, ctx6, all_spec):
        N = 1 << 12
        seq = f_sequence(ctx6, 1, N, all_spec)
        levels = [0.5, 0.1, 0.02, 0.004]
        counts, _ = level_sets(seq, levels)
        mags = np.array([abs(dft_at(seq, n / N)) for n in range(N)])
        for u, count in zip(levels, counts):
            assert count == int(np.count_nonzero(mags >= u * N))

    def test_monotone_and_bounded(self, ctx6, all_spec):
        N = 1 << 10
        seq = f_sequence(ctx6, 49, N, all_spec)
        levels = [2.0**k for k in range(0, -12, -1)]
        counts, _ = level_sets(seq, levels)
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert all(c <= N for c in counts)

    def test_chebyshev_column_dominates(self, ctx6, all_spec):
        seq = f_sequence(ctx6, 1, 1 << 10, all_spec)
        for count, bound in zip(*level_sets(seq, [0.5, 0.1, 0.05, 0.01])):
            assert count <= bound + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            level_sets(as_sequence(np.ones(8)), [0.5, 0.5])
        with pytest.raises(ValueError):
            level_sets(as_sequence(np.ones(8)), [0.1, -0.2])


class TestFourthMoment:
    def test_unit_impulse(self):
        arr = np.zeros(128)
        arr[3] = 1.0
        assert fourth_moment_routes(as_sequence(arr)) == pytest.approx((128.0, 128.0))

    def test_two_point_sequence(self):
        arr = np.zeros(64)
        arr[0] = arr[1] = 1.0
        # autocorrelation (1, 2, 1) gives N * (1 + 4 + 1)
        assert fourth_moment_routes(as_sequence(arr)) == pytest.approx((6 * 64.0, 6 * 64.0))

    def test_weighted_sequence_input(self, ctx6, all_spec):
        seq = f_sequence(ctx6, 1, 1 << 12, all_spec)
        grid_route, auto_route = fourth_moment_routes(seq)
        assert grid_route == pytest.approx(auto_route, rel=1e-9)
        # a second call reads the grid the sequence kept and gives the same bits
        assert fourth_moment_routes(seq) == (grid_route, auto_route)

    def test_dense_route_past_budget_raises_before_either_route(self, monkeypatch):
        # 2001 support points, one past MAX_AUTOCORRELATION_SUPPORT, at any span
        import psqlab.restriction as restriction

        def unreachable(*args, **kwargs):
            raise AssertionError("a route ran past the budget")

        monkeypatch.setattr(np.fft, "fft", unreachable)
        monkeypatch.setattr(restriction, "_sparse_autocorrelation_energy", unreachable)
        for N in (2001, 10**6):
            arr = np.zeros(N)
            arr[np.linspace(0, N - 1, 2001).astype(np.int64)] = 1.0
            with pytest.raises(TooLarge, match="2001 support points over budget 2000"):
                fourth_moment_routes(as_sequence(arr))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 5000).flatmap(
            lambda N: st.tuples(
                st.just(N), st.dictionaries(st.integers(1, N), _mixed_weights, max_size=60)
            )
        )
    )
    @example((10, {}))
    @example((1, {1: -3.5}))
    @example((7, {3: 1e-150, 5: -1e70}))
    @example(_sparse_example(2000, 100_000, 11))
    def test_autocorrelation_route_bitwise_equal_dict_loop(self, case):
        N, points = case
        values = np.zeros(N + 1)
        values[list(points)] = list(points.values())
        _, auto_route = fourth_moment_routes(WeightedSequence(N, values))
        want = autocorrelation_dict_loop(values, N)
        assert np.float64(auto_route).view(np.uint64) == np.float64(want).view(np.uint64)

    @settings(max_examples=40)
    @given(
        arrays(
            np.float64,
            st.integers(16, 200),
            elements=st.floats(-5, 5, allow_nan=False, width=32),
        )
    )
    def test_routes_agree_on_arbitrary_real_sequences(self, arr):
        grid_route, auto_route = fourth_moment_routes(as_sequence(arr))
        scale = max(abs(grid_route), abs(auto_route), 1.0)
        assert abs(grid_route - auto_route) <= 1e-9 * scale


class TestSharedGrids:
    """A sequence's |transform| grids are computed once per length and reused
    only where the inputs are the same, so every figure keeps its bits."""

    @staticmethod
    def separate_ffts(seq, q_exponent, K):
        """Fourth-moment grid route and L^q moment, each from its own FFT."""
        arr, N = seq.values, seq.N
        L = 1 << (2 * len(arr) - 1).bit_length()
        route_grid = N * float(np.sum(np.abs(np.fft.fft(arr, L)) ** 4)) / L
        mags = np.abs(grid_transform(arr, N, K))
        return route_grid, float(np.sum(mags**q_exponent)) / (K * N)

    @pytest.mark.parametrize(
        "N, K", [(4096, 4), (3000, 4), (2048, 2), (1000, 3), (3000, 8), (4096, 1)]
    )
    def test_bitwise_equal_separate_ffts(self, ctx6, N, K):
        spec = PrimeSubsetSpec.bernoulli(0.9, 3)
        seq = f_sequence(ctx6, 49, N, spec)
        route_grid, _ = fourth_moment_routes(seq)
        moment = lq_moment(seq, 5.0, K)["moment"]
        want_grid, want_moment = self.separate_ffts(seq, 5.0, K)
        assert np.float64(route_grid).view(np.uint64) == np.float64(want_grid).view(np.uint64)
        assert np.float64(moment).view(np.uint64) == np.float64(want_moment).view(np.uint64)

    def test_nonzero_padding_slot_is_rejected(self):
        # the padding slot is part of every grid's FFT input, so it must be 0
        values = np.zeros(1025)
        values[[3, 700]] = [1.0, 2.0]
        for slot in (5.0, -1e-300, np.nan):
            values[0] = slot
            with pytest.raises(ValueError, match="padding slot values\\[0\\] must be 0"):
                WeightedSequence(1024, values)

    def test_memo_is_read_only(self, ctx6, all_spec):
        seq = f_sequence(ctx6, 49, 512, all_spec)
        mags = seq.grid_magnitudes(4)
        assert seq.grid_magnitudes(4) is mags
        assert not mags.flags.writeable and not seq.values.flags.writeable
        with pytest.raises(ValueError):
            seq.values[1] = 1.0

    def test_values_are_a_private_copy(self):
        # writes through the caller's view, or through its base, stay writable
        # and do not reach a grid that is already memoised
        base = np.zeros(2 * 1025)
        view = base[::2]
        view[[3, 700]] = [1.0, 2.0]
        seq = WeightedSequence(1024, view)
        before = lq_moment(seq, 5.0, 4)["moment"]  # fills the memo
        base[6] = 50.0  # view[3]
        view[700] = 0.0
        assert seq.values[3] == 1.0 and seq.values[700] == 2.0
        clean = np.zeros(1025)
        clean[[3, 700]] = [1.0, 2.0]
        want = lq_moment(WeightedSequence(1024, clean), 5.0, 4)["moment"]
        for got in (before, lq_moment(seq, 5.0, 4)["moment"]):
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    @pytest.mark.parametrize("length", [1024, 1026, 2 * 1025])
    def test_rejects_values_not_of_length_n_plus_one(self, length):
        with pytest.raises(ValueError, match="length N \\+ 1 = 1025"):
            WeightedSequence(1024, np.zeros(length))

    def test_memo_holds_one_grid(self, ctx6, all_spec):
        # moments at K != L/N: the fourth moment's grid is dropped before
        # lq_moment transforms, so at most one grid is ever resident
        seq = f_sequence(ctx6, 49, 512, all_spec)
        four = seq.grid_magnitudes(4)
        two = seq.grid_magnitudes(2)
        assert list(seq._grids) == [2] and seq._grids[2] is two
        again = seq.grid_magnitudes(4)
        assert again is not four and np.array_equal(again, four)


class TestPairGaps:
    def test_empty_support(self):
        table = pair_difference_counts(as_sequence(np.zeros(32)))
        assert table.rows == ()
        assert table.violations == ()

    def test_gap_counts_match_brute_force(self, ctx4):
        seq = nu_sequence(ctx4, 1, 1000)
        table = pair_difference_counts(seq)
        support = seq.support().tolist()
        brute = {}
        for m in support:
            for n in support:
                if m > n:
                    brute[m - n] = brute.get(m - n, 0) + 1
        assert {r.k: r.count for r in table.rows} == brute

    def test_flags_divisor_bound_excess(self, ctx4):
        # gap 5 carries three support pairs (13/7, 17/13, 31/29 squared),
        # one more than tau(5): the table must flag it
        seq = nu_sequence(ctx4, 1, 1000)
        table = pair_difference_counts(seq)
        row5 = next(r for r in table.rows if r.k == 5)
        assert (row5.count, row5.tau) == (3, 2)
        assert 5 in table.violations

    def test_pair_matrix_past_budget_raises_before_allocating(self):
        # 4097^2 > MAX_CONV_LEN = 2^24 cells; the int64 matrix would be 134 MB
        seq = as_sequence(np.ones(4097))
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
        for b in ctx.Z_W:
            seq = nu_sequence(ctx, b, 10_000)
            gaps = pair_difference_counts(seq)
            for row in gaps.rows:
                assert row.count <= divisor_count(ctx.W * row.k)


class TestLqMoment:
    def test_zero_sequence(self):
        assert lq_moment(as_sequence(np.zeros(64)), 5.0)["moment"] == 0.0

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            lq_moment(as_sequence(np.ones(16)), 4.0)

    def test_dirichlet_kernel_ratio_stable(self):
        ratios = [lq_moment(as_sequence(np.ones(1 << k)), 5.0, K=4)["ratio"] for k in (10, 12, 14)]
        assert ratios[0] == pytest.approx(0.599623, abs=1e-4)
        assert max(ratios) / min(ratios) < 1.01

    def test_ratio_definition(self, ctx6, all_spec):
        seq = f_sequence(ctx6, 1, 1 << 10, all_spec)
        rep = lq_moment(seq, 5.0, K=2)
        assert rep["ratio"] == rep["moment"] / rep["normalizer"]
        assert rep["normalizer"] == (1 << 10) ** 4.0
        assert (rep["N"], rep["K"], rep["q_exponent"]) == (1 << 10, 2, 5.0)
        assert type(lq_moment(seq, 5, K=2)["q_exponent"]) is float


class TestDyadicProfile:
    def test_unit_impulse(self):
        N = 256
        arr = np.zeros(N)
        arr[5] = 1.0
        prof = dyadic_profile(as_sequence(arr))
        for u, c in zip(prof.levels, prof.counts):
            assert c == (N if u <= 1 / N else 0)

    def test_counts_nonincreasing_in_u(self, ctx6, all_spec):
        seq = f_sequence(ctx6, 1, 1 << 12, all_spec)
        prof = dyadic_profile(seq)
        assert all(a <= b for a, b in zip(prof.counts, prof.counts[1:]))

    def test_slope_steeper_than_reference(self, ctx6, all_spec):
        N = 1 << 18
        seq = f_sequence(ctx6, 1, N, all_spec)
        prof = dyadic_profile(seq)
        assert prof.slope is not None
        assert prof.slope <= -3.0
        assert prof.ref_slope_moment == -4.0
        assert prof.ref_slope_target == -4.5
