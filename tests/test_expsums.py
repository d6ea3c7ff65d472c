import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psqlab.expsums as expsums_mod
from conftest import gauss_row_gcd, table_for
from psqlab.arith import factorize, mod_inverse
from psqlab.errors import NotCoprime, QTooLarge, TooLarge
from psqlab.expsums import (
    LocalFactor,
    _case_tag,
    arc_partition,
    compare_major,
    dft_at,
    dft_grid,
    gauss_sum,
    gauss_sum_row,
    indicator_transform_grid,
    major_arc_model,
    minor_arc_scan,
    pseudorandom_sup,
    rational_approximation,
    s_closed,
    s_direct,
    unit_mask,
)
from psqlab.wtrick import WeightedSequence, nu_sequence


def make_seq(values01):
    arr = np.asarray(values01, dtype=float)
    return WeightedSequence(N=len(arr) - 1, values=arr)


def bits(z):
    """The float bits of a complex value, for bitwise comparisons."""
    return np.array([z], dtype=np.complex128).view(np.uint64).tolist()


def s_direct_one_unit(ctx, b, q, a):
    """The per-unit s_direct loop that the all-units evaluation replaced."""
    W = ctx.W
    table = np.exp(2j * np.pi * np.arange(q) / q)
    ls = np.arange(1, q + 1, dtype=np.int64)
    wmod = W % q
    amod = a % q
    total = 0j
    for h in ctx.root_map[b]:
        i_h = (h * h - b) // W  # exact: h^2 = b (mod W)
        hq = h % q
        ok = np.gcd((wmod * ls + hq) % q, q) == 1
        if not ok.any():
            continue
        lv = ls[ok]
        nums = (((i_h % q) * amod) % q + (wmod * lv * lv + 2 * hq * lv) * amod) % q
        total += complex(np.sum(table[nums]))
    return LocalFactor(q=q, a=a, value=total / ctx.H, case_tag=_case_tag(q, W))


def s_direct_gcd(ctx, b, q, units):
    """s_direct as it was with the np.gcd unit test, before unit_mask."""
    W = ctx.W
    table = np.exp(2j * np.pi * np.arange(q) / q)
    ls = np.arange(1, q + 1, dtype=np.int64)
    wmod = W % q
    totals = [0j] * len(units)
    step = max(1, expsums_mod._DIRECT_CELLS // q)
    for lo in range(0, len(units), step):
        amod = np.array(units[lo : lo + step], dtype=np.int64)[:, None] % q
        for h in ctx.root_map[b]:
            i_h = (h * h - b) // W
            hq = h % q
            ok = np.gcd((wmod * ls + hq) % q, q) == 1
            if not ok.any():
                continue
            lv = ls[ok]
            nums = (((i_h % q) * amod) % q + (wmod * lv * lv + 2 * hq * lv) * amod) % q
            for i, row in enumerate(np.sum(table[nums], axis=1).tolist(), lo):
                totals[i] += row
    return [t / ctx.H for t in totals]


def indicator_three_exp(N, K):
    """The indicator grid as first written, with three separate exp calls."""
    L = K * N
    k = np.arange(L)
    num = np.exp(2j * np.pi * (k % K) / K) - 1.0
    den = np.exp(2j * np.pi * k / L) - 1.0
    out = np.empty(L, dtype=complex)
    out[0] = N
    ratio = np.exp(2j * np.pi * k[1:] / L) * num[1:]
    out[1:] = ratio / den[1:]
    return out


def gauss_direct(k, r):
    if k == 1:
        return 1 + 0j
    return sum(
        cmath.exp(2j * cmath.pi * ((r * l * l) % k) / k)
        for l in range(1, k + 1)
        if math.gcd(l, k) == 1
    )


class TestDftAt:
    def test_zero_sequence(self):
        assert dft_at(make_seq([0] * 9), 0.37) == 0

    def test_indicator_at_zero(self):
        seq = make_seq([0] + [1] * 16)
        assert dft_at(seq, 0.0) == pytest.approx(16)

    def test_majorant_at_zero_matches_mean(self, ctx4, table_100k):
        N = 1 << 12
        seq = nu_sequence(ctx4, 1, N, table_100k)
        assert dft_at(seq, 0.0).real == pytest.approx(seq.total(), rel=1e-12)

    def test_periodic_in_alpha(self, ctx4, table_100k):
        seq = nu_sequence(ctx4, 1, 256, table_100k)
        for alpha in (0.125, 0.7311):
            assert dft_at(seq, alpha + 1.0) == pytest.approx(dft_at(seq, alpha), rel=1e-9)


class TestDftGrid:
    def test_unit_impulse(self):
        N, K = 8, 2
        seq = make_seq([0, 1] + [0] * (N - 1))
        grid = dft_grid(seq, K)
        want = np.exp(2j * np.pi * np.arange(K * N) / (K * N))
        assert np.allclose(grid.values, want, atol=1e-12)

    def test_matches_direct_at_grid_points(self):
        rng = np.random.default_rng(5)
        N = 1 << 10
        seq = make_seq(np.concatenate(([0.0], rng.integers(0, 2, N).astype(float))))
        for K in (1, 3, 4):
            grid = dft_grid(seq, K)
            for k in rng.integers(0, K * N, 64):
                direct = dft_at(seq, k / (K * N))
                assert abs(grid.values[k] - direct) <= 1e-9 * N

    def test_parseval(self):
        rng = np.random.default_rng(6)
        N = 1 << 10
        seq = make_seq(np.concatenate(([0.0], rng.random(N))))
        grid = dft_grid(seq, 1)
        lhs = np.sum(np.abs(grid.values) ** 2)
        rhs = N * np.sum(seq.values**2)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_value_at_zero_and_symmetry(self, ctx4, table_100k):
        seq = nu_sequence(ctx4, 1, 512, table_100k)
        grid = dft_grid(seq, 2)
        assert grid.values[0].real == pytest.approx(seq.total(), rel=1e-12)
        assert abs(grid.values[0].imag) < 1e-9
        L = len(grid.values)
        assert np.allclose(grid.values[1:], np.conj(grid.values[1:][::-1]), atol=1e-9)

    def test_too_large(self):
        seq = make_seq(np.zeros(1 << 20))
        with pytest.raises(TooLarge):
            dft_grid(seq, 64)


class TestUnitMask:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5000))
    @example(1)
    @example(2)
    @example(4096)  # 2^12
    @example(3125)  # 5^5
    @example(2187)  # 3^7
    @example(4998)
    @example(5000)
    @example(4999)  # prime
    def test_matches_gcd(self, k):
        r = np.arange(k)
        assert np.array_equal(unit_mask(factorize(k)), np.gcd(r, k) == 1)

    def test_gauss_sum_bitwise_equal_gcd_units(self):
        for k in (3, 9, 15, 49, 105, 1024 + 1, 4999):
            for r in (1, 2, k - 1):
                if math.gcd(r, k) != 1:
                    continue
                ls = np.arange(1, k + 1, dtype=np.int64)
                ls = ls[np.gcd(ls, k) == 1]
                want = complex(np.sum(np.exp(2j * np.pi * ((r * ls * ls) % k) / k)))
                assert bits(gauss_sum(k, r)) == bits(want)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 15, 81, 105, 999, 1000, 4096, 4999])
    def test_row_bitwise_equal_gcd_units(self, k):
        assert gauss_sum_row(k).tobytes() == gauss_row_gcd(k).tobytes()


class TestGaussSum:
    def test_row_validates_k(self):
        for k in (0, -3):
            with pytest.raises(ValueError, match="k must be >= 1"):
                gauss_sum_row(k)
        with pytest.raises(TooLarge):
            gauss_sum_row(expsums_mod.MAX_GAUSS_MODULUS + 1)

    def test_k_one(self):
        for r in (1, 2, 99):
            assert gauss_sum(1, r) == 1

    def test_closed_values(self):
        assert gauss_sum(3, 1) == pytest.approx(-1 + 1j * math.sqrt(3), abs=1e-12)
        assert gauss_sum(5, 1) == pytest.approx(math.sqrt(5) - 1, abs=1e-12)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            gauss_sum(6, 2)

    def test_magnitude_bound_small(self):
        for k in range(3, 100, 2):
            fac = factorize(k)
            if not fac.is_squarefree():
                continue
            bound = 2 ** len(fac.prime_powers) * math.sqrt(k)
            for r in range(1, k):
                if math.gcd(r, k) == 1:
                    assert abs(gauss_sum(k, r)) <= bound + 1e-9

    def test_twisted_multiplicativity(self):
        # G(mn, r) = G(m, r * inv(n) mod m) * G(n, r * inv(m) mod n)
        for m, n, r in ((3, 5, 1), (3, 5, 2), (5, 7, 3), (3, 35, 4), (15, 7, 11)):
            c = mod_inverse(n % m, m)
            d = mod_inverse(m % n, n)
            lhs = gauss_sum(m * n, r)
            rhs = gauss_sum(m, (r * c) % m) * gauss_sum(n, (r * d) % n)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_row_against_direct(self):
        rng = np.random.default_rng(2)
        for k in (3, 15, 35, 77, 105):
            row = gauss_sum_row(k)
            for _ in range(5):
                r = int(rng.integers(1, k))
                if math.gcd(r, k) != 1:
                    continue
                assert row[r] == pytest.approx(gauss_direct(k, r), abs=1e-9)


class TestLocalFactor:
    def test_q_one_is_one(self, ctx4, ctx6):
        for ctx, b in ((ctx4, 1), (ctx6, 49)):
            assert s_direct(ctx, b, 1, [1])[0].value == pytest.approx(1, abs=1e-12)
            assert s_closed(ctx, b, 1, 1).value == pytest.approx(1, abs=1e-12)

    def test_q_two_vanishes(self, ctx4):
        lf = s_direct(ctx4, 1, 2, [1])[0]
        assert abs(lf.value) < 1e-12
        assert s_closed(ctx4, 1, 2, 1).value == 0
        assert lf.case_tag == "zero_q2"

    def test_shared_odd_factor_vanishes(self, ctx4):
        for q in (3, 6, 9, 12, 24):
            direct = s_direct(ctx4, 1, q, [1])[0]
            closed = s_closed(ctx4, 1, q, 1)
            assert abs(direct.value) < 1e-12
            assert closed.value == 0
            assert closed.case_tag == "zero_gcd" if q != 2 else "zero_q2"

    def test_coprime_case_formula(self, ctx4):
        # q = 5: phase e(-inv(W) * b * a / 5) times G(5, inv(W) * a)
        w_inv = mod_inverse(24, 5)
        assert w_inv == 4
        want = cmath.exp(2j * cmath.pi * ((-w_inv) % 5) / 5) * gauss_direct(5, 4)
        got = s_closed(ctx4, 1, 5, 1)
        assert got.value == pytest.approx(want, abs=1e-12)
        assert got.case_tag == "coprime"
        assert s_direct(ctx4, 1, 5, [1])[0].value == pytest.approx(want, abs=1e-9)

    def test_gcd_two_case(self, ctx6):
        direct = s_direct(ctx6, 49, 14, [1])[0]
        closed = s_closed(ctx6, 49, 14, 1)
        assert closed.case_tag == "gcd2"
        assert abs(direct.value - closed.value) < 1e-9

    def test_closed_matches_direct_sweep(self, ctx4):
        for q in range(1, 41):
            for a in range(1, q + 1):
                if math.gcd(a, q) != 1:
                    continue
                d = s_direct(ctx4, 1, q, [a])[0]
                c = s_closed(ctx4, 1, q, a)
                assert abs(d.value - c.value) <= 1e-9
                assert abs(d.value) <= q + 1e-9  # trivial bound

    def test_not_coprime_rejected(self, ctx4):
        with pytest.raises(NotCoprime):
            s_direct(ctx4, 1, 4, [2])
        with pytest.raises(NotCoprime):
            s_closed(ctx4, 1, 4, 2)

    def test_large_prime_q_routes_agree(self, ctx6):
        # magnitudes near sqrt(q); phase numerators stay inside int64
        for q in (997, 1999):
            direct = s_direct(ctx6, 49, q, [7])[0]
            closed = s_closed(ctx6, 49, q, 7)
            assert abs(direct.value - closed.value) < 1e-9
            assert abs(direct.value) < 2 * math.sqrt(q)

    @settings(max_examples=60, deadline=None)
    @given(w=st.sampled_from([4, 6, 8]), data=st.data())
    def test_all_units_bitwise_equal_per_unit_loop(self, ctx4, ctx6, ctx8, w, data):
        ctx = {4: ctx4, 6: ctx6, 8: ctx8}[w]
        b = data.draw(st.sampled_from(ctx.Z_W), label="b")
        q = data.draw(st.integers(1, 90), label="q")
        units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        got = s_direct(ctx, b, q, units)
        assert [lf.a for lf in got] == units
        for lf in got:
            want = s_direct_one_unit(ctx, b, q, lf.a)
            assert bits(lf.value) == bits(want.value)
            assert lf.case_tag == want.case_tag

    def test_unit_chunks_bitwise_equal(self, ctx6, monkeypatch):
        # a few table cells per chunk: units are split over many chunks
        monkeypatch.setattr(expsums_mod, "_DIRECT_CELLS", 100)
        for q in (1, 7, 37, 120, 211):
            units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
            got = s_direct(ctx6, 49, q, units)
            assert [bits(lf.value) for lf in got] == [
                bits(s_direct_one_unit(ctx6, 49, q, a).value) for a in units
            ]

    @pytest.mark.parametrize("w", [4, 6, 8])
    def test_bitwise_equal_gcd_version(self, ctx4, ctx6, ctx8, w):
        ctx = {4: ctx4, 6: ctx6, 8: ctx8}[w]
        for b in ctx.Z_W[:2]:
            for q in (*range(1, 91), 128, 243, 625, 997, 1001):
                units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1][:40]
                got = [bits(lf.value) for lf in s_direct(ctx, b, q, units)]
                assert got == [bits(v) for v in s_direct_gcd(ctx, b, q, units)]

    def test_units_unreduced_and_unordered(self, ctx4):
        got = s_direct(ctx4, 1, 7, [13, 1, 8, -1])
        assert [lf.a for lf in got] == [13, 1, 8, -1]
        assert bits(got[0].value) == bits(s_direct_one_unit(ctx4, 1, 7, 13).value)
        assert bits(got[1].value) == bits(got[2].value)
        assert s_direct(ctx4, 1, 7, []) == []

    def test_overflow_guards(self, ctx6):
        with pytest.raises(TooLarge):
            s_direct(ctx6, 49, 60_000, [7])
        with pytest.raises(TooLarge):
            gauss_sum(3_000_000, 7)


class TestArcPartition:
    def test_degenerate_single_arc(self):
        part = arc_partition(100, 0.0)
        assert len(part.arcs) == 1
        arc = part.arcs[0]
        assert (arc.q, arc.a, arc.center) == (1, 1, 1.0)

    @pytest.mark.parametrize("N", [1, 0, -5])
    def test_rejects_N_below_two(self, N):
        # log 1 = 0 would make Q = 0, and the minor-arc scan divides by Q
        with pytest.raises(ValueError, match="N must be >= 2"):
            arc_partition(N, 2.0)

    def test_arc_count_and_measure(self):
        N, A = 1 << 18, 2.0
        part = arc_partition(N, A)
        Q = math.log(N) ** A
        assert part.Q == pytest.approx(Q)
        from psqlab.arith import euler_phi

        want_count = sum(euler_phi(q) for q in range(1, math.floor(Q) + 1))
        assert len(part.arcs) == want_count
        want_measure = sum(
            euler_phi(q) * 2 * Q / (q * N) for q in range(1, math.floor(Q) + 1)
        )
        assert part.major_measure() == pytest.approx(want_measure, rel=1e-12)
        assert part.minor_measure() == pytest.approx(1 - want_measure, rel=1e-9)

    def test_pairwise_disjoint(self):
        part = arc_partition(1 << 16, 2.0)
        arcs = sorted(part.arcs, key=lambda a: a.center)
        for left, right in zip(arcs, arcs[1:]):
            assert left.center + left.half_width < right.center - right.half_width

    def test_q_too_large(self):
        with pytest.raises(QTooLarge):
            arc_partition(1 << 14, 2.0)

    def test_mask_wraps(self):
        part = arc_partition(4096, 1.0)
        mask = part.major_mask(4096)
        # the q = 1 arc around 1.0 marks points at both ends of the grid
        assert mask[0] and mask[-1]


class TestMajorArcModel:
    def test_q1_at_center(self, ctx4):
        N = 1 << 10
        assert major_arc_model(ctx4, 1, 1, 1, 1.0, N) == pytest.approx(N)

    def test_vanishing_q(self, ctx4):
        assert major_arc_model(ctx4, 1, 3, 1, 1 / 3 + 1e-5, 1 << 10) == 0

    def test_half_period_offset(self, ctx4):
        N = 1 << 10
        val = major_arc_model(ctx4, 1, 1, 1, 1.0 + 1 / (2 * N), N)
        assert abs(val) == pytest.approx(2 * N / math.pi, rel=1e-9)


class TestCompareMajor:
    def test_zero_sequence_flagged(self, ctx4):
        N = 1 << 16
        seq = make_seq(np.zeros(N + 1))
        part = arc_partition(N, 1.0)
        model = lambda q, a, alpha: major_arc_model(ctx4, 1, q, a, alpha, N)
        report = compare_major(seq, part, model, qmax=1)
        assert report.zero_sequence
        assert report.q1_rel_err == pytest.approx(1.0, abs=0.01)

    def test_majorant_model_error_small_at_q1(self, ctx6, all_spec):
        N = 1 << 18
        table = table_for(ctx6, N)
        seq = nu_sequence(ctx6, 1, N, table)
        part = arc_partition(N, 2.0)
        model = lambda q, a, alpha: major_arc_model(ctx6, 1, q, a, alpha, N)
        report = compare_major(seq, part, model, qmax=8)
        assert report.q1_rel_err < 0.1
        assert report.per_q_max[1] == report.q1_rel_err * N

    def test_rows_equal_pointwise_dft_bitwise(self, ctx6):
        N = 1 << 16
        seq = nu_sequence(ctx6, 1, N, table_for(ctx6, N))
        part = arc_partition(N, 1.5)
        model = lambda q, a, alpha: major_arc_model(ctx6, 1, q, a, alpha, N)
        report = compare_major(seq, part, model, qmax=6)
        arcs = [arc for arc in part.arcs if arc.q <= 6]
        assert len(report.rows) == len(arcs)
        for row, arc in zip(report.rows, arcs):
            alphas = (arc.center - arc.half_width, arc.center, arc.center + arc.half_width)
            want = max(abs(dft_at(seq, x) - model(arc.q, arc.a, x)) for x in alphas)
            assert (row.q, row.a) == (arc.q, arc.a)
            assert row.err_abs.hex() == want.hex()


class TestMinorScan:
    def test_zero_sequence(self, ctx4):
        N = 1 << 16
        seq = make_seq(np.zeros(N + 1))
        part = arc_partition(N, 1.0)
        report = minor_arc_scan(dft_grid(seq, 2), part)
        assert report.sup_abs == 0.0

    def test_minor_below_main_peak(self, ctx6):
        N = 1 << 18
        table = table_for(ctx6, N)
        seq = nu_sequence(ctx6, 1, N, table)
        part = arc_partition(N, 2.0)
        report = minor_arc_scan(dft_grid(seq, 4), part)
        main_peak = abs(dft_at(seq, 0.0))
        assert 0 < report.sup_abs < main_peak
        # the reported rational approximation has a minor-range denominator
        assert part.Q < report.nearest_q <= N / part.Q
        assert abs(report.argmax_alpha - report.nearest_a / report.nearest_q) < 1e-3


class TestRationalApproximation:
    def test_exact_fifth(self):
        assert rational_approximation(0.2, 10) == (1, 5)

    def test_pi_convergents(self):
        assert rational_approximation(math.pi - 3, 200) == (16, 113)
        assert rational_approximation(math.pi - 3, 110) == (15, 106)

    def test_zero(self):
        assert rational_approximation(0.0, 50) == (0, 1)


class TestPseudorandomSup:
    def test_indicator_is_reference(self):
        N = 1 << 10
        seq = make_seq(np.concatenate(([0.0], np.ones(N))))
        assert pseudorandom_sup(seq, 4, indicator_transform_grid(N, 4)) < 1e-6 * N

    @pytest.mark.parametrize(
        "N, K", [(1, 1), (1, 4), (2, 1), (7, 1), (1000, 1), (1000, 3), (4096, 4), (65537, 2)]
    )
    def test_indicator_grid_bitwise_equal_three_exp_formula(self, N, K):
        got = indicator_transform_grid(N, K)
        assert got.view(np.uint64).tolist() == indicator_three_exp(N, K).view(np.uint64).tolist()

    def test_reference_length_checked(self):
        seq = make_seq(np.ones(65))
        with pytest.raises(ValueError, match="reference"):
            pseudorandom_sup(seq, 4, indicator_transform_grid(64, 2))

    def test_reference_grid_matches_fft(self):
        N, K = 1 << 9, 4
        seq = make_seq(np.concatenate(([0.0], np.ones(N))))
        grid = dft_grid(seq, K)
        ref = indicator_transform_grid(N, K)
        assert np.max(np.abs(grid.values - ref)) < 1e-9 * N

    def test_decreases_with_w(self, ctx4, ctx6):
        N = 1 << 14
        reference = indicator_transform_grid(N, 4)
        sups = []
        for ctx in (ctx4, ctx6):
            table = table_for(ctx, N)
            seq = nu_sequence(ctx, 1, N, table)
            sups.append(pseudorandom_sup(seq, 4, reference) / N)
        assert sups[1] <= sups[0] * 1.10
