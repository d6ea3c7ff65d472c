import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import table_for
from psqlab._csvio import write_csv
from psqlab.errors import Infeasible, TableTooSmall, TooLarge
from psqlab.primes import PrimeSubsetSpec
from psqlab.wtrick import (
    DensityTable,
    build_context,
    delta_table,
    f_sequence,
    nu_sequence,
    select_residues,
)


class TestBuildContext:
    def test_w4(self, ctx4):
        assert (ctx4.W, ctx4.phi_W, ctx4.H) == (24, 8, 8)
        assert ctx4.Z_W == (1,)
        assert ctx4.root_map[1] == (1, 5, 7, 11, 13, 17, 19, 23)

    def test_w6(self, ctx6):
        assert (ctx6.W, ctx6.phi_W, ctx6.H) == (120, 32, 16)
        assert ctx6.Z_W == (1, 49)

    def test_w8(self, ctx8):
        assert (ctx8.W, ctx8.phi_W, ctx8.H) == (840, 192, 32)
        assert len(ctx8.Z_W) == 6

    def test_w10_same_modulus_as_w8(self, ctx8):
        # no new odd prime enters below 10, so the modulus repeats
        ctx10 = build_context(10)
        assert ctx10.W == ctx8.W == 840

    @pytest.mark.parametrize("w", [4, 6, 8, 10, 12])
    def test_structure_invariants(self, w):
        ctx = build_context(w)
        assert ctx.H * len(ctx.Z_W) == ctx.phi_W
        assert all(len(ctx.root_map[b]) == ctx.H for b in ctx.Z_W)
        assert all(b % 24 == 1 for b in ctx.Z_W)
        for b, roots in ctx.root_map.items():
            for h in roots:
                assert math.gcd(h, ctx.W) == 1
                assert (h * h) % ctx.W == b

    def test_rejects_small_w(self):
        with pytest.raises(ValueError):
            build_context(3)

    def test_rejects_huge_w(self):
        with pytest.raises(TooLarge):
            build_context(50)

    def test_json_keys(self, ctx6):
        blob = ctx6.to_json()
        assert set(blob) == {"w", "W", "phi", "H", "Z", "roots"}
        assert blob["Z"] == [1, 49]


class TestNuSequence:
    def test_first_entry_weight(self, ctx4, table_1k):
        seq = nu_sequence(ctx4, 1, 1, table_1k)
        assert list(seq.support()) == [1]  # 24*1 + 1 = 25 = 5^2
        expected = (8 / (24 * 8)) * 2 * 5 * math.log(5)
        assert seq.values[1] == pytest.approx(expected, rel=1e-12)

    def test_two_entries(self, ctx4, table_1k):
        seq = nu_sequence(ctx4, 1, 2, table_1k)
        assert list(seq.support()) == [1, 2]  # 25 = 5^2, 49 = 7^2

    def test_support_is_exactly_prime_squares(self, ctx6, table_100k):
        N = 4096
        seq = nu_sequence(ctx6, 49, N, table_100k)
        support = set(seq.support().tolist())
        for n in range(1, N + 1):
            v = ctx6.W * n + 49
            r = math.isqrt(v)
            expected = r * r == v and table_100k.is_prime(r)
            assert (n in support) == expected

    def test_table_too_small(self, ctx4):
        import psqlab

        with pytest.raises(TableTooSmall):
            nu_sequence(ctx4, 1, 10**6, psqlab.sieve(100))

    def test_rejects_non_residue(self, ctx6, table_1k):
        with pytest.raises(ValueError):
            nu_sequence(ctx6, 2, 10, table_1k)

    @settings(max_examples=30, deadline=None)
    @given(w=st.sampled_from([4, 6, 8]), pick=st.integers(0, 1000), N=st.integers(1, 5000))
    def test_matches_definition(self, table_100k, w, pick, N):
        # support {n <= N : W*n + b = p^2, p prime}, weight phi(W)/(W*H) * 2p*log(p)
        ctx = build_context(w)
        b = ctx.Z_W[pick % len(ctx.Z_W)]
        seq = nu_sequence(ctx, b, N, table_100k)
        roots = {n: math.isqrt(ctx.W * n + b) for n in range(1, N + 1)}
        want = {
            n: p for n, p in roots.items() if p * p == ctx.W * n + b and table_100k.is_prime(p)
        }
        assert seq.N == N and len(seq.values) == N + 1
        assert seq.support().tolist() == sorted(want)
        coeff = ctx.phi_W / (ctx.W * ctx.H)
        for n, p in want.items():
            assert seq.values[n] == pytest.approx(coeff * 2 * p * math.log(p), rel=1e-12)


class TestFSequence:
    def test_all_equals_majorant(self, ctx6, table_100k, all_spec):
        N = 2048
        nu = nu_sequence(ctx6, 1, N, table_100k)
        f = f_sequence(ctx6, 1, N, all_spec, table_100k)
        assert np.array_equal(nu.values, f.values)

    def test_empty_subset_is_zero(self, ctx4, table_1k):
        f = f_sequence(ctx4, 1, 50, PrimeSubsetSpec.explicit([]), table_1k)
        assert f.total() == 0.0

    def test_residue_filter_zeroes_eleven(self, ctx4, table_1k):
        spec = PrimeSubsetSpec.residue_classes(11, range(1, 11))
        nu = nu_sequence(ctx4, 1, 5, table_1k)
        f = f_sequence(ctx4, 1, 5, spec, table_1k)
        # n = 5 holds 121 = 11^2; the subset drops p = 11
        assert nu.values[5] > 0
        assert f.values[5] == 0.0
        assert np.array_equal(nu.values[:5], f.values[:5])

    def test_pointwise_domination(self, ctx6, table_100k):
        N = 2048
        nu = nu_sequence(ctx6, 49, N, table_100k)
        for spec in (
            PrimeSubsetSpec.bernoulli(0.5, seed=3),
            PrimeSubsetSpec.residue_classes(7, [1, 2, 4]),
        ):
            f = f_sequence(ctx6, 49, N, spec, table_100k)
            assert np.all(f.values <= nu.values + 1e-15)

    def test_csv_roundtrip(self, ctx4, table_1k, tmp_path, all_spec):
        seq = f_sequence(ctx4, 1, 10, all_spec, table_1k)
        path = tmp_path / "seq.csv"
        write_csv(path, ["n", "value"], [np.arange(1, seq.N + 1), seq.values[1:]])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,value"
        assert len(lines) == 11
        n, value = lines[1].split(",")
        assert int(n) == 1 and float(value) == seq.values[1]


class TestDeltaTable:
    def test_empty_spec_all_zero(self, ctx6, table_1k):
        dt = delta_table(ctx6, 8, PrimeSubsetSpec.explicit([]), table_1k)
        assert set(dt.entries) == {1, 49}
        assert all(v == 0.0 for v in dt.entries.values())

    def test_majorant_mean_near_one(self, ctx4, all_spec):
        N = 1 << 16
        table = table_for(ctx4, N)
        dt = delta_table(ctx4, N, all_spec, table)
        assert dt.entries[1] == pytest.approx(1.0, abs=0.15)

    def test_subset_mean_against_squared_density(self, ctx6):
        # lower bound at density d is d^2; a Bernoulli sample actually sits
        # near d, which stays within the 0.1 window of d^2 for d this high
        from psqlab.primes import empirical_density

        N = 1 << 18
        table = table_for(ctx6, N)
        spec = PrimeSubsetSpec.bernoulli(0.95, seed=7)
        d = empirical_density(spec, table)
        dt = delta_table(ctx6, N, spec, table)
        mean = sum(dt.entries.values()) / len(dt.entries)
        assert abs(mean - d * d) < 0.1

    def test_max_entry_tie_break(self):
        dt = DensityTable(N=10, entries={49: 0.5, 1: 0.5})
        assert dt.max_entry() == (1, 0.5)


def select_residues_oracle(ctx, dt, n, s, kappa):
    """Exhaustive reference: the densest residue (s - 8) times, then the first
    sorted 8-multiset of threshold-clearing residues with the right sum mod W."""
    b0, mu = dt.max_entry()
    threshold = 2.0 * (1.0 - min(s, 16) / 32.0) - mu + kappa / 4.0
    pool = sorted(b for b, d in dt.entries.items() if d >= threshold)
    target = (n - (s - 8) * b0) % ctx.W
    for combo in itertools.combinations_with_replacement(pool, 8):
        if sum(combo) % ctx.W == target:
            return [b0] * (s - 8) + list(combo)
    return None


class TestSelectResidues:
    @pytest.mark.parametrize("w", [6, 8])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_exhaustive_oracle_random_densities(self, w, data):
        ctx = build_context(w)
        dens = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(ctx.Z_W), max_size=len(ctx.Z_W)))
        dt = DensityTable(N=100, entries=dict(zip(ctx.Z_W, dens)))
        s = data.draw(st.integers(8, 12))
        n = s + 24 * data.draw(st.integers(0, 10 * ctx.W))
        want = select_residues_oracle(ctx, dt, n, s, 0.1)
        if want is None:
            with pytest.raises(Infeasible):
                select_residues(ctx, dt, n, s, kappa=0.1)
        else:
            assert select_residues(ctx, dt, n, s, kappa=0.1) == want

    def test_w14_congruent(self):
        # W = 120120 and |Z| = 180: C(183, 4) tuples per half for a 4+4 split
        ctx = build_context(14)
        assert (ctx.W, len(ctx.Z_W)) == (120120, 180)
        dt = DensityTable(N=100, entries={b: 0.9 for b in ctx.Z_W})
        for n in (8 + 24 * 12345, 10 + 24 * 987654):
            s = n % 24
            chosen = select_residues(ctx, dt, n, s, kappa=0.1)
            assert len(chosen) == s and set(chosen) <= set(ctx.Z_W)
            assert sum(chosen) % ctx.W == n % ctx.W


    def test_singleton_context(self, ctx4):
        dt = DensityTable(N=100, entries={1: 0.95})
        for s, n in ((8, 200), (10, 250 + 24)):
            if n % 24 != s % 24:
                n += (s - n) % 24
            chosen = select_residues(ctx4, dt, n, s, kappa=0.1)
            assert chosen == [1] * s
            assert sum(chosen) % 24 == n % 24

    def test_precondition_congruence(self, ctx4):
        dt = DensityTable(N=100, entries={1: 0.95})
        with pytest.raises(ValueError):
            select_residues(ctx4, dt, 9, 8, kappa=0.1)

    def test_small_s_rejected(self, ctx4):
        dt = DensityTable(N=100, entries={1: 0.95})
        with pytest.raises(ValueError):
            select_residues(ctx4, dt, 7 * 24 + 7, 7, kappa=0.1)

    def test_all_zero_density_infeasible(self, ctx6):
        dt = DensityTable(N=100, entries={1: 0.0, 49: 0.0})
        with pytest.raises(Infeasible):
            select_residues(ctx6, dt, 128, 8, kappa=0.1)

    def test_matches_exhaustive_oracle(self, ctx6):
        import itertools

        dt = DensityTable(N=100, entries={1: 0.9, 49: 0.9})
        for n in (368, 32, 896, 8 + 120 * 4 + 24):
            got = select_residues(ctx6, dt, n, 8, kappa=0.1)
            best = None
            for tup in itertools.product(ctx6.Z_W, repeat=8):
                if sum(tup) % ctx6.W == n % ctx6.W:
                    cand = tuple(sorted(tup))
                    best = cand if best is None or cand < best else best
            assert tuple(got) == best

    def test_sum_congruence_postcondition(self, ctx8):
        dt = DensityTable(N=100, entries={b: 0.9 for b in ctx8.Z_W})
        for n in (848, 848 + 24 * 17, 848 + 24 * 100):
            for s in (8, 11):
                target = n + (s - n) % 24
                chosen = select_residues(ctx8, dt, target, s, kappa=0.1)
                assert len(chosen) == s
                assert sum(chosen) % ctx8.W == target % ctx8.W

    def test_threshold_respected(self, ctx6):
        # only b = 1 clears the threshold, so the 8-tuple must avoid 49
        dt = DensityTable(N=100, entries={1: 1.0, 49: 0.1})
        chosen = select_residues(ctx6, dt, 8 + 120, 8, kappa=0.1)
        assert set(chosen) == {1}
