import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CyclicSumset
import psqlab._gridfft as gridfft
from psqlab._csvio import write_csv
from psqlab.errors import Infeasible, TooLarge
from psqlab.primes import PrimeSubsetSpec, sieve, subset_members
from psqlab.wtrick import (
    WContext,
    build_context,
    delta_table,
    f_sequence,
    nu_sequence,
    progression_roots,
    select_residues,
)

context = functools.lru_cache(maxsize=None)(build_context)


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

    @pytest.mark.parametrize("w", range(4, 20))
    def test_root_map_units_are_the_gcd_units(self, w):
        # build_context takes its units from unit_mask(W): the same set as gcd(h, W) = 1
        ctx = build_context(w)
        values = np.arange(ctx.W, dtype=np.int64)
        want = values[np.gcd(values, ctx.W) == 1]
        got = np.sort(np.fromiter((h for hs in ctx.root_map.values() for h in hs), dtype=np.int64))
        assert np.array_equal(got, want)
        assert ctx.phi_W == len(want)

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
    def test_first_entry_weight(self, ctx4):
        seq = nu_sequence(ctx4, 1, 1)
        assert list(seq.support()) == [1]  # 24*1 + 1 = 25 = 5^2
        expected = (8 / (24 * 8)) * 2 * 5 * math.log(5)
        assert seq.values[1] == pytest.approx(expected, rel=1e-12)

    def test_two_entries(self, ctx4):
        seq = nu_sequence(ctx4, 1, 2)
        assert list(seq.support()) == [1, 2]  # 25 = 5^2, 49 = 7^2

    def test_support_is_exactly_prime_squares(self, ctx6, primes_100k):
        N = 4096
        seq = nu_sequence(ctx6, 49, N)
        support = set(seq.support().tolist())
        primes = set(primes_100k.tolist())
        for n in range(1, N + 1):
            v = ctx6.W * n + 49
            r = math.isqrt(v)
            expected = r * r == v and r in primes
            assert (n in support) == expected

    def test_rejects_non_residue(self, ctx6):
        with pytest.raises(ValueError):
            nu_sequence(ctx6, 2, 10)

    @settings(max_examples=30, deadline=None)
    @given(w=st.sampled_from([4, 6, 8]), pick=st.integers(0, 1000), N=st.integers(1, 5000))
    def test_matches_definition(self, primes_100k, w, pick, N):
        # support {n <= N : W*n + b = p^2, p prime}, weight phi(W)/(W*H) * 2p*log(p)
        ctx = build_context(w)
        b = ctx.Z_W[pick % len(ctx.Z_W)]
        seq = nu_sequence(ctx, b, N)
        roots = {n: math.isqrt(ctx.W * n + b) for n in range(1, N + 1)}
        primes = set(primes_100k.tolist())
        want = {n: p for n, p in roots.items() if p * p == ctx.W * n + b and p in primes}
        assert seq.N == N and len(seq.values) == N + 1
        assert seq.support().tolist() == sorted(want)
        coeff = ctx.phi_W / (ctx.W * ctx.H)
        for n, p in want.items():
            assert seq.values[n] == pytest.approx(coeff * 2 * p * math.log(p), rel=1e-12)


class TestFSequence:
    def test_all_equals_majorant(self, ctx6, all_spec):
        N = 2048
        nu = nu_sequence(ctx6, 1, N)
        f = f_sequence(ctx6, 1, N, all_spec)
        assert np.array_equal(nu.values, f.values)

    def test_empty_subset_is_zero(self, ctx4):
        f = f_sequence(ctx4, 1, 50, PrimeSubsetSpec.explicit([]))
        assert f.total() == 0.0

    def test_residue_filter_zeroes_eleven(self, ctx4):
        spec = PrimeSubsetSpec.residue_classes(11, range(1, 11))
        nu = nu_sequence(ctx4, 1, 5)
        f = f_sequence(ctx4, 1, 5, spec)
        # n = 5 holds 121 = 11^2; the subset drops p = 11
        assert nu.values[5] > 0
        assert f.values[5] == 0.0
        assert np.array_equal(nu.values[:5], f.values[:5])

    def test_pointwise_domination(self, ctx6):
        N = 2048
        nu = nu_sequence(ctx6, 49, N)
        for spec in (
            PrimeSubsetSpec.bernoulli(0.5, seed=3),
            PrimeSubsetSpec.residue_classes(7, [1, 2, 4]),
        ):
            f = f_sequence(ctx6, 49, N, spec)
            assert np.all(f.values <= nu.values + 1e-15)

    def test_csv_roundtrip(self, ctx4, tmp_path, all_spec):
        seq = f_sequence(ctx4, 1, 10, all_spec)
        path = tmp_path / "seq.csv"
        write_csv(path, ["n", "value"], [np.arange(1, seq.N + 1), seq.values[1:]])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,value"
        assert len(lines) == 11
        n, value = lines[1].split(",")
        assert int(n) == 1 and float(value) == seq.values[1]


SWEEP_SPECS = (
    PrimeSubsetSpec.all_primes(),
    PrimeSubsetSpec.bernoulli(0.6, seed=3),
    PrimeSubsetSpec.residue_classes(7, [1, 2, 3, 4, 5]),
    PrimeSubsetSpec.explicit([5, 7, 11, 13, 29, 31, 41, 59, 71, 73, 89, 97, 101]),
)
SWEEP = [
    (w, spec, N) for w in (4, 6, 8, 10, 12) for spec in SWEEP_SPECS for N in (1, 7, 1 << 12)
]


def densities(ctx, N, spec):
    return delta_table(ctx, N, progression_roots(ctx, N, spec))


class TestProgressionRoots:
    @pytest.mark.parametrize("w, spec, N", SWEEP)
    def test_matches_per_residue_rule(self, w, spec, N):
        # each residue's own rule: p <= isqrt(W*N + b), p^2 - b > 0 and W | p^2 - b
        ctx = context(w)
        p, n, r = progression_roots(ctx, N, spec)
        assert set(r.tolist()) <= set(ctx.Z_W)
        assert np.array_equal(p * p, ctx.W * n + r)
        for b in ctx.Z_W:
            want = [
                int(q)
                for q in subset_members(spec, sieve(math.isqrt(ctx.W * N + b)))
                if int(q) ** 2 > b and (int(q) ** 2 - b) % ctx.W == 0
            ]
            assert p[r == b].tolist() == want
            assert n[r == b].tolist() == [(q * q - b) // ctx.W for q in want]

    @pytest.mark.parametrize("N", [0, -5])
    def test_rejects_empty_window_before_sieving(self, ctx6, all_spec, N, monkeypatch):
        import psqlab.wtrick as wtrick

        monkeypatch.setattr(wtrick, "sieve", lambda *args: pytest.fail("sieved"))
        with pytest.raises(ValueError, match=f"^N must be >= 1, got {N}$"):
            progression_roots(ctx6, N, all_spec)


class TestDeltaTable:
    @pytest.mark.parametrize("w, spec, N", SWEEP)
    def test_means_are_sequence_totals_bit_for_bit(self, w, spec, N):
        ctx = context(w)
        table = densities(ctx, N, spec)
        assert list(table) == list(ctx.Z_W)
        for b, mean in table.items():
            assert mean == f_sequence(ctx, b, N, spec).total() / N

    def test_empty_spec_all_zero(self, ctx6):
        dt = densities(ctx6, 8, PrimeSubsetSpec.explicit([]))
        assert set(dt) == {1, 49}
        assert all(v == 0.0 for v in dt.values())

    def test_majorant_mean_near_one(self, ctx4, all_spec):
        N = 1 << 16
        dt = densities(ctx4, N, all_spec)
        assert dt[1] == pytest.approx(1.0, abs=0.15)

    def test_subset_mean_against_squared_density(self, ctx6):
        # lower bound at density d is d^2; a Bernoulli sample actually sits
        # near d, which stays within the 0.1 window of d^2 for d this high
        from psqlab.primes import empirical_density

        N = 1 << 18
        spec = PrimeSubsetSpec.bernoulli(0.95, seed=7)
        d = empirical_density(spec, math.isqrt(ctx6.W * N + max(ctx6.Z_W)) + 1)
        dt = densities(ctx6, N, spec)
        mean = sum(dt.values()) / len(dt)
        assert abs(mean - d * d) < 0.1

    def test_max_entry_tie_break(self, ctx6):
        # b0 is the least residue of greatest density; s = 9 repeats it once
        assert select_residues(ctx6, {49: 0.9, 1: 0.9}, 129, 9, kappa=0.1)[0] == 1
        assert select_residues(ctx6, {49: 0.95, 1: 0.9}, 129, 9, kappa=0.1)[0] == 49


def select_residues_oracle(ctx, dt, n, s, kappa):
    """Exhaustive reference: the densest residue (s - 8) times, then the first
    sorted 8-multiset of threshold-clearing residues with the right sum mod W."""
    mu = max(dt.values())
    b0 = min(b for b, d in dt.items() if d == mu)
    threshold = 2.0 * (1.0 - min(s, 16) / 32.0) - mu + kappa / 4.0
    pool = sorted(b for b, d in dt.items() if d >= threshold)
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
        dt = dict(zip(ctx.Z_W, dens))
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
        dt = {b: 0.9 for b in ctx.Z_W}
        for n in (8 + 24 * 12345, 10 + 24 * 987654):
            s = n % 24
            chosen = select_residues(ctx, dt, n, s, kappa=0.1)
            assert len(chosen) == s and set(chosen) <= set(ctx.Z_W)
            assert sum(chosen) % ctx.W == n % ctx.W


    def test_singleton_context(self, ctx4):
        dt = {1: 0.95}
        for s, n in ((8, 200), (10, 250 + 24)):
            if n % 24 != s % 24:
                n += (s - n) % 24
            chosen = select_residues(ctx4, dt, n, s, kappa=0.1)
            assert chosen == [1] * s
            assert sum(chosen) % 24 == n % 24

    def test_precondition_congruence(self, ctx4):
        dt = {1: 0.95}
        with pytest.raises(ValueError):
            select_residues(ctx4, dt, 9, 8, kappa=0.1)

    def test_small_s_rejected(self, ctx4):
        dt = {1: 0.95}
        with pytest.raises(ValueError):
            select_residues(ctx4, dt, 7 * 24 + 7, 7, kappa=0.1)

    def test_all_zero_density_infeasible(self, ctx6):
        dt = {1: 0.0, 49: 0.0}
        with pytest.raises(Infeasible):
            select_residues(ctx6, dt, 128, 8, kappa=0.1)

    def test_matches_exhaustive_oracle(self, ctx6):
        import itertools

        dt = {1: 0.9, 49: 0.9}
        for n in (368, 32, 896, 8 + 120 * 4 + 24):
            got = select_residues(ctx6, dt, n, 8, kappa=0.1)
            best = None
            for tup in itertools.product(ctx6.Z_W, repeat=8):
                if sum(tup) % ctx6.W == n % ctx6.W:
                    cand = tuple(sorted(tup))
                    best = cand if best is None or cand < best else best
            assert tuple(got) == best

    def test_sum_congruence_postcondition(self, ctx8):
        dt = {b: 0.9 for b in ctx8.Z_W}
        for n in (848, 848 + 24 * 17, 848 + 24 * 100):
            for s in (8, 11):
                target = n + (s - n) % 24
                chosen = select_residues(ctx8, dt, target, s, kappa=0.1)
                assert len(chosen) == s
                assert sum(chosen) % ctx8.W == target % ctx8.W

    def test_threshold_respected(self, ctx6):
        # only b = 1 clears the threshold, so the 8-tuple must avoid 49
        dt = {1: 1.0, 49: 0.1}
        chosen = select_residues(ctx6, dt, 8 + 120, 8, kappa=0.1)
        assert set(chosen) == {1}


def modulus_context(m):
    """A context holding only W = 24m, all select_residues reads of one."""
    return WContext(w=0, W=24 * m, phi_W=0, H=0, Z_W=(), root_map={})


@st.composite
def lift_cases(draw):
    """(ctx, pool, n): a pool from Z(W) at w = 10, 12 or 14, or of residues
    1 (mod 24) below W = 24m for a modulus m up to 200, and a target
    n = 8 (mod 24)."""
    rng = draw(st.randoms(use_true_random=False))
    w = draw(st.sampled_from([None, 10, 12, 14]))
    if w is None:
        m = draw(st.integers(1, 200))
        ctx = modulus_context(m)
        residues = [24 * k + 1 for k in range(m)]
    else:
        ctx = context(w)
        residues = list(ctx.Z_W)
    size = draw(st.sampled_from([1, 2, 3, 5, 10, 30, len(residues)]))
    pool = rng.sample(residues, min(size, len(residues)))
    return ctx, pool, 8 + 24 * draw(st.integers(0, 3 * ctx.W // 24))


def select_or_none(ctx, pool, n):
    """The 8 residues select_residues picks from pool for n at s = 8, or None."""
    try:
        return select_residues(ctx, dict.fromkeys(pool, 1.0), n, 8, kappa=0.1)
    except Infeasible:
        return None


class TestResidueLifts:
    """select_residues' 8-tuple, from the eight lifts t + i*m of its sum mod m."""

    @settings(max_examples=150, deadline=None)
    @given(lift_cases(), st.booleans())
    # k = 9 alone at m = 10: t = 72 mod 10 = 2 is met only by the top lift 2 + 7*10
    @example((modulus_context(10), [24 * 9 + 1], 8 + 24 * 2), False)
    @example((modulus_context(10), [24 * 9 + 1], 8 + 24 * 3), False)  # by none
    @example((modulus_context(10), [1], 8), False)  # k = 0 alone: the bottom lift
    def test_matches_cyclic_reach(self, case, past_step_cap):
        # the least of the eight lex-smallest lifts is the cyclic reference's
        # answer mod m, None included; with no steps allowed, the search raises
        # TooLarge unless every lift t + 7m is below the least sum 8 min(ks),
        # which leaves no tuple
        ctx, pool, n = case
        m = ctx.W // 24
        ks = (np.array(sorted(pool), dtype=np.int64) - 1) // 24
        t = (n % ctx.W - 8) // 24
        want = CyclicSumset([ks] * 8, m).smallest(t)
        with pytest.MonkeyPatch.context() as mp:
            if past_step_cap:
                mp.setattr(gridfft, "MAX_SEARCH_STEPS", 0)
            if past_step_cap and t + 7 * m >= 8 * int(ks[0]):
                with pytest.raises(TooLarge, match="past its cap of 0 steps"):
                    select_or_none(ctx, pool, n)
                return
            got = select_or_none(ctx, pool, n)
        assert got == (None if want is None else [24 * k + 1 for k in want])

    def test_small_pool_at_large_modulus_is_proved_infeasible_cheaply(self, monkeypatch):
        # transfer --w 14 --n 987675428216 --s 8 --spec residues:5:1,4: no
        # 8-tuple of the pool meets the sum mod W/24 = 5005.  With its
        # suffix-sum bitsets the search proves that within 2^10 steps; with
        # none, walking every top-level combination takes about 757,600
        n, s = 987_675_428_216, 8
        ctx = context(14)
        N = (2 * n) // (s * ctx.W)
        roots = progression_roots(ctx, N, PrimeSubsetSpec.residue_classes(5, [1, 4]))
        density = delta_table(ctx, N, roots)
        monkeypatch.setattr(gridfft, "MAX_SEARCH_STEPS", 1 << 10)
        with pytest.raises(Infeasible, match="no 8-fold combination"):
            select_residues(ctx, density, n, s, kappa=0.1)
        monkeypatch.setattr(gridfft, "MAX_BITSET_CELLS", 0)
        with pytest.raises(TooLarge, match="past its cap of 1024 steps"):
            select_residues(ctx, density, n, s, kappa=0.1)

    def test_searches_stay_far_under_the_step_cap(self, monkeypatch):
        # random pools from Z(W) at w = 12 and 14, and all of Z(W) at w = 18
        # (m = 85085, the largest modulus a CLI run reaches), each
        # answered within 2^16 steps, a sixteenth of MAX_SEARCH_STEPS, as a
        # search past its cap raises TooLarge
        monkeypatch.setattr(gridfft, "MAX_SEARCH_STEPS", 1 << 16)
        rng = random.Random(1)
        for w in (12, 14):
            Z = context(w).Z_W
            for _ in range(60):
                size = rng.choice([1, 3, 6, 15, 31, len(Z) // 4, len(Z) // 2, len(Z)])
                pool = rng.sample(Z, min(size, len(Z)))
                select_or_none(context(w), pool, 8 + 24 * rng.randrange(context(w).W // 24))
        ctx = context(18)
        for k in (0, 1, 12345, 85084):
            chosen = select_or_none(ctx, ctx.Z_W, 8 + 24 * k)
            assert sum(chosen) % ctx.W == (8 + 24 * k) % ctx.W
