"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 5b is expected to fail: the per-gap divisor
bound it asserts has concrete counterexamples (see its docstring); the
corrected bound is checked in tests/test_restriction.py.
"""

import itertools
import math
import time

import numpy as np
import pytest

import psqlab
from conftest import as_sequence, table_for
from psqlab.arith import factorize
from psqlab.expsums import gauss_sum_row
from psqlab.restriction import fourth_moment_routes, pair_difference_counts


def _gate(label: str, ok: bool, detail: str, budget: float, elapsed: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status}  {label}  [{elapsed:.1f}s / budget {budget:.0f}s]  {detail}")
    assert ok, f"{label}: {detail}"
    assert elapsed < budget, f"{label}: runtime {elapsed:.1f}s over budget {budget:.0f}s"


def test_criterion_01_local_factor_oracle():
    """Closed form vs direct double sum, plus the structural zeros."""
    t0 = time.time()
    worst = 0.0
    worst_zero = 0.0
    for w in (4, 6):
        ctx = psqlab.build_context(w)
        for b in ctx.Z_W:
            for q in range(1, 61):
                for a in range(1, q + 1):
                    if math.gcd(a, q) != 1:
                        continue
                    direct = psqlab.s_direct(ctx, b, q, [a])[0]
                    closed = psqlab.s_closed(ctx, b, q, a)
                    worst = max(worst, abs(direct.value - closed.value))
                    t = math.gcd(q, ctx.W)
                    if q == 2 or t not in (1, 2):
                        worst_zero = max(worst_zero, abs(direct.value))
                        assert closed.value == 0
    ok = worst <= 1e-9 and worst_zero <= 1e-9
    _gate(
        "criterion 1: local-factor oracle equivalence",
        ok,
        f"max|closed-direct|={worst:.2e} max|vanishing|={worst_zero:.2e}",
        30.0,
        time.time() - t0,
    )


def test_criterion_02_gauss_sums():
    t0 = time.time()
    assert psqlab.gauss_sum(1, 7) == 1
    assert psqlab.gauss_sum(3, 1) == pytest.approx(-1 + 1j * math.sqrt(3), abs=1e-12)
    assert psqlab.gauss_sum(5, 1) == pytest.approx(math.sqrt(5) - 1, abs=1e-12)

    violations = []
    checked = 0
    rng = np.random.default_rng(0)
    for k in range(1, 1001, 2):
        fac = factorize(k)
        if not fac.is_squarefree():
            continue
        bound = 2 ** len(fac.prime_powers) * math.sqrt(k)
        row = gauss_sum_row(k)
        rs = np.arange(k) if k > 1 else np.array([0])
        units = rs[np.gcd(rs, k) == 1] if k > 1 else rs
        mags = np.abs(row[units])
        checked += len(units)
        bad = units[mags > bound + 1e-9]
        violations.extend((k, int(r)) for r in bad)
        # spot-check the batch row against the direct definition
        if k > 1 and rng.random() < 0.05:
            r = int(units[rng.integers(len(units))])
            assert row[r] == pytest.approx(psqlab.gauss_sum(k, r), abs=1e-9)
    _gate(
        "criterion 2: Gauss sum values and magnitude bound",
        not violations,
        f"checked {checked} pairs, violations={violations[:5]}",
        60.0,
        time.time() - t0,
    )


def test_criterion_03_sumset_lemma_exhaustive():
    t0 = time.time()
    failures = []
    checked = 0
    for w in (4, 6, 8):
        report = psqlab.exhaustive_lemma_check(psqlab.build_context(w))
        checked += report.subsets_checked
        failures.extend(report.failures)
    _gate(
        "criterion 3: exhaustive 8-fold cover for |E| > |Z|/2",
        not failures,
        f"subsets checked={checked} failures={failures}",
        10.0,
        time.time() - t0,
    )


def test_criterion_04_context_structure():
    t0 = time.time()
    ok = True
    for w in (4, 6, 8, 10):
        ctx = psqlab.build_context(w)
        ok &= ctx.H * len(ctx.Z_W) == ctx.phi_W
        ok &= all(len(ctx.root_map[b]) == ctx.H for b in ctx.Z_W)
        ok &= all(b % 24 == 1 for b in ctx.Z_W)
    _gate(
        "criterion 4: root-structure invariants for w in {4,6,8,10}",
        ok,
        "H*|Z|=phi, |H(b)|=H, b=1 mod 24",
        5.0,
        time.time() - t0,
    )


def test_criterion_05a_fourth_moment_identity():
    t0 = time.time()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(100):
        arr = rng.random(1 << 12)
        grid_route, auto_route = fourth_moment_routes(as_sequence(arr))
        worst = max(worst, abs(grid_route - auto_route) / max(grid_route, auto_route))
    ctx = psqlab.build_context(6)
    N = 1 << 16
    table = table_for(ctx, N)
    seq = psqlab.f_sequence(ctx, 1, N, psqlab.PrimeSubsetSpec.all_primes(), table)
    grid_route, auto_route = fourth_moment_routes(seq)
    worst = max(worst, abs(grid_route - auto_route) / max(grid_route, auto_route))
    _gate(
        "criterion 5a: fourth-moment route agreement",
        worst <= 1e-6,
        f"max relative difference={worst:.2e}",
        120.0,
        time.time() - t0,
    )


def test_criterion_05b_pair_gap_divisor_bound():
    """Support-pair counts at gap k against tau(k): FAILS by construction.

    The bound would follow if every support pair (m, n) = (x^2 - b)/W,
    (y^2 - b)/W at gap k had W | (x - y), forcing x - y = W*d with d | k.
    That divisibility does not actually hold: at w = 4, b = 1, gap 5 the
    pairs come from (x, y) = (13, 7), (17, 13), (31, 29), with x - y =
    6, 4, 2, none divisible by 24, giving count 3 > tau(5) = 2.  Extracting
    d = x - y instead gives d * (x + y) = W*k, so d | W*k and the scaled
    bound count <= tau(W*k) does hold (checked in test_restriction.py).
    This test keeps the stated per-gap bound and reports the violations.
    """
    t0 = time.time()
    N = 10_000
    violations = {}
    for w in (4, 6):
        ctx = psqlab.build_context(w)
        table = table_for(ctx, N)
        for b in ctx.Z_W:
            gaps = pair_difference_counts(psqlab.nu_sequence(ctx, b, N, table))
            if gaps.violations:
                violations[(w, b)] = gaps.violations
    _gate(
        "criterion 5b: pair-gap counts bounded by tau(k) (expected FAIL)",
        not violations,
        f"violations={violations}",
        120.0,
        time.time() - t0,
    )


def test_criterion_06_parseval_and_dft_oracle():
    t0 = time.time()
    ctx = psqlab.build_context(6)
    N = 1 << 12
    table = table_for(ctx, N)
    seq = psqlab.f_sequence(ctx, 49, N, psqlab.PrimeSubsetSpec.all_primes(), table)
    rng = np.random.default_rng(99)

    worst = 0.0
    for K in (1, 4):
        grid = psqlab.dft_grid(seq, K)
        for k in rng.integers(0, K * N, 64):
            direct = psqlab.dft_at(seq, k / (K * N))
            worst = max(worst, abs(grid.values[k] - direct))
    grid1 = psqlab.dft_grid(seq, 1)
    lhs = float(np.sum(np.abs(grid1.values) ** 2))
    rhs = float(N * np.sum(seq.values**2))
    parseval_rel = abs(lhs - rhs) / rhs
    ok = worst <= 1e-9 * N and parseval_rel <= 1e-9
    _gate(
        "criterion 6: grid-vs-direct and discrete Parseval",
        ok,
        f"max grid error={worst:.2e} (tol {1e-9 * N:.1e}), parseval rel={parseval_rel:.2e}",
        30.0,
        time.time() - t0,
    )


def test_criterion_07_pseudorandomness_trend():
    t0 = time.time()
    N, K = 1 << 18, 4
    sups = []
    reference = psqlab.indicator_transform_grid(N, K)
    for w in (4, 6, 8):
        ctx = psqlab.build_context(w)
        table = table_for(ctx, N)
        seq = psqlab.nu_sequence(ctx, ctx.Z_W[0], N, table)
        sups.append(psqlab.pseudorandom_sup(seq, K, reference) / N)
    ok = all(sups[i + 1] <= sups[i] * 1.10 for i in range(len(sups) - 1))
    _gate(
        "criterion 7: sup|transform - reference|/N nonincreasing in w",
        ok,
        f"sup/N at w=4,6,8: {[round(s, 4) for s in sups]}",
        300.0,
        time.time() - t0,
    )


def test_criterion_08_restriction_moment_boundedness():
    t0 = time.time()
    ctx = psqlab.build_context(6)
    spec = psqlab.PrimeSubsetSpec.all_primes()
    ratios = []
    for N in (1 << 14, 1 << 16, 1 << 18):
        table = table_for(ctx, N)
        seq = psqlab.f_sequence(ctx, 1, N, spec, table)
        ratios.append(psqlab.lq_moment(seq, 5.0, K=4).ratio)
    spread = max(ratios) / min(ratios)
    _gate(
        "criterion 8: fifth-moment ratios stable across N",
        spread < 3.0,
        f"ratios={[round(r, 3) for r in ratios]} spread={spread:.2f}",
        300.0,
        time.time() - t0,
    )


def test_criterion_09_counting_oracle(table_1k):
    t0 = time.time()
    spec = psqlab.PrimeSubsetSpec.all_primes()

    def brute(limit, s):
        squares = [p * p for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67) if p * p <= limit]
        counts = np.zeros(limit + 1, dtype=np.int64)
        for combo in itertools.product(squares, repeat=s):
            total = sum(combo)
            if total <= limit:
                counts[total] += 1
        return counts

    exact = True
    for s in (2, 3):
        got = psqlab.count_representations(5000, s, spec, table_1k).counts
        exact &= bool(np.array_equal(got, brute(5000, s)))

    table = psqlab.sieve(1000)
    counts = psqlab.count_representations(100_000, 8, spec, table).counts
    ns = np.arange(100_001)
    stray = int(np.count_nonzero(counts[ns % 24 != 8]))
    _gate(
        "criterion 9: counting matches brute force; congruence zero-scan",
        exact and stray == 0,
        f"brute-force exact={exact}, nonzero off-residue entries={stray}",
        120.0,
        time.time() - t0,
    )


def test_criterion_10_desk_scale_experiment(table_1m):
    t0 = time.time()
    results = {}
    ok = True
    for spec in (
        psqlab.PrimeSubsetSpec.all_primes(),
        psqlab.PrimeSubsetSpec.residue_classes(11, range(1, 11)),
    ):
        report = psqlab.theorem_experiment(8, spec, (5_000, 1_000_000), table_1m, sample_limit=0)
        above = [e for e in report.exceptions if e > 10_000]
        results[spec.variant] = {
            "density": round(report.empirical_density, 6),
            "exceptions": len(report.exceptions),
            "above_1e4": above,
        }
        ok &= not above
        ok &= report.density_exceeds_threshold
    _gate(
        "criterion 10: every n = 8 mod 24 in [5e3, 1e6] represented (above 1e4)",
        ok,
        f"{results}",
        600.0,
        time.time() - t0,
    )


def test_criterion_11_transfer_round_trip():
    t0 = time.time()
    spec = psqlab.PrimeSubsetSpec.all_primes()
    checked = 0
    for w, start in ((4, 10_000), (6, 48_000)):
        ctx = psqlab.build_context(w)
        hi = start + 24 * 40
        counts = psqlab.count_representations(
            hi, 8, spec, psqlab.sieve(max(1000, math.isqrt(hi) + 1))
        ).counts
        first = start + ((8 - start) % 24)
        targets = [n for n in range(first, hi + 1, 24) if counts[n] > 0][:20]
        assert len(targets) == 20
        N = (2 * targets[-1]) // (8 * ctx.W)
        table = psqlab.sieve(math.isqrt(ctx.W * N + max(ctx.Z_W)) + 1)
        for n in targets:
            witness = psqlab.transfer_witness(ctx, n, 8, spec, table)
            assert sum(p * p for p in witness.primes) == n
            for b, nj, p in zip(witness.residues, witness.indices, witness.primes):
                assert ctx.W * nj + b == p * p
            assert sum(witness.indices) == witness.m
            assert witness.m == (n - sum(witness.residues)) // ctx.W
            checked += 1
    _gate(
        "criterion 11: transfer witnesses satisfy the full identity chain",
        checked == 40,
        f"{checked} witnesses verified at w in {{4, 6}}",
        120.0,
        time.time() - t0,
    )
