import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psqlab.errors import TooLarge
from psqlab.primes import (
    DENSITY_WINDOW,
    MAX_SIEVE_LIMIT,
    _splitmix64_array,
    PrimeSubsetSpec,
    empirical_density,
    sieve,
    splitmix64,
    subset_members,
)


def full_sieve(limit):
    """The sieve of Eratosthenes over all of [0, limit], as sieve was before it
    took windows: the oracle its windows are checked against."""
    mark = np.ones(limit + 1, dtype=bool)
    mark[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = False
    return np.flatnonzero(mark).astype(np.int64)


WINDOW = DENSITY_WINDOW  # 2^21
EDGES = [0, 1, 2, 3, 4, 25, WINDOW - 1, WINDOW, WINDOW + 1]
TOP = 6 * WINDOW + 5  # the largest bound checked against the oracle


@pytest.fixture(scope="module")
def oracle_primes():
    return full_sieve(TOP)


class TestSieve:
    def test_small(self):
        assert list(sieve(10)) == [2, 3, 5, 7]

    def test_hundred(self):
        assert len(sieve(100)) == 25

    def test_million(self, primes_1m):
        assert len(primes_1m) == 78498

    def test_membership_spot_checks(self, primes_100k):
        rng = np.random.default_rng(0)
        for n in rng.integers(2, 100_000, 200):
            n = int(n)
            is_p = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
            assert bool(np.isin(n, primes_100k)) == is_p

    def test_limit_validation(self):
        assert len(sieve(0)) == len(sieve(1)) == 0
        with pytest.raises(ValueError):
            sieve(-1)
        with pytest.raises(ValueError):
            sieve(10, -1)
        with pytest.raises(TooLarge):
            sieve(MAX_SIEVE_LIMIT + 1)

    def test_window_is_a_slice_of_the_full_sieve(self, oracle_primes):
        full = sieve(WINDOW + 1)
        assert np.array_equal(full, oracle_primes[oracle_primes <= WINDOW + 1])
        for lo in EDGES:
            for limit in EDGES:
                got = sieve(limit, lo)
                assert got.dtype == np.int64 and not got.flags.writeable
                assert np.array_equal(got, full[(full >= lo) & (full <= limit)]), (lo, limit)

    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.one_of(st.integers(0, 3), st.sampled_from(EDGES), st.integers(0, TOP)),
        width=st.one_of(st.integers(-3, 64), st.integers(0, 3 * WINDOW)),
    )
    @example(lo=0, width=WINDOW - 1)
    @example(lo=1, width=WINDOW)
    @example(lo=2, width=WINDOW + 1)
    @example(lo=3, width=WINDOW - 2)
    @example(lo=WINDOW - 1, width=WINDOW + 2)
    @example(lo=WINDOW, width=WINDOW - 1)
    @example(lo=WINDOW + 1, width=WINDOW)
    def test_odd_windows_equal_the_oracle(self, oracle_primes, lo, width):
        # odd and even lo and limit, lo in 0..3, and the window edges 2^21 - 1,
        # 2^21 and 2^21 + 1 as either bound
        limit = min(max(lo + width, 0), TOP)
        got = sieve(limit, lo)
        assert got.dtype == np.int64 and not got.flags.writeable
        want = oracle_primes[(oracle_primes >= lo) & (oracle_primes <= limit)]
        assert np.array_equal(got, want), (lo, limit)


class TestSplitmix:
    def test_reference_value(self):
        # first output of the reference splitmix64 stream seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_array_matches_scalar_across_uint64(self):
        # uint64 arithmetic must wrap mod 2^64 and never promote to float or
        # object, under numpy 1.x and 2.x promotion rules alike
        top = (1 << 64) - 1
        xs = [0, 1, 5, 2**32 + 7, 2**63 - 1, 2**63, 2**63 + 12345, top - 0x9E3779B97F4A7C15,
              top - 0x9E3779B97F4A7C15 + 1, top - 1, top]
        got = _splitmix64_array(np.array(xs, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [splitmix64(x) for x in xs]


class TestSubsetMembers:
    @pytest.mark.parametrize("rho, seed", [(0.5, 42), (0.97, 7), (0.1, 2**40 + 3)])
    def test_bernoulli_keeps_by_hash_threshold(self, primes_1k, rho, seed):
        threshold = int(rho * 2**64)
        key = splitmix64(seed)
        want = [p for p in primes_1k.tolist()
                if p >= 5 and splitmix64(key ^ p) < threshold]
        got = subset_members(PrimeSubsetSpec.bernoulli(rho, seed), primes_1k)
        assert got.tolist() == want

    def test_all_with_min_prime(self):
        assert list(subset_members(PrimeSubsetSpec.all_primes(), sieve(20))) == [5, 7, 11, 13, 17, 19]

    def test_residue_filter(self):
        spec = PrimeSubsetSpec.residue_classes(11, range(1, 11))
        got = set(subset_members(spec, sieve(100)).tolist())
        want = {p for p in sieve(100).tolist() if p >= 5 and p % 11 != 0}
        assert got == want
        assert 11 not in got

    def test_bernoulli_rho_one_is_all(self):
        primes = sieve(50)
        full = subset_members(PrimeSubsetSpec.all_primes(), primes)
        sampled = subset_members(PrimeSubsetSpec.bernoulli(1.0, seed=1), primes)
        assert np.array_equal(full, sampled)

    def test_bernoulli_reproducible(self, primes_100k):
        spec = PrimeSubsetSpec.bernoulli(0.5, seed=42)
        a = subset_members(spec, primes_100k)
        b = subset_members(spec, primes_100k)
        assert np.array_equal(a, b)
        other = subset_members(PrimeSubsetSpec.bernoulli(0.5, seed=43), primes_100k)
        assert not np.array_equal(a, other)

    def test_members_subset_of_table(self, primes_1k):
        for spec in (
            PrimeSubsetSpec.all_primes(),
            PrimeSubsetSpec.bernoulli(0.3, seed=9),
            PrimeSubsetSpec.residue_classes(7, [1, 2, 4]),
            PrimeSubsetSpec.explicit([5, 11, 9999991]),
        ):
            members = subset_members(spec, primes_1k)
            assert np.all(np.isin(members, primes_1k))
            assert np.all(members >= spec.min_prime)

    @pytest.mark.parametrize("spec", [PrimeSubsetSpec.all_primes(2), PrimeSubsetSpec.bernoulli(1.0, 3, 2)])
    def test_members_never_share_the_table(self, spec):
        primes = sieve(1000)
        members = subset_members(spec, primes)
        assert np.array_equal(members, primes)
        assert not np.shares_memory(members, primes)
        assert members.flags.writeable and members.dtype == np.int64

    @pytest.mark.parametrize(
        "primes",
        [(), (5,), (2, 3, 5, 999983, 1000003), (4, 9, 15), tuple(range(1, 1_000_000, 7))],
        ids=["empty", "one", "edges", "composites", "many"],
    )
    @pytest.mark.parametrize("lo", [0, 500_000, 999_000])
    def test_explicit_equals_intersect1d(self, primes, lo, primes_1m):
        # windows with and without the wanted primes, and an empty list
        window = primes_1m[primes_1m >= lo]
        spec = PrimeSubsetSpec.explicit(primes, min_prime=3)
        got = subset_members(spec, window)
        want = np.intersect1d(window[window >= 3], np.asarray(spec.primes, dtype=np.int64))
        assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_explicit_intersects_table(self, primes_1k):
        spec = PrimeSubsetSpec.explicit([3, 5, 7, 2003])
        # 3 cut by min_prime, 2003 beyond the table
        assert list(subset_members(spec, primes_1k)) == [5, 7]

    def test_min_prime_override(self):
        spec = PrimeSubsetSpec.all_primes(min_prime=2)
        assert list(subset_members(spec, sieve(10))) == [2, 3, 5, 7]


class TestValidation:
    def test_residue_class_not_coprime(self):
        with pytest.raises(ValueError):
            PrimeSubsetSpec.residue_classes(10, [2])

    def test_residue_class_empty(self):
        with pytest.raises(ValueError):
            PrimeSubsetSpec.residue_classes(10, [])

    def test_rho_range(self):
        with pytest.raises(ValueError):
            PrimeSubsetSpec.bernoulli(0.0, seed=1)
        with pytest.raises(ValueError):
            PrimeSubsetSpec.bernoulli(1.5, seed=1)


def density_from_the_full_table(spec, primes):
    """empirical_density as it was: both counts over one table of all the
    primes up to hi."""
    reference = int(np.count_nonzero(primes >= spec.min_prime))
    return len(subset_members(spec, primes)) / reference


def windowed_density(spec, hi):
    """empirical_density's windowed count with no shortcut for a spec that
    keeps every prime."""
    members = reference = 0
    for lo in range(0, hi + 1, DENSITY_WINDOW):
        primes = sieve(min(lo + DENSITY_WINDOW - 1, hi), lo)
        reference += int(np.count_nonzero(primes >= spec.min_prime))
        members += len(subset_members(spec, primes))
    if reference == 0:
        raise ValueError(f"no primes >= {spec.min_prime} below {hi}; density undefined")
    return members / reference


# primes beside each window edge up to the oracle's top, for explicit lists
EDGE_PRIMES = sorted({p for k in range(7) for p in sieve(k * WINDOW + 300, max(k * WINDOW - 300, 0)).tolist()})


def member_by_definition(spec, p):
    """Whether prime p >= min_prime is in spec's subset, read off the spec."""
    if spec.variant == "residue_classes":
        return p % spec.modulus in spec.classes
    if spec.variant == "explicit_list":
        return p in spec.primes
    if spec.variant == "bernoulli_sample":
        return splitmix64(splitmix64(spec.seed) ^ p) < int(spec.rho * 2**64)
    return True


@st.composite
def density_specs(draw):
    """Residue specs mod 2-30 (24 among them) over random reduced class sets;
    explicit lists holding composites, values past the oracle's top and values
    below min_prime; bernoulli specs, rho = 1 among them."""
    min_prime = draw(st.sampled_from([2, 3, 5, 7, 11]))
    kind = draw(st.sampled_from(["residues", "explicit", "bernoulli"]))
    if kind == "residues":
        q = draw(st.one_of(st.integers(2, 30), st.just(24)))
        reduced = [c for c in range(q) if math.gcd(c, q) == 1]
        classes = draw(st.lists(st.sampled_from(reduced), min_size=1, unique=True))
        return PrimeSubsetSpec.residue_classes(q, classes, min_prime)
    if kind == "explicit":
        values = st.one_of(st.sampled_from(EDGE_PRIMES), st.integers(-5, 20), st.integers(0, TOP + 1000))
        return PrimeSubsetSpec.explicit(draw(st.lists(values, max_size=30)), min_prime)
    rho = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    return PrimeSubsetSpec.bernoulli(rho, draw(st.integers(0, 2**40)), min_prime)


class TestDensity:
    def test_all_is_one(self):
        assert empirical_density(PrimeSubsetSpec.all_primes(), 100_000) == 1.0

    def test_bernoulli_near_rho(self):
        d = empirical_density(PrimeSubsetSpec.bernoulli(0.9, seed=7), 1_000_000)
        assert abs(d - 0.9) < 0.01

    def test_residue_classes_mod_11(self, primes_1m):
        # Dropping the zero class mod 11 removes only the prime 11 itself, so
        # the finite-scale density sits at essentially 1 (direct-count oracle).
        spec = PrimeSubsetSpec.residue_classes(11, range(1, 11))
        base = primes_1m[primes_1m >= 5]
        oracle = len(base[base % 11 != 0]) / len(base)
        d = empirical_density(spec, 1_000_000)
        assert d == pytest.approx(oracle, abs=0)
        assert d > 0.999

    def test_empty_reference(self):
        with pytest.raises(ValueError, match="density undefined"):
            empirical_density(PrimeSubsetSpec.all_primes(), 4)
        assert empirical_density(PrimeSubsetSpec.all_primes(), 5) == 1.0

    # hi on the edges of the second window, and the oracle's top
    @pytest.mark.parametrize("hi", [2 * WINDOW - 1, 2 * WINDOW, 2 * WINDOW + 1, TOP])
    @pytest.mark.parametrize(
        "spec",
        [
            PrimeSubsetSpec.all_primes(),
            PrimeSubsetSpec.residue_classes(5, [1, 4]),
            PrimeSubsetSpec.bernoulli(0.97, seed=7),
            PrimeSubsetSpec.explicit([2, 3, 5, 4194301, 4194319, 12582917], min_prime=3),
        ],
        ids=["all", "residues", "bernoulli", "explicit"],
    )
    def test_windows_equal_the_full_table(self, spec, hi, oracle_primes, monkeypatch):
        import psqlab.primes as primes_mod

        calls = []  # every window marked, by a sieve or by the density
        real = primes_mod._odd_marks
        monkeypatch.setattr(primes_mod, "_odd_marks", lambda limit, lo: calls.append((lo, limit)) or real(limit, lo))
        table = oracle_primes[oracle_primes <= hi]
        assert empirical_density(spec, hi) == density_from_the_full_table(spec, table)
        if spec.variant == "all":  # density 1.0 by Bertrand's postulate: no window
            assert all(limit <= math.isqrt(hi) for lo, limit in calls)
        else:
            assert max(limit - lo + 1 for lo, limit in calls) <= WINDOW  # no sieve past one window

    @settings(max_examples=60, deadline=None)
    @given(
        spec=density_specs(),
        hi=st.one_of(
            st.builds(lambda k, d: max(k * WINDOW + d, 0), st.integers(0, 6), st.integers(-1, 1)),
            st.integers(0, 3000),
        ),
    )
    @example(spec=PrimeSubsetSpec.explicit([2], min_prime=2), hi=2)
    @example(spec=PrimeSubsetSpec.residue_classes(24, [1, 5, 7, 11, 13, 17, 19, 23], min_prime=2), hi=WINDOW)
    def test_slices_equal_the_full_table(self, oracle_primes, spec, hi):
        # the counts over slices of each window's marks are the counts over
        # one table of every prime up to hi, and the members those of the
        # spec's definition
        table = oracle_primes[oracle_primes <= hi]
        if not np.count_nonzero(table >= spec.min_prime):
            with pytest.raises(ValueError, match="density undefined"):
                empirical_density(spec, hi)
            return
        assert empirical_density(spec, hi) == density_from_the_full_table(spec, table)
        head = table[:500]
        want = [p for p in head.tolist() if p >= spec.min_prime and member_by_definition(spec, p)]
        assert subset_members(spec, head).tolist() == want

    def test_holds_one_window_of_marks(self):
        # a window's marks are a byte per odd number, DENSITY_WINDOW // 2
        # bytes, and the count holds one window of them (about 1.2 MiB
        # traced); an int64 table of a window's primes with its masks and
        # members would take about 3.4 MiB
        spec = PrimeSubsetSpec.residue_classes(5, [1, 4])
        empirical_density(spec, 1000)  # the first call's imports and caches
        tracemalloc.start()
        try:
            empirical_density(spec, 2 * DENSITY_WINDOW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < DENSITY_WINDOW  # two windows of marks

    @pytest.mark.parametrize("min_prime", [-3, 0, 1, 2, 3, 4, 5, 7, 8, 100])
    def test_keep_all_equals_the_windows(self, min_prime):
        # the shortcut gives what the windowed count gives, raising where it raises
        for spec in (PrimeSubsetSpec.all_primes(min_prime), PrimeSubsetSpec.bernoulli(1.0, 3, min_prime)):
            for hi in range(0, 301):
                try:
                    want = windowed_density(spec, hi)
                except ValueError:
                    with pytest.raises(ValueError, match="density undefined"):
                        empirical_density(spec, hi)
                else:
                    assert empirical_density(spec, hi) == want, (min_prime, hi)


class TestJsonWireFormat:
    def test_keys_and_roundtrip(self):
        spec = PrimeSubsetSpec.residue_classes(11, range(1, 11), min_prime=7)
        blob = spec.to_json()
        assert blob == {
            "variant": "residue_classes",
            "min_prime": 7,
            "modulus": 11,
            "classes": list(range(1, 11)),
        }
        assert PrimeSubsetSpec.from_json(json.dumps(blob)) == spec

    def test_roundtrip_all_variants(self):
        specs = [
            PrimeSubsetSpec.all_primes(),
            PrimeSubsetSpec.bernoulli(0.25, seed=11),
            PrimeSubsetSpec.explicit([5, 13]),
        ]
        for spec in specs:
            assert PrimeSubsetSpec.from_json(spec.to_json()) == spec
