import json
import math

import numpy as np
import pytest

from psqlab.errors import TooLarge
from psqlab.primes import (
    MAX_SIEVE_LIMIT,
    _splitmix64_array,
    PrimeSubsetSpec,
    empirical_density,
    sieve,
    splitmix64,
    subset_members,
)


class TestSieve:
    def test_small(self):
        assert list(sieve(10).primes) == [2, 3, 5, 7]

    def test_hundred(self):
        assert len(sieve(100).primes) == 25

    def test_million(self, table_1m):
        assert len(table_1m.primes) == 78498

    def test_membership_spot_checks(self, table_100k):
        rng = np.random.default_rng(0)
        for n in rng.integers(2, 100_000, 200):
            n = int(n)
            is_p = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
            assert table_100k.is_prime(n) == is_p

    def test_is_prime_edges(self):
        table = sieve(97)
        assert [n for n in range(-3, 110) if table.is_prime(n)] == list(table.primes)
        assert not sieve(100).is_prime(101)  # prime, but past the table

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            sieve(1)
        with pytest.raises(TooLarge):
            sieve(MAX_SIEVE_LIMIT + 1)


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
    def test_bernoulli_keeps_by_hash_threshold(self, table_1k, rho, seed):
        threshold = int(rho * 2**64)
        key = splitmix64(seed)
        want = [p for p in table_1k.primes.tolist()
                if p >= 5 and splitmix64(key ^ p) < threshold]
        got = subset_members(PrimeSubsetSpec.bernoulli(rho, seed), table_1k)
        assert got.tolist() == want

    def test_all_with_min_prime(self):
        table = sieve(20)
        assert list(subset_members(PrimeSubsetSpec.all_primes(), table)) == [5, 7, 11, 13, 17, 19]

    def test_residue_filter(self, table_1k):
        spec = PrimeSubsetSpec.residue_classes(11, range(1, 11))
        got = set(subset_members(spec, sieve(100)).tolist())
        want = {p for p in sieve(100).primes.tolist() if p >= 5 and p % 11 != 0}
        assert got == want
        assert 11 not in got

    def test_bernoulli_rho_one_is_all(self):
        table = sieve(50)
        full = subset_members(PrimeSubsetSpec.all_primes(), table)
        sampled = subset_members(PrimeSubsetSpec.bernoulli(1.0, seed=1), table)
        assert np.array_equal(full, sampled)

    def test_bernoulli_reproducible(self, table_100k):
        spec = PrimeSubsetSpec.bernoulli(0.5, seed=42)
        a = subset_members(spec, table_100k)
        b = subset_members(spec, table_100k)
        assert np.array_equal(a, b)
        other = subset_members(PrimeSubsetSpec.bernoulli(0.5, seed=43), table_100k)
        assert not np.array_equal(a, other)

    def test_members_subset_of_table(self, table_1k):
        for spec in (
            PrimeSubsetSpec.all_primes(),
            PrimeSubsetSpec.bernoulli(0.3, seed=9),
            PrimeSubsetSpec.residue_classes(7, [1, 2, 4]),
            PrimeSubsetSpec.explicit([5, 11, 9999991]),
        ):
            members = subset_members(spec, table_1k)
            assert np.all(np.isin(members, table_1k.primes))
            assert np.all(members >= spec.min_prime)

    @pytest.mark.parametrize("spec", [PrimeSubsetSpec.all_primes(2), PrimeSubsetSpec.bernoulli(1.0, 3, 2)])
    def test_members_never_share_the_table(self, spec):
        table = sieve(1000)
        members = subset_members(spec, table)
        assert np.array_equal(members, table.primes)
        assert not np.shares_memory(members, table.primes)
        assert table.primes.dtype == np.int64

    def test_explicit_intersects_table(self, table_1k):
        spec = PrimeSubsetSpec.explicit([3, 5, 7, 2003])
        # 3 cut by min_prime, 2003 beyond the table
        assert list(subset_members(spec, table_1k)) == [5, 7]

    def test_min_prime_override(self, table_1k):
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


class TestDensity:
    def test_all_is_one(self, table_100k):
        assert empirical_density(PrimeSubsetSpec.all_primes(), table_100k) == 1.0

    def test_bernoulli_near_rho(self, table_1m):
        d = empirical_density(PrimeSubsetSpec.bernoulli(0.9, seed=7), table_1m)
        assert abs(d - 0.9) < 0.01

    def test_residue_classes_mod_11(self, table_1m):
        # Dropping the zero class mod 11 removes only the prime 11 itself, so
        # the finite-scale density sits at essentially 1 (direct-count oracle).
        spec = PrimeSubsetSpec.residue_classes(11, range(1, 11))
        base = table_1m.primes[table_1m.primes >= 5]
        oracle = len(base[base % 11 != 0]) / len(base)
        d = empirical_density(spec, table_1m)
        assert d == pytest.approx(oracle, abs=0)
        assert d > 0.999

    def test_empty_reference(self):
        table = sieve(3)
        with pytest.raises(ValueError, match="density undefined"):
            empirical_density(PrimeSubsetSpec.all_primes(), table)


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
