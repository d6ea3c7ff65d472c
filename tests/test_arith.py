import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqlab.arith import (
    divisor_count,
    euler_phi,
    factorize,
    mod_inverse,
)


def phi_oracle(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def tau_oracle(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


class TestModInverse:
    def test_identity(self):
        assert mod_inverse(1, 7) == 1

    def test_w_mod_q(self):
        # inverse of 24 mod 5 is the inverse of 4, which is 4 (4*4 = 16 = 1 mod 5)
        assert mod_inverse(24, 5) == 4

    def test_non_invertible(self):
        with pytest.raises(ValueError, match="is not invertible mod"):
            mod_inverse(2, 4)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            mod_inverse(1, 1)

    @given(st.integers(2, 10_000), st.integers(1, 10_000))
    def test_inverse_property(self, m, a):
        if math.gcd(a, m) != 1:
            with pytest.raises(ValueError, match="is not invertible mod"):
                mod_inverse(a, m)
        else:
            x = mod_inverse(a, m)
            assert 1 <= x <= m - 1
            assert (a * x) % m == 1


class TestEulerPhi:
    def test_one(self):
        assert euler_phi(1) == 1

    def test_examples(self):
        assert euler_phi(24) == phi_oracle(24) == 8
        assert euler_phi(120) == phi_oracle(120) == 32

    @given(st.integers(1, 2000))
    def test_against_unit_count(self, n):
        assert euler_phi(n) == phi_oracle(n)

    @given(st.integers(1, 500), st.integers(1, 500))
    def test_multiplicative(self, m, n):
        if math.gcd(m, n) == 1:
            assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)


class TestDivisorCount:
    def test_examples(self):
        assert divisor_count(1) == 1
        assert divisor_count(12) == tau_oracle(12) == 6
        assert divisor_count(49) == tau_oracle(49) == 3

    @given(st.integers(1, 3000))
    def test_against_enumeration(self, n):
        assert divisor_count(n) == tau_oracle(n)


class TestFactorize:
    def test_one_is_empty(self):
        assert factorize(1) == ()

    def test_examples(self):
        assert factorize(24) == ((2, 3), (3, 1))
        assert factorize(97) == ((97, 1),)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_product_reconstructs_dense(self):
        for n in range(1, 20_000):
            assert math.prod(p**e for p, e in factorize(n)) == n

    @settings(max_examples=300)
    @given(st.integers(1, 1_000_000))
    def test_product_reconstructs_sampled(self, n):
        pairs = factorize(n)
        assert math.prod(p**e for p, e in pairs) == n
        ps = [p for p, _ in pairs]
        assert ps == sorted(set(ps))
        assert all(e >= 1 for _, e in pairs)

    def test_large_arguments(self):
        # a cofactor below 2^32, or nothing left after the primes below 2^16
        assert factorize(3 * (2**32 - 5)) == ((3, 1), (2**32 - 5, 1))
        assert factorize(2**40 * 65521**3) == ((2, 40), (65521, 3))
        # 65537 * 65539 >= 2^32 has no prime factor below 2^16
        with pytest.raises(ValueError, match="cofactor"):
            factorize(7 * 65537 * 65539)

    def test_squarefree_flag(self):
        assert all(e == 1 for _, e in factorize(30))
        assert not all(e == 1 for _, e in factorize(12))
