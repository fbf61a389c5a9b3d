"""Arithmetic factors: local-count identities, anchors, and truncation self-consistency."""

import subprocess
import sys
from functools import lru_cache
from math import comb, isfinite, pi

import pytest
from mpmath import mp, mpf, workprec

from pseudomagic.errors import BudgetError
from pseudomagic.euler import (
    MAX_K_A,
    MAX_K_B,
    MAX_PRIME_LIMIT,
    arithmetic_factor_a,
    arithmetic_factor_b,
    primes_up_to,
)


def dk_prime_power(k: int, j: int) -> int:
    """Number of ordered factorizations of p^j into k factors: binom(j+k-1, k-1)."""
    if k < 1:
        raise ValueError("k must be positive")
    if j < 0:
        raise ValueError("j must be nonnegative")
    return comb(j + k - 1, k - 1)


def _local_a_ref(k, p):
    x = mpf(1) / p
    return (1 - x) ** ((k - 1) ** 2) * sum(comb(k - 1, i) ** 2 * x**i for i in range(k))


def _local_b_ref(k, p):
    x = mpf(1) / p
    q = mp.sqrt(x)
    bracket = ((1 - q) ** (-k) + (1 + q) ** (-k)) / 2 + x
    return (1 - x) ** (k * (k + 1) // 2) / (1 + x) * bracket


@lru_cache(maxsize=None)
def _product_ref(local, k, limit):
    """The closed-form product at 200 bits, multiplied directly (no logs, no fsum)."""
    with workprec(200):
        acc = mpf(1)
        for p in primes_up_to(limit):
            acc *= local(k, p)
        return acc


class TestPrimes:
    def test_small(self):
        assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_edge(self):
        assert primes_up_to(1) == []
        assert primes_up_to(2) == [2]

    def test_count_to_1e4(self):
        assert len(primes_up_to(10**4)) == 1229

    @pytest.mark.parametrize("factor", [primes_up_to, lambda n: arithmetic_factor_a(1, n),
                                        lambda n: arithmetic_factor_b(1, n)])
    def test_ceiling_refused_before_the_sieve(self, factor):
        with pytest.raises(BudgetError, match=str(MAX_PRIME_LIMIT)):
            factor(MAX_PRIME_LIMIT + 1)


class TestLocalCounts:
    def test_examples(self):
        assert dk_prime_power(2, 3) == 4
        assert dk_prime_power(3, 2) == 6

    @pytest.mark.parametrize("j", range(6))
    def test_k1_always_one(self, j):
        assert dk_prime_power(1, j) == 1

    def test_j_zero(self):
        assert dk_prime_power(5, 0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            dk_prime_power(0, 1)
        with pytest.raises(ValueError):
            dk_prime_power(1, -1)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_closed_form_of_local_series(self, k):
        # sum_j d_k(p^j)^2 x^j * (1-x)^(2k-1) == sum_i binom(k-1, i)^2 x^i,
        # compared coefficient by coefficient in exact integers
        n = 40
        series = [dk_prime_power(k, j) ** 2 for j in range(n)]
        factor = [(-1) ** i * comb(2 * k - 1, i) for i in range(2 * k)]
        product = [
            sum(series[j] * factor[d - j] for j in range(d + 1) if d - j < len(factor))
            for d in range(n)
        ]
        closed = [comb(k - 1, i) ** 2 for i in range(k)]
        assert product == closed + [0] * (n - k)


class TestFactorA:
    def test_k1_telescopes(self):
        res = arithmetic_factor_a(1, prime_limit=10**4, j_terms=50)
        assert abs(res.value - 1.0) < 1e-12
        assert res.tail_estimate < 1e-12

    def test_k2_matches_zeta2(self):
        res = arithmetic_factor_a(2, prime_limit=10**4, j_terms=64)
        assert abs(res.value - 6 / pi**2) < 1e-4

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_doubling_within_tail(self, k):
        r1 = arithmetic_factor_a(k, prime_limit=10**4, j_terms=64)
        r2 = arithmetic_factor_a(k, prime_limit=2 * 10**4, j_terms=64)
        assert r1.value > 0 and r2.value > 0
        assert abs(r2.value - r1.value) <= r1.tail_estimate

    def test_result_fields(self):
        res = arithmetic_factor_a(2, prime_limit=100, j_terms=32)
        assert res.k == 2 and res.prime_limit == 100

    def test_j_terms_is_inert(self):
        # the local series is summed in closed form, so its old cutoff does nothing
        shallow = arithmetic_factor_a(8, prime_limit=100, j_terms=1)
        deep = arithmetic_factor_a(8, prime_limit=100, j_terms=64)
        assert isfinite(shallow.value) and shallow.value > 0
        assert shallow.value == deep.value
        assert shallow.tail_estimate == deep.tail_estimate

    @pytest.mark.parametrize("k", [35, 300])
    def test_underflow_keeps_the_last_prime_tail(self, k):
        # the product is 0.0 after p=2, but the tail still comes from p_max=97
        res = arithmetic_factor_a(k, prime_limit=100)
        assert res.value == 0.0
        with workprec(200):
            ref = abs(_local_a_ref(k, 97) - 1) * 97**2 / 100
        assert res.tail_estimate == pytest.approx(float(ref), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            arithmetic_factor_a(0, prime_limit=100)
        with pytest.raises(ValueError):
            arithmetic_factor_a(2, prime_limit=1)
        with pytest.raises(ValueError):
            arithmetic_factor_a(2, prime_limit=100, j_terms=0)
        with pytest.raises(BudgetError):
            arithmetic_factor_a(MAX_K_A + 1, prime_limit=100)


class TestFactorB:
    def test_k1_matches_simplified_form(self):
        # independent route: the k=1 local factor reduces to 1 - 1/(p^2+p)
        limit = 10**4
        res = arithmetic_factor_b(1, prime_limit=limit)
        with workprec(113):
            acc = mpf(1)
            for p in primes_up_to(limit):
                acc *= 1 - mpf(1) / (p * p + p)
            direct = float(acc)
        assert abs(res.value - direct) < 1e-12

    def test_k1_local_factor_at_2(self):
        # single-prime product: exactly 1 - 1/(4+2) = 5/6
        res = arithmetic_factor_b(1, prime_limit=2)
        assert abs(res.value - 5 / 6) < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_doubling_within_tail(self, k):
        r1 = arithmetic_factor_b(k, prime_limit=10**4)
        r2 = arithmetic_factor_b(k, prime_limit=2 * 10**4)
        assert r1.value > 0 and r2.value > 0
        assert abs(r2.value - r1.value) <= r1.tail_estimate

    def test_k2_stable(self):
        r1 = arithmetic_factor_b(2, prime_limit=10**4)
        r2 = arithmetic_factor_b(2, prime_limit=4 * 10**4)
        assert abs(r2.value - r1.value) < 1e-4

    def test_large_k_underflows(self):
        # (1 - p^(-1/2))^(-k) overflows float64 at p=2 from k of about 580 on
        res = arithmetic_factor_b(1200, prime_limit=100)
        assert res.value == 0.0 and isfinite(res.tail_estimate)
        res = arithmetic_factor_b(MAX_K_B, prime_limit=100)
        assert res.value == 0.0 and isfinite(res.tail_estimate)

    def test_validation(self):
        with pytest.raises(ValueError):
            arithmetic_factor_b(0, prime_limit=100)
        with pytest.raises(ValueError):
            arithmetic_factor_b(1, prime_limit=1)
        with pytest.raises(BudgetError):
            arithmetic_factor_b(MAX_K_B + 1, prime_limit=100)


class TestAgainstHighPrecision:
    """Float64 log-domain products against the same closed forms at 200 bits."""

    @pytest.mark.parametrize("limit", [2000, 10**4])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_factor_a(self, k, limit):
        ref = _product_ref(_local_a_ref, k, limit)
        assert abs(arithmetic_factor_a(k, prime_limit=limit).value - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("limit", [2000, 10**4])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_factor_b(self, k, limit):
        ref = _product_ref(_local_b_ref, k, limit)
        assert abs(arithmetic_factor_b(k, prime_limit=limit).value - ref) <= 1e-14 * ref


def test_import_does_not_load_mpmath():
    code = "import sys, pseudomagic; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
