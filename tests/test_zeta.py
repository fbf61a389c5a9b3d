"""Partial-sum mean values: profiles, exact sums, dual oracle, integrator, predictions."""

import re
from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import exp, isqrt, log, prod
from random import Random

import numpy as np
import pytest
from numpy import euler_gamma

from pseudomagic.ehrhart import pseudomagic_polynomial
from pseudomagic.errors import MAX_THREADS, BudgetError
from pseudomagic.zeta import (
    _RUN,
    DEFAULT_PAIR_BUDGET,
    MAX_GRID_POINTS,
    _exact_sum,
    _partial_sum_power,
    convergence_ladder,
    divisor_profile,
    mv_pseudomoment,
    numeric_moment,
    pair_sum_oracle,
    prediction,
)


class TestDivisorProfile:
    def test_k2_x3_excludes_out_of_range_factors(self):
        prof = divisor_profile(2, 3)
        assert prof.counts[4] == 1  # only 2*2; 1*4 and 4*1 are cut off

    def test_k2_x2_full_table(self):
        assert divisor_profile(2, 2).counts == {1: 1, 2: 2, 4: 1}

    def test_k1_trivial(self):
        assert divisor_profile(1, 5).counts == {n: 1 for n in range(1, 6)}

    @pytest.mark.parametrize("k,x", [(1, 7), (2, 6), (3, 4)])
    def test_tuple_conservation(self, k, x):
        prof = divisor_profile(k, x)
        assert sum(prof.counts.values()) == x**k

    def test_one_at_one(self):
        prof = divisor_profile(3, 4)
        assert prof.counts[1] == 1

    def test_bounds_permutation_invariance(self):
        assert divisor_profile(2, (3, 5)).counts == divisor_profile(2, (5, 3)).counts
        assert divisor_profile(3, (2, 4, 3)).counts == divisor_profile(3, (4, 3, 2)).counts

    def test_multivariate_conservation(self):
        prof = divisor_profile(2, (3, 5))
        assert sum(prof.counts.values()) == 15
        assert prof.total_tuples == 15

    @pytest.mark.parametrize("bounds", [
        (1,), (17,), (6, 9), (12, 1), (2, 7, 5), (9, 3, 4), (3, 6, 2, 5), (1, 4, 8, 2),
    ])
    def test_matches_tuple_enumeration(self, bounds):
        ref = Counter(prod(t) for t in product(*(range(1, b + 1) for b in bounds)))
        assert divisor_profile(len(bounds), bounds).counts == ref

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            divisor_profile(3, 100, tuple_budget=10**4)

    def test_validation(self):
        with pytest.raises(ValueError):
            divisor_profile(0, 5)
        with pytest.raises(ValueError):
            divisor_profile(2, (3,))
        with pytest.raises(ValueError):
            divisor_profile(1, 0)


class TestMeanValue:
    def test_harmonic_anchor(self):
        assert mv_pseudomoment(divisor_profile(1, 3)) == F(11, 6)

    def test_k2_anchor(self):
        assert mv_pseudomoment(divisor_profile(2, 2)) == F(13, 4)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_x1_endpoint(self, k):
        assert mv_pseudomoment(divisor_profile(k, 1)) == 1

    def test_nondecreasing_in_x_k2(self):
        values = [mv_pseudomoment(divisor_profile(2, x)) for x in range(1, 9)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_harmonic_x10(self):
        assert mv_pseudomoment(divisor_profile(1, 10)) == F(7381, 2520)


def _mv_per_term(bounds):
    counts = divisor_profile(len(bounds), bounds).counts
    return sum((F(d * d, n) for n, d in counts.items()), F(0))


def _structured_grid():
    """Bound tuples for k = 1..4: random ones with a strictly largest bound (simple
    primes present) and with a tied largest bound (none present), bounds of 1,
    and prime and prime-power bounds."""
    rng = Random(22)
    caps = {1: 2000, 2: 60, 3: 15, 4: 8}
    grid = []
    for k, cap in caps.items():
        for _ in range(4):
            rest = [rng.randint(1, cap - 1) for _ in range(k - 1)]
            grid.append(tuple(rest + [rng.randint(max(rest, default=0) + 1, cap)]))
            if k > 1:
                top = rng.randint(2, cap)
                rest = [rng.randint(1, top) for _ in range(k - 2)]
                grid.append(tuple(rng.sample(rest + [top, top], k)))
    grid += [(1,), (2,), (3,), (4,), (1, 1), (1, 9), (9, 1), (1, 1, 1, 1), (1, 1, 13, 1)]
    grid += [(97,), (128,), (243,), (1024,), (49, 13), (7, 49), (32, 27), (27, 32),
             (25, 25), (11, 13, 4), (8, 9, 5, 7)]
    return grid


class TestStructuredMeanValue:
    @pytest.mark.parametrize("bounds", _structured_grid())
    def test_matches_per_term_fractions(self, bounds):
        assert mv_pseudomoment(divisor_profile(len(bounds), bounds)) == _mv_per_term(bounds)

    @pytest.mark.parametrize("bounds", [(30,), (97,), (5, 40), (7, 3, 50), (2, 2, 2, 19)])
    def test_simple_prime_shifts_the_profile(self, bounds):
        # d_b(p*m) = d_{b*}(m), b* with the largest bound B replaced by B // p, for
        # every prime p > max(isqrt(B), the other bounds); no other key carries p
        top = max(bounds)
        i = bounds.index(top)
        floor = max((isqrt(top), *bounds[:i], *bounds[i + 1:]))
        simple = [p for p in range(floor + 1, top + 1) if all(p % r for r in range(2, p))]
        assert simple
        counts = divisor_profile(len(bounds), bounds).counts
        for p in simple:
            star = bounds[:i] + (top // p,) + bounds[i + 1:]
            shifted = {n // p: d for n, d in counts.items() if n % p == 0}
            assert shifted == divisor_profile(len(star), star).counts


class TestExactSum:
    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 129])
    def test_run_edges(self, count):
        terms = [(3 * i + 1, i % 17 + 1) for i in range(count)]
        assert _exact_sum(terms) == sum((F(c, d) for c, d in terms), F(0))
        assert _exact_sum(iter(terms)) == _exact_sum(terms)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_profiles(self, seed):
        rng = Random(seed)
        k = seed % 3 + 1
        while True:  # unequal cutoffs, with a term count that leaves a partial last run
            bounds = tuple(rng.randint(2, {1: 300, 2: 40, 3: 12}[k]) for _ in range(k))
            counts = divisor_profile(k, bounds).counts
            if len(set(bounds)) == k and len(counts) % _RUN and len(counts) > _RUN:
                break
        terms = [(d * d, n) for n, d in counts.items()]
        assert _exact_sum(terms) == sum((F(c, d) for c, d in terms), F(0))

    def test_run_with_lcm_one(self):
        terms = [(i, 1) for i in range(-5, 2 * _RUN)]
        assert _exact_sum(terms) == sum(range(-5, 2 * _RUN))
        assert _exact_sum([(1, 1)] * _RUN + [(1, 2)]) == F(2 * _RUN + 1, 2)


class TestPairOracle:
    @pytest.mark.parametrize("x", range(1, 21))
    def test_k1_matches(self, x):
        assert pair_sum_oracle(1, x) == mv_pseudomoment(divisor_profile(1, x))

    @pytest.mark.parametrize("x", range(1, 7))
    def test_k2_matches(self, x):
        assert pair_sum_oracle(2, x) == mv_pseudomoment(divisor_profile(2, x))

    @pytest.mark.parametrize("x", range(1, 4))
    def test_k3_matches(self, x):
        assert pair_sum_oracle(3, x) == mv_pseudomoment(divisor_profile(3, x))

    @pytest.mark.parametrize("k,x", [(1, 200), (2, 15), (3, 6)])
    def test_matches_across_runs(self, k, x):
        # the oracle's equal pairs fill several runs of the summation kernel
        profile = divisor_profile(k, x)
        assert x ** (2 * k) <= DEFAULT_PAIR_BUDGET
        assert sum(d * d for d in profile.counts.values()) > 2 * _RUN
        assert pair_sum_oracle(k, x) == mv_pseudomoment(profile)

    @pytest.mark.parametrize("k,x", [(1, 1000), (2, 31), (3, 10)])
    def test_matches_at_bench_sizes(self, k, x):
        assert x ** (2 * k) <= DEFAULT_PAIR_BUDGET
        assert pair_sum_oracle(k, x) == mv_pseudomoment(divisor_profile(k, x))

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            pair_sum_oracle(2, 100, pair_budget=10**4)

    def test_validation(self):
        with pytest.raises(ValueError):
            pair_sum_oracle(0, 3)
        with pytest.raises(ValueError):
            pair_sum_oracle(1, 0)


class TestNumericMoment:
    def test_x1_is_exactly_one(self):
        value, err = numeric_moment(2, 1, 50.0, 100)
        assert value == 1.0
        assert err == 0.0

    def test_k1_x2_converges_to_mean_value(self):
        value, _ = numeric_moment(1, 2, 2e4, 4 * 10**5)
        assert value == pytest.approx(1.5, rel=1e-2)

    def test_values_do_not_depend_on_the_thread_count(self):
        runs = [numeric_moment(1, 6, 500.0, 20000, threads=t) for t in (1, 2, 3, 7)]
        assert runs[1:] == runs[:1] * 3

    def test_grid_matches_matrix_product_reference(self):
        t = np.linspace(0.0, 300.0, 5001)
        n = np.arange(1, 41)
        ref = abs(np.exp(-1j * t[:, None] * np.log(n)[None, :]) @ n ** -0.5) ** 4
        assert np.allclose(_partial_sum_power(2, 40, t, 1), ref, rtol=1e-12, atol=0)

    def test_reproducible_for_fixed_threads(self):
        assert numeric_moment(2, 7, 300.0, 9000, threads=2) == numeric_moment(
            2, 7, 300.0, 9000, threads=2
        )

    def test_single_thread_run_keeps_to_one_core(self, cpu_per_wall_second):
        numeric_moment(2, 40, 30.0, 3000)  # warm up
        assert cpu_per_wall_second(lambda: numeric_moment(2, 40, 3000.0, 3 * 10**5)) < 1.5

    @pytest.mark.parametrize("threads", [0, -1, MAX_THREADS + 1, 10**9])
    def test_thread_count_bounded_before_any_pool(self, threads):
        with pytest.raises(ValueError, match="threads"):
            numeric_moment(1, 2, 10.0, 200, threads=threads)

    def test_odd_steps_error_estimate_spans_the_window(self):
        _, even = numeric_moment(1, 2, 100.0, 2000)
        _, odd = numeric_moment(1, 2, 100.0, 2001)
        assert odd <= 10 * even

    @pytest.mark.parametrize("x,steps", [(5, MAX_GRID_POINTS), (MAX_GRID_POINTS + 1, 100)])
    def test_grid_ceiling(self, x, steps):
        with pytest.raises(BudgetError, match=str(MAX_GRID_POINTS)):
            numeric_moment(1, x, 10.0, steps)

    def test_warns_on_coarse_grid(self):
        with pytest.warns(UserWarning):
            numeric_moment(1, 10, 1000.0, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            numeric_moment(0, 2, 10.0, 100)
        with pytest.raises(ValueError):
            numeric_moment(1, 2, -1.0, 100)
        with pytest.raises(ValueError):
            numeric_moment(1, 2, 10.0, 1)
        for t_max in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="t_max"):
                numeric_moment(1, 2, t_max, 100)


class TestPrediction:
    def test_k1_at_log2(self):
        full, leading = prediction(1, exp(2), 1.0, pseudomagic_polynomial(1))
        assert full == pytest.approx(3.0, abs=1e-9)
        assert leading == pytest.approx(2.0, abs=1e-9)

    def test_k1_large_x(self):
        full, _ = prediction(1, 10**6, 1.0, pseudomagic_polynomial(1))
        assert full == pytest.approx(log(10**6) + 1, abs=1e-9)

    def test_leading_is_top_monomial(self):
        gpoly = pseudomagic_polynomial(2)
        _, leading = prediction(2, 1000, 0.5, gpoly)
        assert leading == pytest.approx(0.5 * float(gpoly.leading_coefficient) * log(1000) ** 4)

    def test_validation(self):
        gpoly = pseudomagic_polynomial(1)
        for k, x in [(0, 10), (1, 0), (1, -2.0), (1, float("nan")), (1, float("inf")),
                     (1, float("-inf"))]:
            with pytest.raises(ValueError):
                prediction(k, x, 1.0, gpoly)
        full, _ = prediction(1, 10**400, 1.0, gpoly)
        assert full == pytest.approx(400 * log(10) + 1)

    @pytest.mark.parametrize("x", [0.5, 0.999, F(1, 2)])
    def test_x_below_one_refused(self, x):
        # no n <= x < 1, so the partial sum is empty; the exact routes refuse it too
        with pytest.raises(ValueError, match=re.escape(f"x must be at least 1, got {x!r}")):
            prediction(1, x, 1.0, pseudomagic_polynomial(1))

    def test_x_zero_keeps_its_message(self):
        with pytest.raises(ValueError, match="x must be positive, got 0"):
            prediction(1, 0, 1.0, pseudomagic_polynomial(1))

    def test_x_one_is_the_constant_term(self):
        assert prediction(1, 1, 1.0, pseudomagic_polynomial(1)) == (1.0, 0.0)


class TestLadder:
    def test_k1_small_rungs(self):
        rows = convergence_ladder(1, range(1, 201), prime_limit=10**3)
        assert [r.x for r in rows] == list(range(1, 201))
        assert rows[9].exact == F(7381, 2520)
        assert rows[9].ratio_full < rows[99].ratio_full < 1.0
        # ratio_full = H_X / (log X + 1), and 0 < H_X - log X - gamma < 1/X for
        # every X >= 1; at X = 1 and 2 the ceiling 1.0 is the binding upper bound.
        for r in rows:
            logx = log(r.x)
            lo = (logx + euler_gamma) / (logx + 1)
            hi = (logx + euler_gamma + 1 / r.x) / (logx + 1)
            assert lo < r.ratio_full < hi, (r.x, r.ratio_full, lo, hi)
            assert r.ratio_full <= 1.0, (r.x, r.ratio_full)

    def test_x1_endpoint(self):
        row = convergence_ladder(1, [1], prime_limit=10**3)[0]
        assert row.exact == 1
        assert row.prediction_full == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2])
    def test_x1_has_no_leading_ratio(self, k):
        # the leading prediction is 0 at X = 1, so the ratio to it is undefined
        row = convergence_ladder(k, [1], prime_limit=10**3)[0]
        assert row.prediction_leading == 0.0
        assert row.ratio_leading is None
