"""Partial-sum mean values: profiles, exact sums, dual oracle, integrator, predictions."""

from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import exp, log, prod

import pytest
from numpy import euler_gamma

from pseudomagic.ehrhart import pseudomagic_polynomial
from pseudomagic.errors import MAX_THREADS, BudgetError
from pseudomagic.zeta import (
    MAX_GRID_POINTS,
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

    def test_threads_reassociate_within_tolerance(self):
        v1, _ = numeric_moment(1, 6, 500.0, 20000, threads=1)
        v2, _ = numeric_moment(1, 6, 500.0, 20000, threads=3)
        assert abs(v1 - v2) <= 1e-10 * abs(v1)

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
