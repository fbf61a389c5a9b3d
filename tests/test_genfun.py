"""Generating-function route: truncated series arithmetic and the coefficient oracles."""

import time
import tracemalloc

import pytest

from pseudomagic.counting import contingency_spec, count_contingency, count_pseudomagic
from pseudomagic.errors import BudgetError, check_size
from pseudomagic.genfun import (
    _times_geometric,
    contour_coefficient,
    expansion_count,
    series_count,
)
from pseudomagic.zeta import divisor_profile, pair_sum_oracle


class TestSeriesArithmetic:
    def test_one(self):
        # at target 0 a geometric factor leaves the unit series as it is
        s = _times_geometric({(0, 0): 1}, (0, 0), (0, 1))
        assert s == {(0, 0): 1}

    def test_single_geometric(self):
        # 1/(1-z) up to the target: all coefficients 1
        s = _times_geometric({(0,): 1}, (5,), (0,))
        assert [s.get((i,), 0) for i in range(6)] == [1] * 6

    def test_diagonal_geometric(self):
        # 1/(1-wz): nonzero only on the diagonal
        s = _times_geometric({(0, 0): 1}, (4, 4), (0, 1))
        assert s.get((3, 3), 0) == 1
        assert s.get((2, 3), 0) == 0

    def test_squared_variable(self):
        # 1/(1-z^2) up to target 5: even powers only, none past the target
        s = _times_geometric({(0,): 1}, (5,), (0, 0))
        assert s == {(0,): 1, (2,): 1, (4,): 1}

    def test_each_variable_stops_at_its_own_target(self):
        # 1/(1-wz) with targets (1, 3): the product stops once w reaches 1
        s = _times_geometric({(0, 0): 1}, (1, 3), (0, 1))
        assert s == {(0, 0): 1, (1, 1): 1}


class TestContourOracle:
    @pytest.mark.parametrize("l", range(5))
    def test_matches_dp_k2(self, l):
        assert contour_coefficient(2, l) == count_pseudomagic(2, l)

    @pytest.mark.parametrize("l", range(3))
    def test_matches_dp_k3(self, l):
        assert contour_coefficient(3, l) == count_pseudomagic(3, l)

    def test_matches_dp_k1(self):
        assert [contour_coefficient(1, l) for l in range(6)] == [l + 1 for l in range(6)]

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            contour_coefficient(3, 6, term_budget=100)

    def test_giant_k_refused_at_once(self):
        # refused without the full power (cap+1)^(2k) and before a k-long spec exists
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            with pytest.raises(BudgetError, match=r"2\^2000000000 series terms"):
                contour_coefficient(10**9, 1)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 2**20

    def test_zero_target_forms_no_factor(self):
        # one term, and none of the k^2 + 2k factors that could only multiply it by 1
        t0 = time.perf_counter()
        assert contour_coefficient(10**5, 0) == 1
        assert time.perf_counter() - t0 < 1


class TestExpansionOracle:
    def test_anchor(self):
        assert expansion_count((2, 1, 1), (3, 1)) == 3
        assert expansion_count((2, 2, 1), (3, 1, 1)) == 8

    def test_weight_mismatch(self):
        assert expansion_count((1,), (2,)) == 0

    def test_empty(self):
        assert expansion_count((), ()) == 1

    def test_grid_against_dp(self):
        parts = [(), (1,), (2,), (1, 1), (2, 1), (2, 2), (3,), (3, 1)]
        for mu in parts:
            for nu in parts:
                assert expansion_count(mu, nu) == count_contingency(mu, nu)

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError, match="partition parts must be nonnegative, got -1"):
            expansion_count((2, -1), (1,))

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            expansion_count((3, 3, 3), (3, 3, 3), term_budget=50)

    def test_skewed_target_within_its_own_bound(self):
        # at most 31 * 2^4 * 35 = 17,360 terms, though 35^6 is past the budget
        assert expansion_count((30, 1, 1, 1, 1), (34,)) == 1

    def test_wide_target_refused_before_any_factor(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=r"2\^6000 series terms"):
                expansion_count((1,) * 3000, (1,) * 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSizeRule:
    @pytest.mark.parametrize("powers,budget,refused", [
        ([(2, 3), (5, 1)], 40, False),
        ([(2, 3), (5, 1)], 39, True),
        ([(2, 10**30)], 10**7, True),
        ([(1, 10**30)], 10**7, False),
    ])
    def test_boundary(self, powers, budget, refused):
        t0 = time.perf_counter()
        if refused:
            with pytest.raises(BudgetError):
                check_size(powers, budget, "units")
        else:
            check_size(powers, budget, "units")
        assert time.perf_counter() - t0 < 0.1

    def test_message_is_factored(self):
        with pytest.raises(BudgetError) as exc:
            check_size([(5, 1), (2, 3)], 39, "units")
        assert str(exc.value) == "2^3*5 units exceed the budget of 39"

    @pytest.mark.parametrize("call,budget", [
        (lambda b: divisor_profile(2, (10, 10), tuple_budget=b), 100),
        (lambda b: pair_sum_oracle(1, 10, pair_budget=b), 100),
        (lambda b: series_count(contingency_spec((1,), (1,)), term_budget=b), 4),
    ], ids=["profile", "pairs", "series"])
    def test_callers_admit_exactly_the_budget(self, call, budget):
        call(budget)
        with pytest.raises(BudgetError, match=f"budget of {budget - 1}$"):
            call(budget - 1)
