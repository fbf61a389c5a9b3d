"""Generating-function route: truncated series arithmetic and the coefficient oracles."""

import time
import tracemalloc

import pytest

from pseudomagic.counting import count_contingency, count_pseudomagic
from pseudomagic.errors import BudgetError
from pseudomagic.genfun import (
    _times_geometric,
    contour_coefficient,
    expansion_count,
)


class TestSeriesArithmetic:
    def test_one(self):
        # at cap 0 a geometric factor leaves the unit series as it is
        s = _times_geometric({(0, 0): 1}, 0, (0, 1))
        assert s == {(0, 0): 1}

    def test_single_geometric(self):
        # 1/(1-z) up to cap: all coefficients 1
        s = _times_geometric({(0,): 1}, 5, (0,))
        assert [s.get((i,), 0) for i in range(6)] == [1] * 6

    def test_diagonal_geometric(self):
        # 1/(1-wz): nonzero only on the diagonal
        s = _times_geometric({(0, 0): 1}, 4, (0, 1))
        assert s.get((3, 3), 0) == 1
        assert s.get((2, 3), 0) == 0

    def test_squared_variable(self):
        # 1/(1-z^2) up to cap 5: even powers only, none past the cap
        s = _times_geometric({(0,): 1}, 5, (0, 0))
        assert s == {(0,): 1, (2,): 1, (4,): 1}


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
            with pytest.raises(BudgetError, match="2000000000 vars at cap 1"):
                contour_coefficient(10**9, 1)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 2**20


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

    def test_cap_too_small_rejected(self):
        with pytest.raises(ValueError):
            expansion_count((3, 1), (2, 2), cap=2)

    def test_explicit_cap_matches_default(self):
        assert expansion_count((2, 1), (2, 1), cap=4) == expansion_count((2, 1), (2, 1))

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            expansion_count((3, 3, 3), (3, 3, 3), term_budget=50)
