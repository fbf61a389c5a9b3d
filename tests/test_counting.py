"""Exact matrix counts: hand-checked anchors, frozen oracle tables, DP-vs-brute grids."""

import time
import tracemalloc
from collections import Counter
from itertools import product
from math import comb, factorial
from operator import le

import pytest

from pseudomagic import counting
from pseudomagic.counting import (
    MatrixCountSpec,
    brute_force_count,
    contingency_spec,
    count,
    count_contingency,
    count_magic,
    count_pseudomagic,
    count_pseudomagic_multi,
    count_symmetric_even,
    count_symmetric_even_bounded,
    magic_spec,
    pseudomagic_multi_spec,
    pseudomagic_spec,
    symmetric_even_bounded_spec,
    symmetric_even_spec,
)
from pseudomagic.errors import BudgetError
from pseudomagic.genfun import series_count

# outputs of brute_force_count, frozen
H2_TABLE = [1, 2, 3, 4, 5, 6, 7]
H3_TABLE = [1, 6, 21, 55, 120]
G2_TABLE = [1, 7, 26, 70, 155, 301, 532]
G3_TABLE = [1, 34, 451, 3380]
S2_TABLE = [1, 1, 2, 2, 3, 3, 4]
S3_TABLE = [1, 0, 5, 0, 15]
F2_TABLE = [1, 2, 6, 10, 19, 28, 44]
F3_TABLE = [1, 4, 24, 72, 213]


def _small_partitions(max_part=3, max_len=3):
    out = [()]
    def grow(prefix, largest):
        for p in range(1, largest + 1):
            t = prefix + (p,)
            out.append(t)
            if len(t) < max_len:
                grow(t, p)
    grow((), max_part)
    return out


class TestContingency:
    def test_anchor_3(self):
        assert count_contingency((2, 1, 1), (3, 1)) == 3

    def test_anchor_8(self):
        assert count_contingency((2, 2, 1), (3, 1, 1)) == 8

    def test_weight_mismatch_is_zero(self):
        assert count_contingency((2, 1), (1, 1)) == 0

    def test_empty_prescriptions(self):
        assert count_contingency((), ()) == 1
        assert count_contingency((0,), (0, 0)) == 1

    def test_negative_part_rejected(self):
        for refuse in (contingency_spec, count_contingency):
            with pytest.raises(ValueError, match="partition parts must be nonnegative, got -1"):
                refuse((2, -1), (1,))

    def test_order_invariance(self):
        assert count_contingency((1, 2, 1), (1, 3)) == count_contingency((2, 1, 1), (3, 1))

    def test_transpose_symmetry(self):
        for mu, nu in (((3, 2, 1), (2, 2, 2)), ((4, 2), (3, 2, 1))):
            assert count_contingency(mu, nu) == count_contingency(nu, mu)

    def test_frozen_oracle_values(self):
        assert count_contingency((3, 2, 1), (2, 2, 2)) == 15
        assert count_contingency((4, 2), (3, 2, 1)) == 5

    def test_single_line(self):
        # one row: the columns determine everything
        assert count_contingency((5,), (3, 2)) == 1
        assert count_contingency((3, 2), (5,)) == 1

    def test_deep_unit_rows(self):
        # one kernel step per column and none per row: 1200 rows need no deep stack
        assert count_contingency([1] * 1200, [1200]) == 1
        assert count_contingency([1200], [1] * 1200) == 1


class TestMagic:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_permutation_anchor(self, k):
        assert count_magic(k, 1) == factorial(k)

    @pytest.mark.parametrize("j", range(7))
    def test_h2_frozen(self, j):
        assert count_magic(2, j) == H2_TABLE[j]

    @pytest.mark.parametrize("j", range(5))
    def test_h3_frozen(self, j):
        assert count_magic(3, j) == H3_TABLE[j]

    @pytest.mark.parametrize("j", range(9))
    def test_h3_binomial_identity(self, j):
        expected = comb(j + 2, 4) + comb(j + 3, 4) + comb(j + 4, 4)
        assert count_magic(3, j) == expected

    def test_j_zero(self):
        assert count_magic(4, 0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            count_magic(0, 1)
        with pytest.raises(ValueError):
            count_magic(2, -1)


class TestPseudomagic:
    @pytest.mark.parametrize("l", range(7))
    def test_g2_frozen(self, l):
        assert count_pseudomagic(2, l) == G2_TABLE[l]

    @pytest.mark.parametrize("l", range(4))
    def test_g3_frozen(self, l):
        assert count_pseudomagic(3, l) == G3_TABLE[l]

    @pytest.mark.parametrize("l", range(6))
    def test_g1_interval(self, l):
        assert count_pseudomagic(1, l) == l + 1

    def test_dominates_magic(self):
        # at-most-l matrices include every exact-j matrix with j <= l
        for k, l in product((2, 3), (1, 2, 3)):
            total = sum(count_magic(k, j) for j in range(l + 1))
            assert count_pseudomagic(k, l) >= total

    def test_multi_reduces_to_uniform(self):
        for k, l in product((1, 2, 3), (0, 1, 2)):
            assert count_pseudomagic_multi((l,) * k) == count_pseudomagic(k, l)

    def test_multi_frozen(self):
        assert count_pseudomagic_multi((3, 1)) == 17
        assert count_pseudomagic_multi((2, 2, 1)) == 164

    def test_multi_multiset_invariance(self):
        assert count_pseudomagic_multi((3, 1)) == count_pseudomagic_multi((1, 3))
        assert count_pseudomagic_multi((2, 1, 2)) == count_pseudomagic_multi((2, 2, 1))


class TestSymmetricEven:
    @pytest.mark.parametrize("j", range(7))
    def test_s2_frozen(self, j):
        assert count_symmetric_even(2, j) == S2_TABLE[j]

    @pytest.mark.parametrize("j", range(5))
    def test_s3_frozen(self, j):
        assert count_symmetric_even(3, j) == S3_TABLE[j]

    @pytest.mark.parametrize("k,j", [(1, 1), (1, 3), (3, 1), (3, 3), (5, 1)])
    def test_odd_weight_obstruction(self, k, j):
        # diagonal sum is even, off-diagonal contributes twice: k*j odd is impossible
        assert count_symmetric_even(k, j) == 0

    def test_one_by_one(self):
        assert [count_symmetric_even(1, j) for j in range(5)] == [1, 0, 1, 0, 1]

    @pytest.mark.parametrize("l", range(7))
    def test_f2_frozen(self, l):
        assert count_symmetric_even_bounded(2, l) == F2_TABLE[l]

    @pytest.mark.parametrize("l", range(5))
    def test_f3_frozen(self, l):
        assert count_symmetric_even_bounded(3, l) == F3_TABLE[l]

    def test_f1_floor_law(self):
        assert [count_symmetric_even_bounded(1, l) for l in range(8)] == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_s6_frozen(self):
        # from an unmemoized row-by-row enumeration (about 5 s), not the DP
        assert count_symmetric_even(6, 6) == 1594340

    @pytest.mark.parametrize("k,l", list(product(range(1, 5), range(6))))
    def test_bounded_matches_slack_route(self, k, l):
        # a slack line of margin k*l takes each shortfall l - r_i; its corner
        # is the total weight, which is even, so the exact rule (diagonal
        # forced to what the row leaves, and even) counts the same
        slack = counting._count_symmetric((l,) * k + (k * l,), lambda d: 1 - d % 2)
        assert count_symmetric_even_bounded(k, l) == slack

    def test_bounded_dominates_exact(self):
        for k, l in product((2, 3), range(4)):
            total = sum(count_symmetric_even(k, j) for j in range(l + 1))
            assert count_symmetric_even_bounded(k, l) >= total


class TestBruteForceAgreement:
    """The entry-by-entry oracle and the DP kernels must agree everywhere."""

    @pytest.mark.parametrize("k,j", list(product((1, 2, 3), range(4))))
    def test_magic(self, k, j):
        assert brute_force_count(magic_spec(k, j)) == count_magic(k, j)

    @pytest.mark.parametrize("k,l", list(product((1, 2, 3), range(4))))
    def test_pseudomagic(self, k, l):
        assert brute_force_count(pseudomagic_spec(k, l)) == count_pseudomagic(k, l)

    @pytest.mark.parametrize("bounds", [(2,), (3, 1), (2, 2), (3, 2, 1), (1, 1, 1)])
    def test_multi(self, bounds):
        assert brute_force_count(pseudomagic_multi_spec(bounds)) == count_pseudomagic_multi(bounds)

    @pytest.mark.parametrize("k,j", list(product((1, 2, 3), range(5))))
    def test_symmetric_even(self, k, j):
        assert brute_force_count(symmetric_even_spec(k, j)) == count_symmetric_even(k, j)

    @pytest.mark.parametrize("k,l", list(product((1, 2, 3), range(4))))
    def test_symmetric_even_bounded(self, k, l):
        assert brute_force_count(symmetric_even_bounded_spec(k, l)) == count_symmetric_even_bounded(k, l)

    def test_contingency_grid(self):
        parts = [p for p in _small_partitions(max_part=2, max_len=3)]
        for mu in parts:
            for nu in parts:
                assert brute_force_count(contingency_spec(mu, nu)) == count_contingency(mu, nu)

    def test_brute_budget_refusal(self):
        with pytest.raises(BudgetError):
            brute_force_count(magic_spec(3, 5), explosion_cap=10)

    def test_brute_budget_before_entries(self):
        # a 1000x1000 grid is refused before a million entries are listed
        spec = contingency_spec([1] * 1000, [1] * 1000)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                brute_force_count(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("spec", [
        MatrixCountSpec((1, 1), (1, 1, 1), True, symmetric=True),
        MatrixCountSpec((), (1,), True),
        MatrixCountSpec((1, -1), (1, 1), False),
    ], ids=["symmetric-non-square", "empty", "negative-sum"])
    def test_brute_refuses_malformed_spec(self, spec):
        for counter in (brute_force_count, count, series_count):
            with pytest.raises(ValueError):
                counter(spec)

    @pytest.mark.parametrize("build,args,message", [
        (magic_spec, (0, 1), "matrix shape must be positive"),
        (magic_spec, (0, -1), "constraint bound must be nonnegative"),
        (symmetric_even_bounded_spec, (2, -1), "constraint bound must be nonnegative"),
        (pseudomagic_multi_spec, ((),), "matrix shape must be positive"),
        (pseudomagic_multi_spec, ((2, -1),), "constraint bound must be nonnegative"),
    ])
    def test_spec_constructor_errors(self, build, args, message):
        # the line limit is checked before the shape, even when k leaves no line
        with pytest.raises(ValueError, match=message):
            build(*args)

    def test_zero_lines_are_not_walked(self):
        # 490,000 forced-zero entries: dropped with their lines, not listed one by one
        t0 = time.perf_counter()
        assert brute_force_count(magic_spec(700, 0)) == 1
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize("m,n,symmetric", [
        (m, n, sym) for m in (1, 2, 3) for n in (1, 2, 3) for sym in (False, True)
        if m == n or not sym
    ])
    def test_matches_product_oracle(self, m, n, symmetric):
        # every spec of this shape with limits 0..2, exact and at most, against a
        # tally of all matrices with entries 0..2 (no entry can pass its limit of 2)
        tally = Counter()
        for flat in product(range(3), repeat=m * n):
            mat = [flat[i * n:(i + 1) * n] for i in range(m)]
            if symmetric and any(mat[i][j] != mat[j][i] or (i == j and mat[i][i] % 2)
                                 for i in range(m) for j in range(m)):
                continue
            tally[tuple(map(sum, mat)), tuple(map(sum, zip(*mat)))] += 1
        for rows, cols in product(product(range(3), repeat=m), product(range(3), repeat=n)):
            for exact in (True, False):
                expected = tally[rows, cols] if exact else sum(
                    w for (rs, cs), w in tally.items()
                    if all(map(le, rs, rows)) and all(map(le, cs, cols))
                )
                spec = MatrixCountSpec(rows, cols, exact, symmetric)
                assert brute_force_count(spec) == expected, spec
                assert count(spec) == expected, spec
                assert series_count(spec) == expected, spec

    def test_brute_deep_grid(self):
        # 1200 entries deep under a budget that admits the 2^1200 grid: no stack to exhaust
        assert brute_force_count(contingency_spec([1] * 1200, [1200]), explosion_cap=10**400) == 1


class TestSeriesAgreement:
    """The generating-function oracle checks the symmetric DP where brute force cannot reach."""

    def test_s6_frozen(self):
        assert series_count(symmetric_even_spec(6, 6)) == 1594340

    @pytest.mark.parametrize("k,l", [(4, 8), (5, 6)])
    def test_symmetric_even_bounded(self, k, l):
        spec = symmetric_even_bounded_spec(k, l)
        assert series_count(spec) == count(spec) == count_symmetric_even_bounded(k, l)

    def test_limits_in_any_sequence(self):
        # a list of row limits against a tuple of equal column limits is one symmetric problem
        spec = MatrixCountSpec([2, 2], (2, 2), True, symmetric=True)
        assert count(spec) == series_count(spec) == brute_force_count(spec) == 2


class TestLargerExactness:
    def test_symmetric_even_large_matches_brute(self):
        assert brute_force_count(symmetric_even_spec(4, 2)) == count_symmetric_even(4, 2)

    def test_magic_4_2(self):
        assert count_magic(4, 2) == 282

    def test_magic_growth_sane(self):
        # monotone in j for fixed k
        values = [count_magic(3, j) for j in range(8)]
        assert values == sorted(values)

    @pytest.mark.slow
    def test_magic_5_deep(self):
        # a deep k=5 count; the polynomial reconstruction for k=5 needs only j <= 8
        assert count_magic(5, 18) > 0
