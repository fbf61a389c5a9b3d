"""Polynomial reconstruction: interpolation, frozen coefficients, identities, volumes."""

from fractions import Fraction as F

import pytest

from pseudomagic import counting
from pseudomagic.counting import (
    count_magic,
    count_pseudomagic,
    count_symmetric_even_bounded,
)
from pseudomagic.ehrhart import (
    MAX_MAGIC_K,
    MAX_PSEUDOMAGIC_K,
    MAX_SYM_EVEN_BOUNDED_K,
    CountingPolynomial,
    _interpolate_family,
    birkhoff_volume,
    check_reciprocity,
    check_trivial_zeros,
    evaluate_real,
    h_vector,
    interpolate,
    magic_polynomial,
    pseudomagic_polynomial,
    substochastic_volume,
    symmetric_even_bounded_polynomials,
)
from pseudomagic.errors import BudgetError

# (builder, counting-function name, degree, trivial zeros) of the two families
# that are rebuilt from half their nodes by reciprocity
FAMILIES = {
    "magic": (magic_polynomial, "count_magic", lambda k: (k - 1) ** 2, lambda k: k - 1),
    "pseudomagic": (pseudomagic_polynomial, "count_pseudomagic", lambda k: k * k, lambda k: k),
}


class TestCountingPolynomial:
    def test_trailing_zeros_stripped(self):
        p = CountingPolynomial((1, 2, 0, 0))
        assert p.coefficients == (F(1), F(2))
        assert p.degree == 1

    def test_zero_polynomial(self):
        p = CountingPolynomial((0, 0))
        assert p.coefficients == (F(0),)
        assert p.degree == 0

    def test_exact_evaluation(self):
        p = CountingPolynomial((F(1), F(1, 2)))
        assert p(3) == F(5, 2)
        assert p(F(1, 3)) == F(7, 6)

    def test_as_strings(self):
        assert CountingPolynomial((1, F(3, 4))).as_strings() == ["1", "3/4"]

    def test_evaluate_real(self):
        p = CountingPolynomial((1, 0, 1))
        assert evaluate_real(p, 2.0) == pytest.approx(5.0)


class TestInterpolate:
    def test_recovers_quadratic(self):
        data = [(x, x * x + 1) for x in range(3)]
        p = interpolate(data, 2)
        assert p.coefficients == (F(1), F(0), F(1))

    def test_extra_consistent_point_accepted(self):
        data = [(x, 2 * x + 3) for x in range(4)]
        assert interpolate(data, 1).coefficients == (F(3), F(2))

    def test_extra_inconsistent_point_rejected(self):
        data = [(0, 3), (1, 5), (2, 8)]
        with pytest.raises(ValueError):
            interpolate(data, 1)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            interpolate([(0, 1)], 1)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            interpolate([(0, 1), (0, 2), (1, 3)], 2)

    def test_arbitrary_rational_nodes(self):
        p = CountingPolynomial((F(1, 3), F(2), F(5, 7)))
        nodes = [F(-1), F(1, 2), F(4), F(9, 5)]
        q = interpolate([(x, p(x)) for x in nodes], 2)
        assert q.coefficients == p.coefficients


class TestMagicPolynomial:
    def test_k1_constant(self):
        assert magic_polynomial(1).coefficients == (F(1),)

    def test_k2_line(self):
        assert magic_polynomial(2).coefficients == (F(1), F(1))

    def test_k3_frozen(self):
        assert magic_polynomial(3).coefficients == (F(1), F(9, 4), F(15, 8), F(3, 4), F(1, 8))

    def test_degree_law(self):
        for k in (1, 2, 3, 4):
            assert magic_polynomial(k).degree == (k - 1) ** 2

    def test_agrees_beyond_nodes(self):
        p = magic_polynomial(3)
        assert p(9) == count_magic(3, 9)

    def test_pseudomagic_degree_law(self):
        for k in (1, 2, 3):
            assert pseudomagic_polynomial(k).degree == k * k

    def test_pseudomagic_k1(self):
        assert pseudomagic_polynomial(1).coefficients == (F(1), F(1))

    def test_pseudomagic_agrees_beyond_nodes(self):
        p = pseudomagic_polynomial(2)
        assert p(9) == count_pseudomagic(2, 9)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            magic_polynomial(0)


class TestIdentities:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_trivial_zeros(self, k):
        assert check_trivial_zeros(magic_polynomial(k), k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reciprocity(self, k):
        assert check_reciprocity(magic_polynomial(k), k)

    def test_zeros_negative_control(self):
        # a polynomial with no root at -1 must fail the check
        assert not check_trivial_zeros(CountingPolynomial((1, 1, 1)), 3)

    def test_reciprocity_negative_control(self):
        # 1 + x happens to satisfy the k=2 relation; 1 + 2x does not
        assert not check_reciprocity(CountingPolynomial((1, 2)), 2)

    def test_reciprocity_k5(self):
        assert check_reciprocity(magic_polynomial(5), 5)


class TestHVector:
    def test_k2(self):
        assert h_vector(magic_polynomial(2)).stripped() == (1,)

    def test_k3_frozen(self):
        assert h_vector(magic_polynomial(3)).stripped() == (1, 1, 1)

    def test_k4_frozen(self):
        assert h_vector(magic_polynomial(4)).stripped() == (1, 14, 87, 148, 87, 14, 1)

    def test_k5_published(self):
        # the Birkhoff polytope B_5's h-vector as published (Beck-Pixton)
        assert h_vector(magic_polynomial(5)).stripped() == (
            1, 103, 4306, 63110, 388615, 1115068, 1575669, 1115068, 388615, 63110, 4306, 103, 1)

    def test_entries_padded_to_degree(self):
        hv = h_vector(magic_polynomial(3))
        assert len(hv.entries) == magic_polynomial(3).degree + 1
        assert hv.entries == (1, 1, 1, 0, 0)

    def test_palindromic_for_magic(self):
        for k in (3, 4):
            s = h_vector(magic_polynomial(k)).stripped()
            assert s == s[::-1]

    def test_sum_counts_leading(self):
        # sum of h equals deg! times the leading coefficient
        p = magic_polynomial(3)
        from math import factorial
        assert sum(h_vector(p).entries) == factorial(p.degree) * p.leading_coefficient

    def test_non_lattice_rejected(self):
        with pytest.raises(ValueError):
            h_vector(CountingPolynomial((F(1, 2), F(1, 3))))


class TestVolumes:
    def test_substochastic_2(self):
        assert substochastic_volume(2) == F(1, 6)

    def test_substochastic_1(self):
        assert substochastic_volume(1) == F(1)

    def test_birkhoff_3(self):
        assert birkhoff_volume(3) == F(9, 8)

    def test_birkhoff_1_2(self):
        assert birkhoff_volume(1) == F(1)
        assert birkhoff_volume(2) == F(2)


class TestParityPolynomials:
    def test_k1_frozen(self):
        pair = symmetric_even_bounded_polynomials(1)
        assert pair.even.coefficients == (F(1), F(1, 2))
        assert pair.odd.coefficients == (F(1, 2), F(1, 2))
        assert pair.leading_coefficients_agree

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_leading_agreement(self, k):
        assert symmetric_even_bounded_polynomials(k).leading_coefficients_agree

    @pytest.mark.parametrize("k", [1, 2])
    def test_degree_law(self, k):
        pair = symmetric_even_bounded_polynomials(k)
        d = k * (k + 1) // 2
        assert pair.even.degree == d and pair.odd.degree == d

    def test_evaluates_by_parity(self):
        pair = symmetric_even_bounded_polynomials(2)
        for l in range(12):
            assert pair(l) == count_symmetric_even_bounded(2, l)

    def test_k2_leading(self):
        assert symmetric_even_bounded_polynomials(2).even.leading_coefficient == F(1, 12)


def _corrupted_nodes():
    """Every fitting node 0..m-1 and both verification nodes m, m+1 of each small polynomial."""
    for family, ks in (("magic", (1, 2, 3, 4)), ("pseudomagic", (1, 2, 3))):
        _, _, degree, zeros = FAMILIES[family]
        for k in ks:
            m = max(1, -(-(degree(k) + 1 - zeros(k)) // 2))
            for x in range(m + 2):
                yield family, k, x


class TestReciprocalReconstruction:
    """The builders fit half their nodes by reciprocity; the plain route counts every node."""

    @pytest.mark.parametrize("family,k", [("magic", k) for k in (1, 2, 3, 4)]
                             + [("pseudomagic", k) for k in (1, 2, 3)])
    def test_equals_plain_route(self, family, k):
        build, name, degree, _ = FAMILIES[family]
        d = degree(k)
        counter = getattr(counting, name)
        assert build(k) == _interpolate_family(lambda x: counter(k, x), d, range(d + 3))

    def test_pseudomagic_4_beyond_its_nodes(self):
        # built from l <= 7; l = 9 and 10 are counted independently
        p = pseudomagic_polynomial(4)
        assert [p(l) for l in (9, 10)] == [count_pseudomagic(4, l) for l in (9, 10)]

    @pytest.mark.parametrize("family,k,bad", list(_corrupted_nodes()))
    @pytest.mark.parametrize("delta", [1, -1])
    def test_off_by_one_count_is_a_runtime_error(self, monkeypatch, family, k, bad, delta):
        build, name, _, _ = FAMILIES[family]
        true = getattr(counting, name)
        monkeypatch.setattr(counting, name, lambda k_, x: true(k_, x) + (delta if x == bad else 0))
        with pytest.raises(RuntimeError, match="counting bug suspected"):
            build(k)


class TestCeilings:
    @pytest.mark.parametrize("build,ceiling", [
        (magic_polynomial, MAX_MAGIC_K),
        (pseudomagic_polynomial, MAX_PSEUDOMAGIC_K),
        (symmetric_even_bounded_polynomials, MAX_SYM_EVEN_BOUNDED_K),
    ], ids=["magic", "pseudomagic", "sym-even-bounded"])
    def test_refused_before_any_count(self, monkeypatch, build, ceiling):
        def no_count(*args):
            raise AssertionError("counted before refusing")

        for name in ("count_magic", "count_pseudomagic", "count_symmetric_even_bounded"):
            monkeypatch.setattr(counting, name, no_count)
        with pytest.raises(BudgetError, match=str(ceiling)):
            build(ceiling + 1)
        with pytest.raises(ValueError):
            build(0)
