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
    ParityPolynomials,
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

# (builder, counting-function name, degree, trivial zeros, period) of the three
# families, each rebuilt from about half its nodes by reciprocity
FAMILIES = {
    "magic": (magic_polynomial, "count_magic", lambda k: (k - 1) ** 2, lambda k: k - 1, 1),
    "pseudomagic": (pseudomagic_polynomial, "count_pseudomagic", lambda k: k * k, lambda k: k, 1),
    "sym-even-bounded": (symmetric_even_bounded_polynomials, "count_symmetric_even_bounded",
                         lambda k: k * (k + 1) // 2, lambda k: k + 1, 2),
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

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            interpolate([(0, 1)], -1)

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


def _counted_nodes(degree, zeros, period):
    """The real counts a builder makes: its fitting nodes, then two verification nodes per class."""
    sizes = [0] * period
    for i in range(1, zeros + 1):
        sizes[-i % period] += 1
    x = 0
    while min(sizes) < degree + 1:
        sizes[x % period] += 1
        sizes[(-(zeros + 1) - x) % period] += 1
        x += 1
    return range(x + 2 * period)


def _corrupted_nodes():
    """Every node counted for each small polynomial or quasi-polynomial."""
    for family, ks in (("magic", (1, 2, 3, 4)), ("pseudomagic", (1, 2, 3)),
                       ("sym-even-bounded", (1, 2, 3, 4))):
        _, _, degree, zeros, period = FAMILIES[family]
        for k in ks:
            for x in _counted_nodes(degree(k), zeros(k), period):
                yield family, k, x


def _plain_route(counter, degree, period):
    """One polynomial per residue class from d+3 real counts each; interpolate checks the extra two."""
    return [interpolate([(x, counter(x)) for x in range(r, r + period * (degree + 3), period)], degree)
            for r in range(period)]


class TestReciprocalReconstruction:
    """The builders fit about half their nodes by reciprocity; the plain route counts every node."""

    @pytest.mark.parametrize("family,k", [("magic", k) for k in (1, 2, 3, 4)]
                             + [("pseudomagic", k) for k in (1, 2, 3)]
                             + [("sym-even-bounded", k) for k in (1, 2, 3, 4)])
    def test_equals_plain_route(self, family, k):
        build, name, degree, _, period = FAMILIES[family]
        counter = getattr(counting, name)
        plain = _plain_route(lambda x: counter(k, x), degree(k), period)
        assert build(k) == (ParityPolynomials(*plain) if period == 2 else plain[0])

    def test_one_class_counts_up_to_m_plus_1(self):
        # H_k and G_k count x = 0..m-1 to fit, m = ceil((d+1-z)/2), and m, m+1 to verify
        for family, ks in (("magic", range(1, 7)), ("pseudomagic", range(1, 5))):
            _, _, degree, zeros, _ = FAMILIES[family]
            for k in ks:
                m = max(1, -(-(degree(k) + 1 - zeros(k)) // 2))
                assert _counted_nodes(degree(k), zeros(k), 1) == range(m + 2)

    @pytest.mark.parametrize("family,k", [(f, k) for f in FAMILIES for k in (1, 2, 3, 4)])
    def test_counts_exactly_its_nodes(self, monkeypatch, family, k):
        build, name, degree, zeros, period = FAMILIES[family]
        true, seen = getattr(counting, name), []
        monkeypatch.setattr(counting, name, lambda k_, x: seen.append(x) or true(k_, x))
        build(k)
        assert sorted(seen) == list(_counted_nodes(degree(k), zeros(k), period))

    def test_pseudomagic_4_beyond_its_nodes(self):
        # built from l <= 7; l = 9 and 10 are counted independently
        p = pseudomagic_polynomial(4)
        assert [p(l) for l in (9, 10)] == [count_pseudomagic(4, l) for l in (9, 10)]

    @pytest.mark.parametrize("family,k,bad", list(_corrupted_nodes()))
    @pytest.mark.parametrize("delta", [1, -1])
    def test_off_by_one_count_is_a_runtime_error(self, monkeypatch, family, k, bad, delta):
        build, name, _, _, _ = FAMILIES[family]
        true = getattr(counting, name)
        monkeypatch.setattr(counting, name, lambda k_, x: true(k_, x) + (delta if x == bad else 0))
        with pytest.raises(RuntimeError, match="counting bug suspected"):
            build(k)


class TestSymmetricReciprocity:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reflection_and_zeros(self, k):
        # q(-(k+2)-x) = (-1)^d q(x) and q(-1..-(k+1)) = 0, on [-3d-10, 3d+10]
        q, d = symmetric_even_bounded_polynomials(k), k * (k + 1) // 2
        for x in range(-3 * d - 10, 3 * d + 11):
            assert q(-(k + 2) - x) == (-1) ** d * q(x)
        assert [q(-i) for i in range(1, k + 2)] == [0] * (k + 1)
        assert abs(q(-(k + 2))) == 1

    def test_k5_pinned(self):
        # built from l <= 16; l = 17 and 18 are counted independently
        q = symmetric_even_bounded_polynomials(5)
        assert q.leading_coefficients_agree and q.even.degree == 15
        assert q.even.leading_coefficient == F(5222023, 535623421132800)
        assert [q(l) for l in (17, 18)] == [count_symmetric_even_bounded(5, l) for l in (17, 18)]


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
