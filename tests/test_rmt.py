"""Haar sampling, secular coefficients, Monte Carlo moments, exact constants."""

from fractions import Fraction as F
from math import comb, factorial

import numpy as np
import pytest

from pseudomagic.errors import MAX_THREADS, BudgetError
from pseudomagic.rmt import (
    MAX_HAAR_ENTRIES,
    MAX_SECULAR_N,
    _szego,
    full_poly_moment_exact,
    g_factor,
    haar_unitary,
    mixed_moment_mc,
    secular_abs_moment_mc,
    secular_coefficients,
    truncated_poly_moment_mc,
)


class TestHaarSampling:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_unitarity(self, n):
        m = haar_unitary(n, seed=3)
        assert np.max(np.abs(m @ m.conj().T - np.eye(n))) < 1e-12

    def test_n1_is_a_phase(self):
        m = haar_unitary(1, seed=9)
        assert abs(abs(m[0, 0]) - 1.0) < 1e-14

    def test_reproducible(self):
        assert np.array_equal(haar_unitary(4, seed=7), haar_unitary(4, seed=7))

    def test_seeds_differ(self):
        assert not np.array_equal(haar_unitary(4, seed=7), haar_unitary(4, seed=8))

    def test_validation(self):
        with pytest.raises(ValueError):
            haar_unitary(0, seed=1)

    def test_size_ceiling(self):
        n = int(MAX_HAAR_ENTRIES**0.5) + 1
        assert n * n > MAX_HAAR_ENTRIES
        with pytest.raises(BudgetError, match=str(MAX_HAAR_ENTRIES)):
            haar_unitary(n, seed=1)


class TestSecularCoefficients:
    def test_identity_gives_binomials(self):
        e = secular_coefficients(np.eye(4))
        assert np.allclose(e, [comb(4, j) for j in range(5)])

    def test_first_is_trace_last_is_unit_modulus(self):
        m = haar_unitary(6, seed=11)
        e = secular_coefficients(m)
        assert e[0] == 1
        assert abs(e[1] - np.trace(m)) < 1e-10
        assert abs(abs(e[6]) - 1.0) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_eigenvalue_expansion(self, n):
        # independent route: char poly coefficients from an eigensolver
        m = haar_unitary(n, seed=n)
        e = secular_coefficients(m)
        cp = np.poly(np.linalg.eigvals(m))  # z^n + c_1 z^(n-1) + ... ; c_j = (-1)^j e_j
        expected = [(-1) ** j * cp[j] for j in range(n + 1)]
        assert np.max(np.abs(e - expected)) < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            secular_coefficients(np.ones((2, 3)))

    def test_size_ceiling(self):
        with pytest.raises(BudgetError, match=str(MAX_SECULAR_N)):
            secular_coefficients(np.eye(MAX_SECULAR_N + 1))


def _cmv(alpha):
    """Explicit n-by-n CMV matrix L*M of the Theta_k blocks, with Theta_{n-1} cut to conj(alpha_{n-1})."""
    n = len(alpha)

    def theta(k):
        a = alpha[k]
        if k == n - 1:
            return np.array([[np.conj(a)]])
        rho = np.sqrt(1 - abs(a) ** 2)
        return np.array([[np.conj(a), rho], [rho, -a]])

    def block_diag(blocks):
        out = np.zeros((n, n), dtype=np.complex128)
        at = 0
        for b in blocks:
            out[at : at + len(b), at : at + len(b)] = b
            at += len(b)
        return out

    return block_diag([theta(k) for k in range(0, n, 2)]) @ block_diag(
        [np.eye(1)] + [theta(k) for k in range(1, n, 2)]
    )


class TestVerblunskyRecursion:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_explicit_cmv_matrix(self, n):
        radii = [0.1, 0.7, 0.35, 0.9, 0.5, 0.2][: n - 1] + [1.0]
        alpha = np.array([r * np.exp(1j * (0.9 * k + 0.4)) for k, r in enumerate(radii)])
        cmv = _cmv(alpha)
        assert np.max(np.abs(cmv @ cmv.conj().T - np.eye(n))) < 1e-12
        e = _szego(alpha[:, None], n)[0]
        assert np.max(np.abs(e - secular_coefficients(cmv))) < 1e-10
        assert abs(abs(e[n]) - 1.0) < 1e-10

    def test_agrees_with_qr_where_no_count_applies(self):
        # E|e_1|^6 at n=2: n < j*k, so no contingency target; compare the
        # Verblunsky Monte Carlo with QR + Newton's identities by a two-sample z
        est = secular_abs_moment_mc(1, 3, 2, 100000, seed=109)
        assert est.target is None
        qr = np.array([abs(secular_coefficients(haar_unitary(2, seed=s))[1]) ** 6
                       for s in range(10000)])
        qr_stderr = qr.std() / np.sqrt(qr.size)
        z = abs(est.mean - qr.mean()) / np.hypot(est.stderr, qr_stderr)
        assert z < 4


def _factorial_product(n, k):
    """The moment as the Keating-Snaith product, one factorial ratio per j."""
    num = den = 1
    for j in range(1, n + 1):
        num *= factorial(j - 1) * factorial(j + 2 * k - 1)
        den *= factorial(j + k - 1) ** 2
    return F(num, den)


class TestExactConstants:
    @pytest.mark.parametrize("k", range(11))
    def test_matches_factorial_product(self, k):
        for n in range(1, 41):
            assert full_poly_moment_exact(n, k) == _factorial_product(n, k)

    def test_g_matches_fraction_product(self):
        for k in range(1, 41):
            ref = F(1)
            for j in range(k):
                ref *= F(factorial(j), factorial(j + k))
            assert g_factor(k) == ref

    @pytest.mark.parametrize("n", range(1, 21))
    def test_second_moment_law(self, n):
        assert full_poly_moment_exact(n, 1) == n + 1

    def test_k0_is_one(self):
        assert full_poly_moment_exact(7, 0) == 1

    def test_g_anchors(self):
        assert g_factor(1) == 1
        assert g_factor(2) == F(1, 12)
        assert g_factor(3) * factorial(9) == 42
        assert g_factor(4) * factorial(16) == 24024

    def test_limit_ratio(self):
        g2 = g_factor(2)
        r50 = full_poly_moment_exact(50, 2) / 50**4
        r200 = full_poly_moment_exact(200, 2) / 200**4
        assert abs(r50 / g2 - 1) < 0.20
        assert abs(r200 / g2 - 1) < 0.10

    def test_validation(self):
        with pytest.raises(ValueError):
            full_poly_moment_exact(0, 1)
        with pytest.raises(ValueError):
            g_factor(0)


class TestMonteCarloDriver:
    def test_reproducible_for_fixed_seed_and_threads(self):
        a = secular_abs_moment_mc(2, 1, 5, 4000, seed=5, threads=2)
        b = secular_abs_moment_mc(2, 1, 5, 4000, seed=5, threads=2)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_worker_counts_statistically_equivalent(self):
        a = secular_abs_moment_mc(2, 1, 5, 20000, seed=5, threads=1)
        b = secular_abs_moment_mc(2, 1, 5, 20000, seed=5, threads=3)
        assert abs(a.mean - b.mean) < 5 * (a.stderr + b.stderr)

    @pytest.mark.parametrize("threads", [0, -1, MAX_THREADS + 1, 10**9])
    def test_thread_count_bounded_before_any_pool(self, threads):
        with pytest.raises(ValueError, match="threads"):
            secular_abs_moment_mc(1, 1, 3, 10, seed=0, threads=threads)

    @pytest.mark.parametrize("n,samples,threads", [
        (10**6, 4096, 1), (3000, 4096, 1), (3000, 8192, 2),
    ])
    def test_buffer_ceiling_refused_before_any_draw(self, n, samples, threads):
        with pytest.raises(BudgetError, match=str(MAX_HAAR_ENTRIES)):
            secular_abs_moment_mc(1, 1, n, samples, seed=0, threads=threads)

    def test_small_quota_stays_under_the_buffer_ceiling(self):
        # 3000 rows are refused at full batch (above) but not for 3 samples
        est = secular_abs_moment_mc(1, 1, 3000, 3, seed=0)
        assert est.samples == 3 and est.target == 1

    def test_more_threads_than_samples(self):
        est = secular_abs_moment_mc(1, 1, 3, 2, seed=0, threads=8)
        assert est.samples == 2


class TestSecularMoments:
    def test_second_moment_is_one(self):
        est = secular_abs_moment_mc(2, 1, 5, 30000, seed=101)
        assert est.target == 1
        assert est.z_score() < 4

    def test_fourth_moment_against_count(self):
        est = secular_abs_moment_mc(2, 2, 8, 30000, seed=102)
        assert est.target == 3
        assert est.z_score() < 4

    def test_first_coefficient_fourth_moment(self):
        est = secular_abs_moment_mc(1, 2, 4, 30000, seed=103)
        assert est.target == 2
        assert est.z_score() < 4

    def test_below_threshold_has_no_target(self):
        est = secular_abs_moment_mc(2, 2, 3, 100, seed=1)
        assert est.target is None
        assert est.z_score() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            secular_abs_moment_mc(0, 1, 4, 10, seed=1)
        with pytest.raises(ValueError):
            secular_abs_moment_mc(5, 1, 4, 10, seed=1)
        with pytest.raises(ValueError):
            secular_abs_moment_mc(1, 1, 4, 0, seed=1)


class TestMixedMoments:
    def test_square_against_contingency(self):
        est = mixed_moment_mc((2, 0), (0, 1), 4, 30000, seed=104)
        assert est.target == 1
        assert est.z_score() < 4

    def test_plain_mean_vanishes(self):
        est = mixed_moment_mc((1,), (0,), 5, 30000, seed=105)
        assert est.target == 0
        assert abs(est.mean) < 4 * est.stderr

    def test_weight_obstruction_target_zero(self):
        est = mixed_moment_mc((2,), (1,), 4, 20000, seed=106)
        assert est.target == 0
        assert abs(est.mean) < 4 * est.stderr

    def test_validation(self):
        with pytest.raises(ValueError):
            mixed_moment_mc((1, 2), (1,), 4, 10, seed=1)
        with pytest.raises(ValueError):
            mixed_moment_mc((), (), 4, 10, seed=1)
        with pytest.raises(ValueError):
            mixed_moment_mc((1, 0, 0, 0, 0), (1, 0, 0, 0, 0), 4, 10, seed=1)
        with pytest.raises(ValueError):
            mixed_moment_mc((-1,), (1,), 4, 10, seed=1)


class TestTruncatedMoments:
    def test_l0_is_exactly_one(self):
        est = truncated_poly_moment_mc(0, 3, 5, 1.0, 500, seed=1)
        assert est.mean == pytest.approx(1.0)
        assert est.stderr == pytest.approx(0.0)
        assert est.target == 1

    def test_l1_against_count(self):
        est = truncated_poly_moment_mc(1, 1, 4, 1.0, 30000, seed=107)
        assert est.target == 2
        assert est.z_score() < 4

    def test_off_axis_point(self):
        z = np.exp(0.7j)
        est = truncated_poly_moment_mc(1, 1, 4, z, 30000, seed=108)
        assert est.target == 2
        assert est.z_score() < 4

    def test_below_threshold_has_no_target(self):
        est = truncated_poly_moment_mc(3, 2, 4, 1.0, 100, seed=1)
        assert est.target is None

    def test_non_unit_z_rejected(self):
        for z in (1.5, float("nan"), float("inf"), complex("nan+nanj")):
            with pytest.raises(ValueError):
                truncated_poly_moment_mc(1, 1, 4, z, 10, seed=1)

    def test_l_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            truncated_poly_moment_mc(5, 1, 4, 1.0, 10, seed=1)
