"""Haar sampling, secular coefficients, Monte Carlo moments, exact constants."""

import threading
from fractions import Fraction as F
from math import comb, factorial, sqrt, ulp

import numpy as np
import pytest
from mpmath import expjpi, mpf, workprec

from pseudomagic.counting import count_pseudomagic
from pseudomagic.errors import MAX_THREADS, BudgetError, run_workers
from pseudomagic.rmt import (
    MAX_EXACT_K,
    MAX_HAAR_ENTRIES,
    MAX_SECULAR_N,
    MomentEstimate,
    _mc_mean,
    _phase_tables,
    _szego,
    _verblunsky_batch,
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


def _szego_full(alpha, jmax):
    """The full O(n^2) Szego update over every coefficient, the reference for the banded one."""
    n, batch = alpha.shape
    phi = np.zeros((n + 1, batch), dtype=np.complex128)
    phi[0] = 1.0
    calpha = np.conj(alpha)
    for k in range(n):
        phi[1 : k + 2] -= calpha[k] * np.conj(phi[k::-1])
    e = phi[: jmax + 1]
    e[1::2] *= -1
    return e.T


class TestVerblunskyRecursion:
    @pytest.mark.parametrize("n", range(1, 31))
    def test_banded_is_bit_identical_to_full_update(self, n):
        # the grid holds n = 2(jmax+1) - 1, 2(jmax+1) and 2(jmax+1) + 1 for every jmax
        alpha = _verblunsky_batch(np.random.Generator(np.random.Philox(n)), 257, n)
        for jmax in range(min(n, 4) + 1):
            assert _szego(alpha, jmax).tobytes() == _szego_full(alpha, jmax).tobytes()

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

    def test_k_ceiling(self):
        assert g_factor(MAX_EXACT_K).denominator > 1
        with pytest.raises(BudgetError, match=str(MAX_EXACT_K)):
            g_factor(MAX_EXACT_K + 1)
        with pytest.raises(BudgetError, match=str(MAX_EXACT_K)):
            full_poly_moment_exact(10, MAX_EXACT_K + 1)


class TestZScore:
    @pytest.mark.parametrize("mean,target", [
        (1.0, 1), (1 + 2 * ulp(1.0), 1), (1 - 4 * ulp(1.0), 1), (4 * ulp(1.0), 0),
        (F(7, 2) + 4 * ulp(3.5), F(7, 2)), (1e6 - 4 * ulp(1e6), 10**6),
    ])
    def test_rounding_with_zero_stderr_scores_zero(self, mean, target):
        # one exactly determined sample, such as |e_1| = 1 at n = 1, deviates by rounding alone
        assert MomentEstimate(float(mean), 0.0, 1, target).z_score() == 0.0

    @pytest.mark.parametrize("mean,target", [
        (1 + 8 * ulp(1.0), 1), (5 * ulp(1.0), 0), (0.5, 1), (1e6 + 8 * ulp(1e6), 10**6),
    ])
    def test_real_deviation_with_zero_stderr_is_infinite(self, mean, target):
        assert MomentEstimate(mean, 0.0, 1, target).z_score() == float("inf")

    def test_positive_stderr_is_plain_ratio(self):
        assert MomentEstimate(1 + 1e-15, 1e-16, 2, 1).z_score() == pytest.approx(10, rel=0.2)
        assert MomentEstimate(1.0, 0.0, 1, None).z_score() is None

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_unit_modulus_sample_scores_zero(self, seed):
        est = secular_abs_moment_mc(1, 1, 1, samples=1, seed=seed)
        assert est.stderr == 0 and est.target == 1 and est.z_score() == 0.0


def _table_phase(u):
    hi, mid, lo = _phase_tables()
    return hi[u >> 21] * (mid[(u >> 10) & 0x7FF] * lo[u & 0x3FF])


class TestPhaseTables:
    def test_draw_is_the_table_phase_of_one_uint32(self):
        # at n = 1 no radius is drawn, so the stream holds the phases' uint32s alone
        u = np.random.Generator(np.random.Philox(14)).integers(0, 2**32, (1, 999), np.uint32)
        alpha = _verblunsky_batch(np.random.Generator(np.random.Philox(14)), 999, 1)
        assert alpha.tobytes() == _table_phase(u).tobytes()

    def test_table_product_is_the_exact_phase(self):
        edges = [0, 1, 2**10 - 1, 2**10, 2**21 - 1, 2**21, 2**31, 2**32 - 1]
        u = np.concatenate([
            np.array(edges, dtype=np.uint32),
            np.random.default_rng(12).integers(0, 2**32, 10**5, dtype=np.uint32),
        ])
        phase = _table_phase(u)
        # np.exp(2j * np.pi * u / 2**32) is itself up to 7e-16 off, so the reference is mpmath
        with workprec(80):
            exact = np.array([complex(expjpi(mpf(int(v)) / 2**31)) for v in u])
        assert np.max(np.abs(phase - exact)) < 4e-16

    def test_last_coefficient_is_uniform_on_the_circle(self):
        draws = 10**6
        alpha = _verblunsky_batch(np.random.Generator(np.random.Philox(13)), draws, 1)[0]
        assert np.max(np.abs(np.abs(alpha) - 1)) <= 2 * np.finfo(float).eps
        for m in (1, 2, 3):
            # |alpha^m| = 1, so the mean's standard error is at most 1/sqrt(draws)
            assert abs(np.mean(alpha**m)) * sqrt(draws) < 4


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
        (10**6, 4096, 1), (3000, 4096, 1), (3000, 8192, 2), (3000, 8192, 4),
    ])
    def test_buffer_ceiling_refused_before_any_draw(self, n, samples, threads):
        with pytest.raises(BudgetError, match=str(MAX_HAAR_ENTRIES)):
            secular_abs_moment_mc(1, 1, n, samples, seed=0, threads=threads)

    def test_small_quota_stays_under_the_buffer_ceiling(self):
        # 3000 rows are refused at full batch (above) but not for 3 samples
        est = secular_abs_moment_mc(1, 1, 3000, 3, seed=0)
        assert est.samples == 3 and est.target == 1

    def test_truncated_reproducible_for_fixed_seed_and_threads(self):
        a = truncated_poly_moment_mc(3, 1, 6, np.exp(0.3j), 6000, seed=7, threads=2)
        b = truncated_poly_moment_mc(3, 1, 6, np.exp(0.3j), 6000, seed=7, threads=2)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_mixed_reproducible_for_fixed_seed_and_threads(self):
        a = mixed_moment_mc((1, 1), (0, 1), 6, 6000, seed=7, threads=2)
        b = mixed_moment_mc((1, 1), (0, 1), 6, 6000, seed=7, threads=2)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_truncated_worker_counts_statistically_equivalent(self):
        a = truncated_poly_moment_mc(2, 1, 6, 1.0, 20000, seed=5, threads=1)
        b = truncated_poly_moment_mc(2, 1, 6, 1.0, 20000, seed=5, threads=3)
        assert abs(a.mean - b.mean) < 5 * (a.stderr + b.stderr)

    def test_single_thread_run_keeps_to_one_core(self, cpu_per_wall_second):
        truncated_poly_moment_mc(3, 1, 16, 1.0, 4096, seed=1)  # warm up
        ratio = cpu_per_wall_second(lambda: truncated_poly_moment_mc(3, 1, 16, 1.0, 8 * 4096, 2))
        assert ratio < 1.5

    def test_more_threads_than_samples(self):
        est = secular_abs_moment_mc(1, 1, 3, 2, seed=0, threads=8)
        assert est.samples == 2

    @pytest.mark.parametrize("n,samples,error", [
        (0, 5, ValueError), (-1, 5, ValueError), (10**6, 4096, BudgetError),
        (2440, 16384, BudgetError),
    ])
    def test_checks_run_before_the_target(self, n, samples, error):
        def target():
            raise AssertionError("target computed before the checks")

        with pytest.raises(error):
            _mc_mean(n, 1, samples, 0, 1, None, target)

    @pytest.mark.parametrize("estimate,text", [
        (lambda: secular_abs_moment_mc(1, 1, 0, 5, seed=0), "need 1 <= j <= n"),
        (lambda: mixed_moment_mc((1,), (1,), 0, 5, seed=0), "longer than the dimension"),
        # l = 0 passes the estimator's own checks; the driver refuses n = 0
        (lambda: truncated_poly_moment_mc(0, 1, 0, 1.0, 5, seed=0), "n must be positive"),
    ], ids=["secular", "mixed", "truncated"])
    def test_dimension_zero_refused(self, estimate, text):
        with pytest.raises(ValueError) as exc:
            estimate()
        assert str(exc.value).endswith(text)

    def test_mean_is_real_when_the_values_are(self):
        assert type(secular_abs_moment_mc(1, 1, 3, 10, seed=0, threads=2).mean) is float
        assert type(truncated_poly_moment_mc(1, 1, 3, 1.0, 10, seed=0).mean) is float
        assert type(mixed_moment_mc((1,), (1,), 3, 10, seed=0, threads=2).mean) is complex

    def test_run_workers_in_share_order(self):
        assert run_workers(lambda w, lo, hi: w * w, 5, 5) == [0, 1, 4, 9, 16]
        # one share runs on the calling thread, with no pool
        assert run_workers(lambda w, lo, hi: threading.get_ident(), 7, 1) == [threading.get_ident()]
        assert run_workers(lambda w, lo, hi: threading.get_ident(), 1, 4) == [threading.get_ident()]

    @pytest.mark.parametrize("total,workers,sizes", [
        (10, 3, [4, 3, 3]), (11, 3, [4, 4, 3]), (12, 3, [4, 4, 4]),
        (5, 1, [5]), (3, 7, [1, 1, 1]), (1, 64, [1]), (130, 64, [3, 3] + [2] * 62),
    ])
    def test_run_workers_shares(self, total, workers, sizes):
        # consecutive shares covering range(total), the first total % shares one larger
        shares = run_workers(lambda w, lo, hi: (w, lo, hi), total, workers)
        assert [w for w, _, _ in shares] == list(range(len(sizes)))
        assert [hi - lo for _, lo, hi in shares] == sizes
        assert [lo for _, lo, _ in shares] == [0] + [hi for _, _, hi in shares[:-1]]
        assert shares[-1][2] == total

    def test_run_workers_raises_the_first_failure_in_share_order(self):
        def work(w, lo, hi):
            if w:
                raise ValueError(f"worker {w}")
            return w

        with pytest.raises(ValueError, match="worker 1"):
            run_workers(work, 9, 3)


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

    def test_law_where_the_banded_recursion_runs(self):
        # n = 24 is far past the 2(jmax+1) = 8 rows of the full prefix
        est = secular_abs_moment_mc(3, 1, 24, 200000, seed=110)
        assert est.target == 1
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

    def test_matches_matrix_product_reference(self):
        # _mc_mean's one stream and batches, weighted by a BLAS product instead
        l, k, n, z, samples = 3, 2, 6, np.exp(0.3j), 5000
        est = truncated_poly_moment_mc(l, k, n, z, samples, seed=9)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(9).spawn(1)[0]))
        w = np.array([z ** (n - j) * (-1) ** j for j in range(l + 1)])
        values = [abs(_szego(_verblunsky_batch(rng, b, n), l) @ w) ** (2 * k)
                  for b in (4096, samples - 4096)]
        assert est.mean == pytest.approx(np.concatenate(values).mean(), rel=1e-12)

    def test_law_where_the_banded_recursion_runs(self):
        est = truncated_poly_moment_mc(2, 1, 20, np.exp(0.4j), 200000, seed=111)
        assert est.target == count_pseudomagic(1, 2)
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
