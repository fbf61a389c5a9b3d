"""Monte Carlo laboratory over Haar-distributed unitary matrices.

Secular coefficients (elementary symmetric functions of the eigenvalues)
have absolute and mixed moments that estimate, by simulation, quantities the
counting module computes exactly (line-sum matrix counts, Diaconis-Gamburd).
The exact side of the full characteristic polynomial moment is the
Keating-Snaith factorial product over j <= n, which telescopes to a product
of k binomial ratios; ``full_poly_moment_exact`` evaluates that.

Two routes produce them.  ``haar_unitary`` builds a real matrix: Ginibre +
QR with the phase fix that makes the triangular factor's diagonal real
positive (without the fix QR is not Haar), and ``secular_coefficients`` reads
any matrix's coefficients from power traces through Newton's identities.
The Monte Carlo never forms a matrix.  The eigenvalues of a Haar unitary are
distributed as those of a CMV matrix with independent Verblunsky
coefficients (Killip-Nenciu): ``|alpha_k|^2 ~ Beta(1, n-k-1)`` with a
uniform phase for k < n-1, and ``alpha_{n-1}`` uniform on the circle.  The
Szego recursion turns them into det(z - U) in O(n^2) per sample.  The QR
route is the tests' independent reference for the Monte Carlo.

Fixed ceilings refuse, with BudgetError, what would not fit or not finish:
MAX_HAAR_ENTRIES bounds a drawn unitary and one Monte Carlo worker's
coefficient buffer, and MAX_SECULAR_N bounds the O(n^4) power-trace route.

Monte Carlo runs are reproducible: worker w draws from the w-th spawn of the
seed sequence and partial sums are reduced in worker order, so a fixed
(seed, threads) pair gives bit-identical estimates.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod, sqrt

import numpy as np

from . import counting
from .errors import BudgetError, check_threads

DEFAULT_BATCH = 4096
# haar_unitary holds several n-by-n arrays at once; at this many entries it peaks near 1 GiB.
# The same ceiling bounds one Monte Carlo worker's (n+1)-by-batch coefficient buffer.
MAX_HAAR_ENTRIES = 10**7
# secular_coefficients forms n matrix powers, O(n^4): 2.1 s at this size on 2 Xeon CPUs.
MAX_SECULAR_N = 400
_UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo mean with its standard error and the exact target when one is known."""

    mean: object
    stderr: float
    samples: int
    target: object = None

    def z_score(self):
        """Standardized distance |mean - target| / stderr; None without a target."""
        if self.target is None:
            return None
        dev = abs(self.mean - self.target)
        if self.stderr == 0:
            return 0.0 if dev == 0 else float("inf")
        return float(dev / self.stderr)


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """One Haar-distributed n-by-n unitary; bit-identical for a fixed (n, seed).

    QR of a complex Ginibre matrix, columns rephased by the R diagonal.  Refused
    with BudgetError above MAX_HAAR_ENTRIES entries.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n * n > MAX_HAAR_ENTRIES:
        raise BudgetError(
            f"{n}x{n} unitary has {n * n} entries, above the ceiling of {MAX_HAAR_ENTRIES}"
        )
    rng = np.random.Generator(np.random.Philox(seed))
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    m = q * (d / np.abs(d))
    residual = np.max(np.abs(m @ m.conj().T - np.eye(n)))
    if residual >= _UNITARITY_TOL:
        raise RuntimeError(f"unitarity residual {residual:.3e} out of tolerance")
    return m


def check_secular_n(n: int) -> None:
    """Refuse, with BudgetError, a dimension above MAX_SECULAR_N for secular_coefficients."""
    if n > MAX_SECULAR_N:
        raise BudgetError(
            f"secular coefficients of a {n}x{n} matrix take O(n^4) work; "
            f"n is capped at {MAX_SECULAR_N}"
        )


def secular_coefficients(m: np.ndarray) -> np.ndarray:
    """All coefficients e_0..e_n of one square matrix (e_j = j-th elementary symmetric
    function of the eigenvalues, equivalently the degree-(n-j) characteristic
    polynomial coefficient up to sign), via power traces + Newton's identities.
    Refused with BudgetError above MAX_SECULAR_N rows."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    n = m.shape[0]
    check_secular_n(n)
    # length-1 rows, not scalars: numpy's vector complex loops can round
    # differently from its scalar ones, and `rmt secular` prints every bit
    p = np.empty((n + 1, 1), dtype=np.complex128)
    power = m
    for i in range(1, n + 1):
        if i > 1:
            power = power @ m
        p[i] = np.trace(power)
    e = np.zeros((n + 1, 1), dtype=np.complex128)
    e[0] = 1.0
    for j in range(1, n + 1):
        acc = np.zeros(1, dtype=np.complex128)
        for i in range(1, j + 1):
            term = e[j - i] * p[i]
            acc += term if i % 2 else -term
        e[j] = acc / j
    return e[:, 0]


def _verblunsky_batch(rng: np.random.Generator, batch: int, n: int) -> np.ndarray:
    """Verblunsky coefficients of CUE(n), one column per sample (Killip-Nenciu):
    |alpha_k|^2 ~ Beta(1, n-k-1), drawn by inversion, for k < n-1 and
    |alpha_{n-1}| = 1, each with a uniform phase."""
    radius = np.ones((n, batch))
    shape = np.arange(n - 1, 0, -1)[:, None]  # n-k-1 for k = 0..n-2
    radius[:-1] = np.sqrt(-np.expm1(np.log1p(-rng.random((n - 1, batch))) / shape))
    phase = 2 * np.pi * rng.random((n, batch))
    alpha = np.empty((n, batch), dtype=np.complex128)
    alpha.real = radius * np.cos(phase)  # cos and sin: a third of the cost of a complex exp
    alpha.imag = radius * np.sin(phase)
    return alpha


def _szego(alpha: np.ndarray, jmax: int) -> np.ndarray:
    """Coefficients e_0..e_jmax, one row per column of ``alpha``, of det(z - C) for
    the CMV matrix C with those Verblunsky coefficients.

    Runs Phi_{k+1}(z) = z Phi_k(z) - conj(alpha_k) Phi_k^*(z) on coefficients
    stored from the leading one down, where z Phi_k has the same coefficients
    and Phi_k^* is their conjugated reverse; then e_j = (-1)^j [z^(n-j)] Phi_n.
    Coefficient-major storage keeps each update on contiguous rows of samples.
    """
    n, batch = alpha.shape
    phi = np.zeros((n + 1, batch), dtype=np.complex128)
    phi[0] = 1.0
    calpha = np.conj(alpha)
    for k in range(n):
        phi[1 : k + 2] -= calpha[k] * np.conj(phi[k::-1])
    e = phi[: jmax + 1]
    e[1::2] *= -1
    return e.T


def _quotas(samples: int, threads: int):
    q, r = divmod(samples, threads)
    return [q + 1] * r + [q] * (threads - r)


def _mc_mean(
    n: int,
    jmax: int,
    samples: int,
    seed: int,
    threads: int,
    value_fn,
    complex_valued: bool,
    target,
) -> MomentEstimate:
    """Deterministic parallel Monte Carlo driver.

    value_fn maps a (batch, jmax+1) coefficient block to one value per sample.
    Each worker owns a spawned RNG substream and a fixed quota; partial sums
    are combined in worker order, so results depend only on (seed, threads).
    Refused with BudgetError, before any draw, when one worker's (n+1)-by-batch
    buffer would hold more than MAX_HAAR_ENTRIES entries.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    check_threads(threads)
    threads = min(threads, samples)
    quotas = _quotas(samples, threads)
    batch = min(DEFAULT_BATCH, quotas[0])
    if (n + 1) * batch > MAX_HAAR_ENTRIES:
        raise BudgetError(
            f"a Monte Carlo worker buffer of {n + 1}x{batch} entries is above "
            f"the ceiling of {MAX_HAAR_ENTRIES}"
        )
    streams = np.random.SeedSequence(seed).spawn(threads)

    def work(w: int):
        rng = np.random.Generator(np.random.Philox(streams[w]))
        s1 = 0.0 + 0.0j
        s2 = 0.0
        left = quotas[w]
        while left:
            b = min(DEFAULT_BATCH, left)
            values = value_fn(_szego(_verblunsky_batch(rng, b, n), jmax))
            s1 += complex(np.sum(values))
            s2 += float(np.sum(np.abs(values) ** 2))
            left -= b
        return s1, s2

    if threads == 1:
        parts = [work(0)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = [f.result() for f in [pool.submit(work, w) for w in range(threads)]]

    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    mean = s1 / samples
    var = max(s2 / samples - abs(mean) ** 2, 0.0)
    stderr = sqrt(var / samples)
    if not complex_valued:
        mean = mean.real
    return MomentEstimate(mean=mean, stderr=stderr, samples=samples, target=target)


def secular_abs_moment_mc(
    j: int, k: int, n: int, samples: int, seed: int, threads: int = 1
) -> MomentEstimate:
    """Monte Carlo E|e_j|^(2k) over Haar; exact target count_magic(k, j) once n >= j*k."""
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    if k < 1:
        raise ValueError("k must be positive")
    target = counting.count_magic(k, j) if n >= j * k else None
    return _mc_mean(
        n, j, samples, seed, threads,
        lambda e: np.abs(e[:, j]) ** (2 * k),
        complex_valued=False, target=target,
    )


def mixed_moment_mc(a, b, n: int, samples: int, seed: int, threads: int = 1) -> MomentEstimate:
    """Monte Carlo E prod_j e_j^(a_j) conj(e_j)^(b_j) over Haar.

    The exact target is the contingency count with row sums <1^(a_1) 2^(a_2) ...>
    and column sums from b, valid once n reaches both weights; in particular it
    is 0 whenever the two weights differ.
    """
    a = tuple(int(v) for v in a)
    b = tuple(int(v) for v in b)
    if len(a) != len(b):
        raise ValueError("exponent vectors must have equal length")
    if not a:
        raise ValueError("exponent vectors must be nonempty")
    if len(a) > n:
        raise ValueError("exponent vectors longer than the dimension")
    if any(v < 0 for v in a + b):
        raise ValueError("exponents must be nonnegative")
    l = len(a)
    wa = sum(jj * v for jj, v in enumerate(a, start=1))
    wb = sum(jj * v for jj, v in enumerate(b, start=1))
    target = None
    if n >= max(wa, wb):
        mu = [jj for jj, v in enumerate(a, start=1) for _ in range(v)]
        nu = [jj for jj, v in enumerate(b, start=1) for _ in range(v)]
        target = counting.count_contingency(mu, nu)

    def values(e: np.ndarray) -> np.ndarray:
        acc = np.ones(e.shape[0], dtype=np.complex128)
        for jj in range(1, l + 1):
            if a[jj - 1]:
                acc *= e[:, jj] ** a[jj - 1]
            if b[jj - 1]:
                acc *= np.conj(e[:, jj]) ** b[jj - 1]
        return acc

    return _mc_mean(n, l, samples, seed, threads, values, complex_valued=True, target=target)


def truncated_poly_moment_mc(
    l: int, k: int, n: int, z: complex, samples: int, seed: int, threads: int = 1
) -> MomentEstimate:
    """Monte Carlo E|sum_{j<=l} e_j z^(n-j) (-1)^j|^(2k): degree-truncated characteristic
    polynomial at a point on the unit circle; exact target count_pseudomagic(k, l)
    once n >= l*k (the expectation does not depend on z)."""
    if not 0 <= l <= n:
        raise ValueError("need 0 <= l <= n")
    if k < 1:
        raise ValueError("k must be positive")
    z = complex(z)
    if not abs(abs(z) - 1.0) <= 1e-12:  # written so that a NaN |z| fails it too
        raise ValueError(f"|z| = {abs(z)!r} is not on the unit circle")
    target = counting.count_pseudomagic(k, l) if n >= l * k else None
    weights = np.array([z ** (n - j) * (-1) ** j for j in range(l + 1)], dtype=np.complex128)

    def values(e: np.ndarray) -> np.ndarray:
        return np.abs(e[:, : l + 1] @ weights) ** (2 * k)

    return _mc_mean(n, l, samples, seed, threads, values, complex_valued=False, target=target)


def full_poly_moment_exact(n: int, k: int) -> Fraction:
    """E|det(z - M)|^(2k) over Haar on the unit circle, exactly (Keating-Snaith):
    prod_{j=1..n} (j-1)! (j+2k-1)! / ((j+k-1)!)^2.  The j-th factor is
    prod_{i<k} (j+k+i)/(j+i), which telescopes over j to prod_{i<k} C(n+i+k, k) / C(i+k, k)."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return Fraction(prod(comb(n + i + k, k) for i in range(k)),
                    prod(comb(i + k, k) for i in range(k)))


def g_factor(k: int) -> Fraction:
    """Large-dimension scale of the 2k-th full-polynomial moment: prod_{j=0..k-1} j!/(j+k)!,
    which is 1 / (k!^k prod_{i<k} C(i+k, k))."""
    if k < 1:
        raise ValueError("k must be positive")
    return Fraction(1, factorial(k) ** k * prod(comb(i + k, k) for i in range(k)))
