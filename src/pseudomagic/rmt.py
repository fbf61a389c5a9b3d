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
Szego recursion turns them into the coefficients e_0..e_jmax of det(z - U) in
O(n jmax) per sample after a 2(jmax+1)-step prefix.  The QR route is the
tests' independent reference for the Monte Carlo.

Fixed ceilings refuse, with BudgetError, what would not fit or not finish:
MAX_HAAR_ENTRIES bounds a drawn unitary and one Monte Carlo worker's
coefficient buffer, MAX_MC_COST bounds a Monte Carlo run's (n+1)^2 * samples
Szego steps (a conservative count, since the recursion is banded),
MAX_SECULAR_N bounds the O(n^4) power-trace route, and MAX_EXACT_K bounds k
for the exact rationals, whose size grows as k^2 log k.

numpy is imported inside the functions that draw, multiply or sample, not at
module level, and ``counting`` inside the three Monte Carlo targets, so the
exact rationals (``full_poly_moment_exact``, ``g_factor``) load neither.

Every Monte Carlo run goes through ``_mc_mean`` in one order: the checks, then
the exact target, then the workers, so a refused run neither counts its target
nor builds anything from its arguments.  Worker w draws its share of the
samples from ``errors.run_workers`` out of the w-th spawn of the seed sequence
and partial sums are reduced in worker order, so a fixed (seed, threads) pair
gives bit-identical estimates, real when the values are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import comb, factorial, prod, sqrt, ulp
from typing import TYPE_CHECKING

from .errors import BudgetError, check_threads, run_workers

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BATCH = 4096
# haar_unitary holds several n-by-n arrays at once; at this many entries it peaks near 1 GiB.
# The same ceiling bounds one Monte Carlo worker's (n+1)-by-batch coefficient buffer.
MAX_HAAR_ENTRIES = 10**7
# Monte Carlo cost in Szego steps, (n+1)^2 * samples: about a minute single-threaded
# at the slowest rate measured on 2 AMD EPYC CPUs, 8.5e7 steps/s at n = 2.  The banded
# recursion does O(n jmax) work per sample, so (n+1)^2 is now a conservative bound.
MAX_MC_COST = 5 * 10**9
# secular_coefficients forms n matrix powers, O(n^4): 2.1 s at this size on 2 Xeon CPUs.
MAX_SECULAR_N = 400
# g_factor(k) has a denominator of about k^2 log k bits; at this k it and its
# decimal output take 0.9 s on 2 Xeon CPUs, and 2.9 s at k = 400.
MAX_EXACT_K = 300
_UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo mean with its standard error and the exact target when one is known."""

    mean: object
    stderr: float
    samples: int
    target: object = None

    def z_score(self):
        """Standardized distance |mean - target| / stderr; None without a target.

        With zero stderr, a deviation within 4 ulps of max(1, |target|) is
        rounding (one sample of |e_1| = 1 at n = 1, say) and scores 0.0;
        any larger one scores inf.
        """
        if self.target is None:
            return None
        dev = abs(self.mean - self.target)
        if self.stderr == 0:
            return 0.0 if dev <= 4 * ulp(max(1.0, abs(self.target))) else float("inf")
        return float(dev / self.stderr)


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """One Haar-distributed n-by-n unitary; bit-identical for a fixed (n, seed).

    QR of a complex Ginibre matrix, columns rephased by the R diagonal.  Refused
    with BudgetError above MAX_HAAR_ENTRIES entries.
    """
    import numpy as np

    if n < 1:
        raise ValueError("n must be positive")
    if seed < 0:  # numpy's own refusal names no flag
        raise ValueError(f"seed must be nonnegative, got {seed}")
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
    import numpy as np

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


@cache
def _phase_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(2 pi i h / 2^b) for the three digits of a 32-bit phase, b = 11, 22 and 32,
    built on first use.  Angles are reduced to the first quarter turn, where cos and
    sin are accurate, and rotated by exact powers of i."""
    import numpy as np

    tables = []
    for bits, size in ((11, 2048), (22, 2048), (32, 1024)):
        h = np.arange(size)
        angle = 2 * np.pi * ((h & ((1 << (bits - 2)) - 1)) / 2.0**bits)
        quarter = np.array([1, 1j, -1, -1j])[h >> (bits - 2)]
        tables.append((np.cos(angle) + 1j * np.sin(angle)) * quarter)
    return tuple(tables)


def _verblunsky_batch(rng: np.random.Generator, batch: int, n: int) -> np.ndarray:
    """Verblunsky coefficients of CUE(n), one column per sample (Killip-Nenciu):
    |alpha_k|^2 ~ Beta(1, n-k-1), drawn by inversion, for k < n-1 and
    |alpha_{n-1}| = 1.  Each phase is e^(2 pi i u / 2^32) for a uniform uint32 u,
    the exact uniform law on 2^32 equally spaced angles, formed as the product of
    three table entries indexed by u's top 11, middle 11 and low 10 bits."""
    import numpy as np

    shape = np.arange(n - 1, 0, -1)[:, None]  # n-k-1 for k = 0..n-2
    radius = np.sqrt(-np.expm1(np.log1p(-rng.random((n - 1, batch))) / shape))
    u = rng.integers(0, 2**32, size=(n, batch), dtype=np.uint32)
    hi, mid, lo = _phase_tables()
    # the two small rotations first: within 3.5e-16 of the true phase, against 4.6e-16
    # for (hi * mid) * lo, over 10^6 draws
    alpha = hi[u >> 21] * (mid[(u >> 10) & 0x7FF] * lo[u & 0x3FF])
    alpha[:-1] *= radius
    return alpha


def _szego(alpha: np.ndarray, jmax: int) -> np.ndarray:
    """Coefficients e_0..e_jmax, one row per column of ``alpha``, of det(z - C) for
    the CMV matrix C with those Verblunsky coefficients.

    Runs Phi_{k+1}(z) = z Phi_k(z) - conj(alpha_k) Phi_k^*(z) on coefficients
    stored from the leading one down, where z Phi_k has the same coefficients
    and Phi_k^* is their conjugated reverse; then e_j = (-1)^j [z^(n-j)] Phi_n.
    The head of Phi_{k+1} (its w = jmax+1 leading coefficients) and its tail (its
    w lowest) read only the head and the tail of Phi_k, so from degree 2w on the
    update skips the middle rows: O(n jmax) per sample after an O(jmax^2) prefix,
    with the same products as the full update, so the same bits.
    Coefficient-major storage keeps each update on contiguous rows of samples.
    """
    import numpy as np

    n, batch = alpha.shape
    w = jmax + 1
    phi = np.zeros((n + 1, batch), dtype=np.complex128)
    phi[0] = 1.0
    calpha = np.conj(alpha)
    for k in range(min(n, 2 * w)):
        phi[1 : k + 2] -= calpha[k] * np.conj(phi[k::-1])
    for k in range(2 * w, n):
        # both products before either write: the head reads rows the tail rewrites
        head = calpha[k] * np.conj(phi[k : k - w + 1 : -1])
        tail = calpha[k] * np.conj(phi[w - 1 :: -1])
        phi[1:w] -= head
        phi[k + 2 - w : k + 2] -= tail
    e = phi[:w]
    e[1::2] *= -1
    return e.T


def _mc_mean(n: int, jmax: int, samples: int, seed: int, threads: int,
             value_fn, target) -> MomentEstimate:
    """Mean of value_fn over `samples` Haar draws at dimension n: the checks, then
    ``target()`` (the exact value or None, with no budget of its own), then the workers.

    value_fn maps a (batch, jmax+1) coefficient block to one value per sample;
    the mean is real when the values are.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    check_threads(threads)
    if n < 1:
        raise ValueError("n must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    batch = min(DEFAULT_BATCH, samples)  # no worker draws a larger batch
    if (n + 1) * batch > MAX_HAAR_ENTRIES:
        raise BudgetError(
            f"a Monte Carlo worker buffer of {n + 1}x{batch} entries is above "
            f"the ceiling of {MAX_HAAR_ENTRIES}"
        )
    if (n + 1) ** 2 * samples > MAX_MC_COST:
        raise BudgetError(
            f"Monte Carlo of {samples} samples at n = {n} takes (n+1)^2 * samples = "
            f"{(n + 1) ** 2 * samples} Szego steps, above the ceiling of {MAX_MC_COST}"
        )
    exact = target()

    import numpy as np

    def work(w: int, lo: int, hi: int):
        # the w-th child of SeedSequence(seed), as SeedSequence.spawn makes it
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(w,))))
        s1 = s2 = 0.0
        left = hi - lo
        while left:
            b = min(DEFAULT_BATCH, left)
            values = value_fn(_szego(_verblunsky_batch(rng, b, n), jmax))
            s1 += np.sum(values).item()
            s2 += float(np.sum(np.abs(values) ** 2))
            left -= b
        return s1, s2

    parts = run_workers(work, samples, threads)
    mean = sum(p[0] for p in parts) / samples
    var = max(sum(p[1] for p in parts) / samples - abs(mean) ** 2, 0.0)
    return MomentEstimate(mean=mean, stderr=sqrt(var / samples), samples=samples, target=exact)


def secular_abs_moment_mc(
    j: int, k: int, n: int, samples: int, seed: int, threads: int = 1
) -> MomentEstimate:
    """Monte Carlo E|e_j|^(2k) over Haar; exact target count_magic(k, j) once n >= j*k."""
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    if k < 1:
        raise ValueError("k must be positive")
    def target():
        from . import counting
        return counting.count_magic(k, j) if n >= j * k else None

    return _mc_mean(n, j, samples, seed, threads, lambda e: abs(e[:, j]) ** (2 * k), target)


def mixed_moment_mc(a, b, n: int, samples: int, seed: int, threads: int = 1) -> MomentEstimate:
    """Monte Carlo E prod_j e_j^(a_j) conj(e_j)^(b_j) over Haar.

    The exact target is the contingency count with row sums <1^(a_1) 2^(a_2) ...>
    and column sums from b, valid once n reaches both weights; in particular it
    is 0 whenever the two weights differ.
    """
    import numpy as np

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

    def target():
        from . import counting
        # the weights first: the multisets have as many entries as the exponents sum to
        if n < max(sum(jj * v for jj, v in enumerate(c, start=1)) for c in (a, b)):
            return None
        mu = [jj for jj, v in enumerate(a, start=1) for _ in range(v)]
        nu = [jj for jj, v in enumerate(b, start=1) for _ in range(v)]
        return counting.count_contingency(mu, nu)

    def values(e: np.ndarray) -> np.ndarray:
        acc = np.ones(e.shape[0], dtype=np.complex128)
        for jj, (p, q) in enumerate(zip(a, b), start=1):
            if p:
                acc *= e[:, jj] ** p
            if q:
                acc *= np.conj(e[:, jj]) ** q
        return acc

    return _mc_mean(n, len(a), samples, seed, threads, values, target)


def truncated_poly_moment_mc(
    l: int, k: int, n: int, z: complex, samples: int, seed: int, threads: int = 1
) -> MomentEstimate:
    """Monte Carlo E|sum_{j<=l} e_j z^(n-j) (-1)^j|^(2k): degree-truncated characteristic
    polynomial at a point on the unit circle; exact target count_pseudomagic(k, l)
    once n >= l*k (the expectation does not depend on z)."""
    import numpy as np

    if not 0 <= l <= n:
        raise ValueError("need 0 <= l <= n")
    if k < 1:
        raise ValueError("k must be positive")
    z = complex(z)
    if not abs(abs(z) - 1.0) <= 1e-12:  # written so that a NaN |z| fails it too
        raise ValueError(f"|z| = {abs(z)!r} is not on the unit circle")

    def values(e: np.ndarray) -> np.ndarray:
        # per batch, after _mc_mean's checks: O(l) against the batch's O(n l) Szego steps
        weights = np.array([z ** (n - j) * (-1) ** j for j in range(l + 1)], dtype=np.complex128)
        # one scaled row per coefficient, not a BLAS product: OpenBLAS threads
        # that gemv at batch size, and its idle worker then spins on a core
        acc = weights[0] * e[:, 0]
        for j in range(1, l + 1):
            acc += weights[j] * e[:, j]
        return np.abs(acc) ** (2 * k)

    def target():
        from . import counting
        return counting.count_pseudomagic(k, l) if n >= l * k else None

    return _mc_mean(n, l, samples, seed, threads, values, target)


def _check_exact_k(k: int) -> None:
    if k > MAX_EXACT_K:
        raise BudgetError(f"exact moments are capped at k = {MAX_EXACT_K}, got k = {k}")


def full_poly_moment_exact(n: int, k: int) -> Fraction:
    """E|det(z - M)|^(2k) over Haar on the unit circle, exactly (Keating-Snaith):
    prod_{j=1..n} (j-1)! (j+2k-1)! / ((j+k-1)!)^2.  The j-th factor is
    prod_{i<k} (j+k+i)/(j+i), which telescopes over j to prod_{i<k} C(n+i+k, k) / C(i+k, k).
    Refused with BudgetError above MAX_EXACT_K."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_exact_k(k)
    return Fraction(prod(comb(n + i + k, k) for i in range(k)),
                    prod(comb(i + k, k) for i in range(k)))


def g_factor(k: int) -> Fraction:
    """Large-dimension scale of the 2k-th full-polynomial moment: prod_{j=0..k-1} j!/(j+k)!,
    which is 1 / (k!^k prod_{i<k} C(i+k, k)).  Refused with BudgetError above MAX_EXACT_K."""
    if k < 1:
        raise ValueError("k must be positive")
    _check_exact_k(k)
    return Fraction(1, factorial(k) ** k * prod(comb(i + k, k) for i in range(k)))
