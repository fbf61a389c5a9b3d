"""Pseudomoments of zeta partial sums: exact mean values and a direct integrator.

The long-time average of |sum_{n<=X} n^(-1/2-it)|^(2k) has an exact rational
limit, sum_n d_{k,X}(n)^2 / n, where d_{k,X}(n) counts ordered factorizations
of n into k factors each at most X (Montgomery-Vaughan mean value theorem).
This module computes that limit exactly, cross-checks it against a direct
enumeration over pairs of factorization tuples, approximates the time average
numerically, and compares everything against the arithmetic-factor-times-
count-polynomial prediction, whose quality improves only logarithmically.

The two exact routes share no summation code.  ``mv_pseudomoment`` sums by the
structure of the profile.  With B the largest bound, a prime p above isqrt(B)
and above every other bound divides a product at most once, and only through
the B entry, so the terms divisible by p are the profile of a smaller bound
tuple shifted by p.  The remaining terms and those smaller profiles are each
one integer sum over a common denominator free of such primes, and the 1/p
are joined by binary splitting, with one gcd in all.  ``pair_sum_oracle`` finds
its equal-product pairs by hash join and sums their terms with
``_exact_sum``, which adds each run of 64 terms in integers over the lcm of
the run's denominators and then the runs' fractions pairwise.

Only the direct integrator needs numpy and worker threads: ``numeric_moment``
imports numpy when it runs and ``errors.run_workers`` its thread pool, so the
exact mean values and the predictions run without loading either.  Likewise
``prediction`` and ``convergence_ladder`` import ``ehrhart`` (and so ``counting``).
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from itertools import product as iproduct
from math import inf, isqrt, lcm, log, prod
from operator import mul
from typing import TYPE_CHECKING

from . import euler
from .errors import (DEFAULT_PAIR_BUDGET, DEFAULT_TUPLE_BUDGET, BudgetError, check_budget,
                     check_size, check_threads, run_workers)

if TYPE_CHECKING:
    import numpy as np
    from .ehrhart import CountingPolynomial

# numeric_moment's time grid and partial-sum terms: float arrays of this length are 80 MB.
MAX_GRID_POINTS = 10**7
# terms per integer run of _exact_sum: one lcm and one gcd each
_RUN = 64


@dataclass(frozen=True)
class DivisorProfile:
    """Restricted divisor counts: counts[n] = #{(l_1..l_k) : prod l_i = n, l_i <= bounds_i},
    with k = len(bounds)."""

    bounds: tuple
    counts: dict

    @property
    def total_tuples(self) -> int:
        return prod(self.bounds)


@dataclass(frozen=True)
class LadderRow:
    """One cutoff of the convergence comparison: exact mean value vs. predictions."""

    x: int
    exact: Fraction
    prediction_full: float
    prediction_leading: float
    ratio_full: float
    ratio_leading: float | None  # None at X = 1, where the leading prediction is 0


def _normalize_bounds(k: int, bounds) -> tuple:
    if k < 1:
        raise ValueError("k must be positive")
    if isinstance(bounds, int):
        bounds = (bounds,) * k
    else:
        bounds = tuple(int(b) for b in bounds)
    if len(bounds) != k:
        raise ValueError(f"expected {k} cutoffs, got {len(bounds)}")
    if any(b < 1 for b in bounds):
        raise ValueError("cutoffs must be at least 1")
    return bounds


def _convolve(counts: dict, b: int) -> dict:
    """One Dirichlet convolution step: counts times the indicator of 1..b, so
    equal products merge as they form."""
    nxt: dict = {}
    for n, c in counts.items():
        for m in range(n, n * b + 1, n):
            nxt[m] = nxt.get(m, 0) + c
    return nxt


def divisor_profile(k: int, bounds, tuple_budget: int = DEFAULT_TUPLE_BUDGET) -> DivisorProfile:
    """Exact restricted divisor counts: the Dirichlet convolution of the indicators of
    1..b_i, one factor at a time, so equal partial products are merged as they form."""
    bounds = _normalize_bounds(k, bounds)
    check_size(Counter(bounds).items(), tuple_budget, "tuples")
    counts = {1: 1}
    for b in bounds:
        counts = _convolve(counts, b)
    return DivisorProfile(bounds=bounds, counts=counts)


def _top_power(p: int, b: int) -> int:
    """The largest power of the prime p that is at most b (p <= b)."""
    q = p
    while q * p <= b:
        q *= p
    return q


def _numerator(counts: dict, den: int) -> int:
    """sum_n counts[n]^2 * (den // n), for a common multiple den of every n."""
    cs = counts.values()
    return sum(map(mul, map(mul, cs, cs), map(den.__floordiv__, counts)))


def _split(terms: list) -> tuple:
    """(sum_i a_i * D / d_i, D) for (a_i, d_i) pairs with pairwise coprime d_i, D = prod d_i.

    Binary splitting: each pair of neighbours becomes (a*e + b*d, d*e), so the
    operands of every product stay comparable in size and no gcd is taken.
    """
    while len(terms) > 1:
        nxt = [(a * e + b * d, d * e) for (a, d), (b, e) in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


def mv_pseudomoment(profile: DivisorProfile) -> Fraction:
    """Exact mean value sum_n counts[n]^2 / n of the squared profile.

    Let B be the largest bound and b' the largest of the others (0 when k = 1).
    A prime p > max(isqrt(B), b') is *simple*: a tuple whose product p divides
    carries p exactly once, in its B entry, so dividing that entry by p is a
    bijection and d_b(p*m) = d_{b*}(m), where b* has B replaced by q = B // p.
    Hence

        mv(b) = sum_{n free of simple primes} d_b(n)^2 / n
                + sum_p mv(b*_{B // p}) / p   (p simple).

    The first sum runs over ``profile.counts`` without the keys p*m.  It and
    every mv(b*_q), each over its own profile, are single integer sums over
    one common denominator, prod_i lcm(1..b_i) without the simple primes
    (about 480 bits at X = 25 000, against 36 000 for lcm(1..X)).  The 1/p
    have pairwise coprime denominators, so they are combined by binary
    splitting, and the one gcd is the final Fraction's.  Tied largest bounds
    have no simple prime, and the sum is the first term alone.  Sieves the
    primes up to B, so B is capped at euler.MAX_PRIME_LIMIT (BudgetError
    above it).
    """
    bounds = profile.bounds
    top = max(bounds)
    i = bounds.index(top)
    rest = bounds[:i] + bounds[i + 1:]
    primes = euler.primes_up_to(top)
    cut = bisect_right(primes, max((isqrt(top), *rest)))
    den = prod(_top_power(p, b) for b in rest for p in primes[: bisect_right(primes, b)])
    den *= prod(_top_power(p, top) for p in primes[:cut])
    simple = primes[cut:]
    if not simple:
        return Fraction(_numerator(profile.counts, den), den)
    base = {1: 1}
    for b in rest:
        base = _convolve(base, b)
    subs = {q: _convolve(base, q) for q in {top // p for p in simple}}
    smooth = profile.counts.copy()
    for p in simple:  # n = p*m for exactly one simple p and one m in the profile of b*_q
        for m in subs[top // p]:
            del smooth[p * m]
    sub = {q: _numerator(counts, den) for q, counts in subs.items()}
    terms = [(_numerator(smooth, den), 1)] + [(sub[top // p], p) for p in simple]
    num, simple_prod = _split(terms)
    return Fraction(num, den * simple_prod)


def _exact_sum(terms) -> Fraction:
    """Exact sum of c/d over the (c, d) integer pairs of ``terms``, d positive.

    Each run of _RUN consecutive terms is summed in integers over the lcm of
    its denominators, which costs one gcd per run instead of one per term.
    The runs' fractions are then added pairwise, so the two operands of
    every addition stay comparable in size and the bit cost stays
    near-linear instead of quadratic.
    """
    it = iter(terms)
    work = []
    while run := list(islice(it, _RUN)):
        den = lcm(*(d for _, d in run))
        work.append(Fraction(sum(c * (den // d) for c, d in run), den))
    if not work:
        return Fraction(0)
    while len(work) > 1:
        nxt = [work[i] + work[i + 1] for i in range(0, len(work) - 1, 2)]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def pair_sum_oracle(k: int, x: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> Fraction:
    """Direct enumeration over pairs of k-tuples with equal products; term 1/product each.

    Independent route to mv_pseudomoment: no squaring of counts, just raw
    pairs.  The pairs are found by hash join: the x^k tuples are bucketed by
    product, and each tuple emits one term per tuple in its own bucket, so
    the cost is the x^k tuples plus the equal pairs, not all x^(2k) pairs.
    The budget still counts all x^(2k) pairs.  The terms are summed by
    ``_exact_sum``, which mv_pseudomoment does not use.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if x < 1:
        raise ValueError("x must be at least 1")
    check_size([(x, 2 * k)], pair_budget, "tuple pairs")
    prods = [prod(t) for t in iproduct(range(1, x + 1), repeat=k)]
    buckets = Counter(prods)
    return _exact_sum((1, p) for p in prods for _ in range(buckets[p]))


def _partial_sum_power(k: int, x: int, t: np.ndarray, threads: int) -> np.ndarray:
    """|sum_{n<=x} n^(-1/2) exp(-i t log n)|^(2k) on the given grid, chunked to bound memory."""
    import numpy as np

    n = np.arange(1, x + 1, dtype=np.float64)
    logs = np.log(n)
    amps = (n ** -0.5).astype(np.complex128)
    out = np.empty(t.shape[0], dtype=np.float64)
    chunk = max(1, (1 << 21) // max(x, 1))

    def fill(w: int, lo: int, hi: int):
        # each worker fills its own share of the grid from run_workers; the
        # values do not depend on the thread count, only the wall time does
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            # einsum without `optimize` never calls BLAS: OpenBLAS threads this
            # gemv, and its idle worker then spins on a core
            s = np.einsum("ij,j->i", np.exp(-1j * t[a:b, None] * logs[None, :]), amps)
            out[a:b] = np.abs(s) ** (2 * k)

    run_workers(fill, t.shape[0], threads)
    return out


def numeric_moment(k: int, x: int, t_max: float, steps: int, threads: int = 1):
    """Trapezoid approximation of the time average on [0, t_max].

    Returns (value, error_estimate); the estimate is the difference against
    the trapezoid on every second node (plus the endpoint when ``steps`` is
    odd, so both rules span [0, t_max]), a crude consistency gauge rather
    than a bound.  Warns when the grid cannot resolve the fastest oscillation
    (period 2*pi/log(x)) with 20 points.  Refused with BudgetError, before
    any allocation, when steps + 1 or x exceeds MAX_GRID_POINTS.
    """
    import numpy as np

    if k < 1 or x < 1:
        raise ValueError("k and x must be positive")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if not t_max < inf:  # NaN passes the check above but not this one
        raise ValueError("t_max must be finite")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    check_threads(threads)
    if max(steps + 1, x) > MAX_GRID_POINTS:
        raise BudgetError(
            f"quadrature over {steps + 1} grid points and {x} terms: "
            f"each is capped at {MAX_GRID_POINTS}"
        )
    if x > 1:
        needed = 20 * t_max * log(x) / (2 * np.pi)
        if steps < needed:
            warnings.warn(
                f"steps={steps} below the oscillation-resolving {needed:.0f}; "
                "the quadrature may alias",
                stacklevel=2,
            )
    t = np.linspace(0.0, t_max, steps + 1)
    f = _partial_sum_power(k, x, t, threads)
    full = float(np.trapezoid(f, t) / t_max)
    t2, f2 = t[::2], f[::2]
    if steps % 2:  # keep the endpoint so the coarse rule covers [0, t_max] too
        t2, f2 = np.append(t2, t[-1]), np.append(f2, f[-1])
    half = float(np.trapezoid(f2, t2) / t_max)
    return full, abs(full - half)


def prediction(k: int, x, a_k: float, gpoly: CountingPolynomial):
    """(a_k * gpoly(log x), a_k * leading * (log x)^(k^2)): full and leading-only predictions.

    Conrey-Gamburd prove only the leading term: a_k times the
    substochastic volume times (log x)^(k^2).  The lower-order terms of the
    full prediction a_k * G_k(log x) are not asymptotically exact; for k=1 it
    is log x + 1, while the true mean value is H_x = log x + gamma + O(1/x).
    x must be finite and at least 1, as for the exact mean values, whose
    partial sums are empty below 1 (ValueError otherwise).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not -inf < x < inf:  # false for NaN too; an int x of any size passes
        raise ValueError("x must be finite")
    if x <= 0:
        raise ValueError(f"x must be positive, got {x!r}")
    if x < 1:
        raise ValueError(f"x must be at least 1, got {x!r}")
    from .ehrhart import evaluate_real
    logx = log(x)
    full = a_k * evaluate_real(gpoly, logx)
    leading = a_k * float(gpoly.leading_coefficient) * logx ** (k * k)
    return full, leading


def convergence_ladder(
    k: int,
    x_list,
    prime_limit: int = 10**5,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
):
    """Exact mean value against both predictions for each cutoff; one LadderRow per cutoff.

    Both ratios tend to 1, since the two predictions share the proven leading
    term, but only logarithmically, and ratio_full carries the error of the
    full prediction's lower-order terms (see `prediction`).  For k=1,
    ratio_full = H_x / (log x + 1), which approaches 1 from below at rate
    (1 - gamma)/(log x + 1).  a_k is taken once, over the primes up to
    prime_limit; a cutoff with more than tuple_budget tuples raises BudgetError.
    """
    from .ehrhart import pseudomagic_polynomial
    check_budget(tuple_budget)  # before a_k, whose sieve may be the larger work
    factor = euler.arithmetic_factor_a(k, prime_limit=prime_limit)
    gpoly = pseudomagic_polynomial(k)
    rows = []
    for x in x_list:
        x = int(x)
        exact = mv_pseudomoment(divisor_profile(k, x, tuple_budget=tuple_budget))
        full, leading = prediction(k, x, factor.value, gpoly)
        exact_f = float(exact)
        rows.append(
            LadderRow(
                x=x,
                exact=exact,
                prediction_full=full,
                prediction_leading=leading,
                ratio_full=exact_f / full,
                ratio_leading=exact_f / leading if leading != 0 else None,
            )
        )
    return rows
