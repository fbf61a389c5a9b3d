"""Pseudomoments of zeta partial sums: exact mean values and a direct integrator.

The long-time average of |sum_{n<=X} n^(-1/2-it)|^(2k) has an exact rational
limit, sum_n d_{k,X}(n)^2 / n, where d_{k,X}(n) counts ordered factorizations
of n into k factors each at most X (Montgomery-Vaughan mean value theorem).
This module computes that limit exactly, cross-checks it against a direct
enumeration over pairs of factorization tuples, approximates the time average
numerically, and compares everything against the arithmetic-factor-times-
count-polynomial prediction, whose quality improves only logarithmically.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import inf, log, prod

import numpy as np

from . import euler
from .ehrhart import CountingPolynomial, evaluate_real, pseudomagic_polynomial
from .errors import BudgetError, check_threads

DEFAULT_TUPLE_BUDGET = 10**8
DEFAULT_PAIR_BUDGET = 10**6
# numeric_moment's time grid and partial-sum terms: float arrays of this length are 80 MB.
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class DivisorProfile:
    """Restricted divisor counts: counts[n] = #{(l_1..l_k) : prod l_i = n, l_i <= bounds_i}."""

    k: int
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
    ratio_leading: float


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


def divisor_profile(k: int, bounds, tuple_budget: int = DEFAULT_TUPLE_BUDGET) -> DivisorProfile:
    """Exact restricted divisor counts: the Dirichlet convolution of the indicators of
    1..b_i, one factor at a time, so equal partial products are merged as they form."""
    bounds = _normalize_bounds(k, bounds)
    total = prod(bounds)
    if total > tuple_budget:
        raise BudgetError(f"{total} tuples exceed the budget of {tuple_budget}")
    counts = {1: 1}
    for b in bounds:
        nxt: dict = {}
        for n, c in counts.items():
            for m in range(n, n * b + 1, n):
                nxt[m] = nxt.get(m, 0) + c
        counts = nxt
    return DivisorProfile(k=k, bounds=bounds, counts=counts)


def _balanced_sum(terms) -> Fraction:
    # pairwise reduction keeps the two operands of every addition comparable
    # in size, so the bit cost stays near-linear instead of quadratic
    work = list(terms)
    if not work:
        return Fraction(0)
    while len(work) > 1:
        nxt = [work[i] + work[i + 1] for i in range(0, len(work) - 1, 2)]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def mv_pseudomoment(profile: DivisorProfile) -> Fraction:
    """Exact mean value sum_n counts[n]^2 / n of the squared profile."""
    return _balanced_sum(Fraction(d * d, n) for n, d in profile.counts.items())


def pair_sum_oracle(k: int, x: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> Fraction:
    """Direct enumeration over pairs of k-tuples with equal products; term 1/product each.

    Independent route to mv_pseudomoment: no squaring of counts, just raw
    pairs, at O(x^(2k)) cost.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if x < 1:
        raise ValueError("x must be at least 1")
    pairs = x ** (2 * k)
    if pairs > pair_budget:
        raise BudgetError(f"{pairs} tuple pairs exceed the budget of {pair_budget}")
    prods = [prod(t) for t in iproduct(range(1, x + 1), repeat=k)]
    return _balanced_sum(
        Fraction(1, p1) for p1 in prods for p2 in prods if p1 == p2
    )


def _partial_sum_power(k: int, x: int, t: np.ndarray, threads: int) -> np.ndarray:
    """|sum_{n<=x} n^(-1/2) exp(-i t log n)|^(2k) on the given grid, chunked to bound memory."""
    n = np.arange(1, x + 1, dtype=np.float64)
    logs = np.log(n)
    amps = (n ** -0.5).astype(np.complex128)
    out = np.empty(t.shape[0], dtype=np.float64)
    chunk = max(1, (1 << 21) // max(x, 1))

    def fill(lo: int, hi: int):
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            s = np.exp(-1j * t[a:b, None] * logs[None, :]) @ amps
            out[a:b] = np.abs(s) ** (2 * k)

    if threads == 1:
        fill(0, t.shape[0])
    else:
        # disjoint contiguous slices per worker; values are identical
        # regardless of the thread count, only wall time changes
        edges = np.linspace(0, t.shape[0], threads + 1).astype(int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(fill, edges[w], edges[w + 1]) for w in range(threads)]
            for f in futures:
                f.result()
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
    x must be positive and finite (ValueError otherwise).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not -inf < x < inf:  # false for NaN too; an int x of any size passes
        raise ValueError("x must be finite")
    logx = log(x)  # ValueError unless x > 0
    full = a_k * evaluate_real(gpoly, logx)
    leading = a_k * float(gpoly.leading_coefficient) * logx ** (k * k)
    return full, leading


def convergence_ladder(
    k: int,
    x_list,
    prime_limit: int = 10**5,
    j_terms: int = 64,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
):
    """Exact mean value against both predictions for each cutoff; one LadderRow per cutoff.

    Both ratios tend to 1, since the two predictions share the proven leading
    term, but only logarithmically, and ratio_full carries the error of the
    full prediction's lower-order terms (see `prediction`).  For k=1,
    ratio_full = H_x / (log x + 1), which approaches 1 from below at rate
    (1 - gamma)/(log x + 1).  j_terms is passed on to
    `euler.arithmetic_factor_a`, which ignores it.
    """
    factor = euler.arithmetic_factor_a(k, prime_limit=prime_limit, j_terms=j_terms)
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
                ratio_leading=exact_f / leading if leading != 0 else float("inf"),
            )
        )
    return rows
