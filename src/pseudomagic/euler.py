"""Truncated Euler products for the arithmetic constants of the moment predictions.

Two products are evaluated over primes p <= prime_limit, with x = 1/p:

  unitary factor    a_k = prod_p (1-x)^(k^2) * sum_{j>=0} d_k(p^j)^2 x^j
                        = prod_p (1-x)^((k-1)^2) * sum_{i<k} binom(k-1, i)^2 x^i
  symplectic factor b_k = prod_p [(1-x)^(k(k+1)/2)/(1+x)]
                               * [((1-sqrt x)^(-k) + (1+sqrt x)^(-k))/2 + x]

The second form of a_k is the closed form of its local series,
sum_j binom(j+k-1, k-1)^2 x^j = (sum_i binom(k-1, i)^2 x^i) / (1-x)^(2k-1),
so no local factor is truncated: the only truncation is at prime_limit.

Both products are taken in float64 and in the log domain.  Each local log is
split so that its leading 1 never rounds away: a_k's is
(k-1)^2 log1p(-x) + log1p(T) with T = sum_{1<=i<k} binom(k-1, i)^2 x^i formed
from the exact integer p^(k-1) T by one division, and b_k's bracket minus 1 is
(expm1(-k log1p(-sqrt x)) + expm1(-k log1p(sqrt x)))/2 + x.  The local logs are
summed with math.fsum and exponentiated once.

Every local factor lies in (0, 1], because its series in x is dominated term
by term by that of the prefactor's inverse.  For a_k, d_k(p^j)^2 <=
d_{k^2}(p^j): every pair of k-part compositions of j is the pair of margins of
some k-by-k table with entries summing to j.  For b_k, the bracket's
coefficient binom(k+2m-1, 2m) is at most binom(K+m-1, m) with K = k(k+1)/2:
every 2m-multiset of k symbols splits into m unordered pairs.  So exp never
overflows, and once the partial log sum is below what float64 can represent,
the product stops at 0.0.

tail_estimate is the heuristic c_k/prime_limit with c_k calibrated from the
last included prime: |local(p_max) - 1| * p_max^2 / prime_limit, with
local - 1 taken by expm1.  Local factors are 1 + O(1/p^2) for both products,
which makes this an overestimate of the true missing tail by roughly a factor
log(prime_limit).  It is not a proven bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import exp, expm1, fsum, log, log1p, sqrt

from .errors import BudgetError

# a_k's local polynomial has k-1 integer coefficients of up to 2k bits each;
# past this the coefficients alone take tens of megabytes.  a_k is already 0.0
# in float64 from k = 35 on.
MAX_K_A = 10_000
# b_k's exponent k(k+1)/2 must be a finite float64.
MAX_K_B = 10**150
# The sieve takes one byte per integer; a_k at this limit peaks near 500 MiB.
MAX_PRIME_LIMIT = 10**8
# exp(s) is 0.0 in float64 for every s below about -745.2.
_UNDERFLOW_LOG = -750.0
# expm1 overflows past 709.78; beyond this (1-sqrt x)^(-k) dwarfs the bracket's x.
_EXPM1_MAX = 700.0
_LN2 = log(2.0)


@dataclass(frozen=True)
class EulerFactorResult:
    """Value of a truncated Euler product together with its truncation bookkeeping."""

    k: int
    prime_limit: int
    value: float
    tail_estimate: float


def primes_up_to(limit: int):
    """All primes <= limit, by a plain byte sieve; BudgetError above MAX_PRIME_LIMIT."""
    if limit > MAX_PRIME_LIMIT:
        raise BudgetError(f"prime limit {limit} exceeds the sieve ceiling of {MAX_PRIME_LIMIT}")
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
        p += 1
    return list(compress(range(limit + 1), flags))


def _local_a(coeffs, p: int) -> float:
    """log of a_k's local factor at p; coeffs are binom(k-1, i)^2 for i = 1..k-1."""
    n = len(coeffs)
    m = 0
    for c in coeffs:
        m = m * p + c
    pn = p**n
    try:
        log_series = log1p(m / pn)
    except OverflowError:
        # T beyond float64 range: log T >= 709, so nothing cancels
        log_series = log(m + pn) - n * log(p)
    return n * n * log1p(-1 / p) + log_series


def _local_b(k: int, p: int) -> float:
    """log of b_k's local factor at p."""
    x = 1 / p
    u = -k * log1p(-sqrt(x))
    v = -k * log1p(sqrt(x))
    if u < _EXPM1_MAX:
        log_bracket = log1p((expm1(u) + expm1(v)) / 2 + x)
    else:
        # the average is e^u (1 + e^(v-u))/2, and x adds less than e^(-699) to its log
        log_bracket = u - _LN2 + log1p(exp(v - u))
    return (k * (k + 1) // 2) * log1p(-x) - log1p(x) + log_bracket


def _accumulate(k: int, prime_limit: int, local_log) -> EulerFactorResult:
    ps = primes_up_to(prime_limit)
    logs = []
    partial = 0.0
    for p in ps:
        logs.append(local_log(p))
        partial += logs[-1]
        if partial < _UNDERFLOW_LOG:
            # every remaining local log is <= 0 (up to rounding far below the
            # margin to -745.2), so the value is 0.0
            break
    last = logs[-1] if len(logs) == len(ps) else local_log(ps[-1])
    return EulerFactorResult(
        k=k,
        prime_limit=prime_limit,
        value=exp(fsum(logs)),
        tail_estimate=abs(expm1(last)) * ps[-1] ** 2 / prime_limit,
    )


def _check(k: int, prime_limit: int, max_k: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if k > max_k:
        raise BudgetError(f"the Euler factor is capped at k = {max_k}, got k = {k}")
    if prime_limit < 2:
        raise ValueError("prime_limit must be at least 2")


def arithmetic_factor_a(k: int, prime_limit: int = 10**5, j_terms: int = 64) -> EulerFactorResult:
    """Truncated unitary arithmetic factor a_k from the closed-form local factors.

    j_terms has no effect: the local series is summed in closed form, not cut
    after j_terms terms.  It is still accepted, and must still be >= 1, so that
    callers that pass it keep running; the result does not record it.
    """
    _check(k, prime_limit, MAX_K_A)
    if j_terms < 1:
        raise ValueError("j_terms must be at least 1")
    coeffs = []
    c = 1
    for i in range(1, k):
        c = c * (k - i) // i
        coeffs.append(c * c)
    return _accumulate(k, prime_limit, lambda p: _local_a(coeffs, p))


def arithmetic_factor_b(k: int, prime_limit: int = 10**5) -> EulerFactorResult:
    """Truncated symplectic arithmetic factor b_k (closed-form local factors, no series cutoff)."""
    _check(k, prime_limit, MAX_K_B)
    return _accumulate(k, prime_limit, lambda p: _local_b(k, p))
