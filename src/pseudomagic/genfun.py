"""Truncated multivariate power series as an exact coefficient-extraction oracle.

The bounded-line-sum count equals a coefficient of the rational function

    1 / [ prod_{i,j} (1 - w_i z_j) * prod_i (1 - w_i) * prod_j (1 - z_j) ]

and the contingency count is a coefficient of the kernel without the
univariate factors.  For rational functions of this pole structure the
residue form of that statement is definitional, so coefficient extraction on
a truncated formal expansion replaces contour quadrature entirely and keeps
everything in exact integers.

A series is a plain dict from exponent multi-index to integer coefficient,
truncated at a per-variable degree cap that the caller carries.
"""

from __future__ import annotations

from .errors import BudgetError

DEFAULT_TERM_BUDGET = 10**7


def _times_geometric(terms: dict, cap: int, var_indices) -> dict:
    """``terms`` times sum_{t>=0} (prod of the given variables)^t, truncated at ``cap``."""
    out = {}
    for idx, coef in terms.items():
        lim = min(cap - idx[v] for v in var_indices)
        cur = list(idx)
        key = idx
        for _ in range(lim + 1):
            out[key] = out.get(key, 0) + coef
            for v in var_indices:
                cur[v] += 1
            key = tuple(cur)
    return out


def _check_budget(num_vars: int, cap: int, term_budget: int):
    if (cap + 1) ** num_vars > term_budget:
        raise BudgetError(
            f"series with {num_vars} vars at cap {cap} exceeds term budget {term_budget}"
        )


def master_series(k: int, cap: int, term_budget: int = DEFAULT_TERM_BUDGET) -> dict:
    """Expansion of the full kernel in w_1..w_k, z_1..z_k, truncated at ``cap``, as a dict.

    Variables 0..k-1 are the w's, k..2k-1 the z's.  Built by folding in the
    k^2 cross factors 1/(1 - w_i z_j) first, then the 2k univariate factors.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    _check_budget(2 * k, cap, term_budget)
    s = {(0,) * (2 * k): 1}
    for i in range(k):
        for j in range(k):
            s = _times_geometric(s, cap, (i, k + j))
    for v in range(2 * k):
        s = _times_geometric(s, cap, (v,))
    return s


def contour_coefficient(k: int, l: int, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Coefficient of (w_1...w_k z_1...z_k)^l in the full kernel: the bounded count."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    return master_series(k, l, term_budget).get((l,) * (2 * k), 0)


def expansion_count(alpha, beta, cap=None, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Coefficient of w^alpha z^beta in 1/prod_{i,j}(1 - w_i z_j): the contingency count."""
    from .counting import _parts

    a = _parts(alpha) or (0,)
    b = _parts(beta) or (0,)
    if cap is None:
        cap = max(max(a), max(b))
    if max(max(a), max(b)) > cap:
        raise ValueError("cap too small for the requested exponents")
    m, n = len(a), len(b)
    _check_budget(m + n, cap, term_budget)
    s = {(0,) * (m + n): 1}
    for i in range(m):
        for j in range(n):
            s = _times_geometric(s, cap, (i, m + j))
    return s.get(a + b, 0)
