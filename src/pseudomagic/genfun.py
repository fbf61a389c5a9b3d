"""Truncated multivariate power series as an exact coefficient-extraction oracle.

The bounded-line-sum count equals a coefficient of the rational function

    1 / [ prod_{i,j} (1 - w_i z_j) * prod_i (1 - w_i) * prod_j (1 - z_j) ]

and the contingency count is a coefficient of the kernel without the
univariate factors.  For rational functions of this pole structure the
residue form of that statement is definitional, so coefficient extraction on
a truncated formal expansion replaces contour quadrature entirely and keeps
everything in exact integers.

Series are sparse maps from exponent multi-index to integer coefficient,
truncated at a per-variable degree cap.
"""

from __future__ import annotations

from .errors import BudgetError

DEFAULT_TERM_BUDGET = 10**7


class TruncatedMultiSeries:
    """Formal power series in ``num_vars`` variables, truncated at degree ``cap`` per variable."""

    __slots__ = ("num_vars", "cap", "terms")

    def __init__(self, num_vars: int, cap: int, terms=None):
        self.num_vars = num_vars
        self.cap = cap
        self.terms = dict(terms) if terms else {}

    @classmethod
    def one(cls, num_vars: int, cap: int) -> "TruncatedMultiSeries":
        return cls(num_vars, cap, {(0,) * num_vars: 1})

    def coefficient(self, index) -> int:
        return self.terms.get(tuple(index), 0)

    def times_geometric(self, var_indices) -> "TruncatedMultiSeries":
        """Multiply by sum_{t>=0} (prod of the given variables)^t, truncated."""
        cap = self.cap
        out = {}
        for idx, coef in self.terms.items():
            lim = min(cap - idx[v] for v in var_indices)
            cur = list(idx)
            key = idx
            for _ in range(lim + 1):
                out[key] = out.get(key, 0) + coef
                for v in var_indices:
                    cur[v] += 1
                key = tuple(cur)
        return TruncatedMultiSeries(self.num_vars, cap, out)


def _check_budget(num_vars: int, cap: int, term_budget: int):
    if (cap + 1) ** num_vars > term_budget:
        raise BudgetError(
            f"series with {num_vars} vars at cap {cap} exceeds term budget {term_budget}"
        )


def master_series(k: int, cap: int, term_budget: int = DEFAULT_TERM_BUDGET) -> TruncatedMultiSeries:
    """Expansion of the full kernel in w_1..w_k, z_1..z_k, truncated at ``cap``.

    Variables 0..k-1 are the w's, k..2k-1 the z's.  Built by folding in the
    k^2 cross factors 1/(1 - w_i z_j) first, then the 2k univariate factors.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    _check_budget(2 * k, cap, term_budget)
    s = TruncatedMultiSeries.one(2 * k, cap)
    for i in range(k):
        for j in range(k):
            s = s.times_geometric((i, k + j))
    for v in range(2 * k):
        s = s.times_geometric((v,))
    return s


def contour_coefficient(k: int, l: int, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Coefficient of (w_1...w_k z_1...z_k)^l in the full kernel: the bounded count."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    s = master_series(k, l, term_budget)
    return s.coefficient((l,) * (2 * k))


def expansion_count(alpha, beta, cap=None, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Coefficient of w^alpha z^beta in 1/prod_{i,j}(1 - w_i z_j): the contingency count."""
    from .counting import Partition

    a = Partition(alpha).parts or (0,)
    b = Partition(beta).parts or (0,)
    if cap is None:
        cap = max(max(a), max(b))
    if max(max(a), max(b)) > cap:
        raise ValueError("cap too small for the requested exponents")
    m, n = len(a), len(b)
    _check_budget(m + n, cap, term_budget)
    s = TruncatedMultiSeries.one(m + n, cap)
    for i in range(m):
        for j in range(n):
            s = s.times_geometric((i, m + j))
    return s.coefficient(a + b)
