"""Truncated multivariate power series as an exact coefficient-extraction oracle.

``series_count`` counts the matrices of a ``MatrixCountSpec`` as a coefficient
of a rational function, independently of the DP and of brute force.  Each
line gets a variable and each entry a geometric factor in the variables of
the lines it adds to: the coefficient of w^rows z^cols in
1/prod_{i,j}(1 - w_i z_j) is the contingency count.  A symmetric spec has one
variable per index, a factor 1/(1 - x_i x_j) per entry above the diagonal and
1/(1 - x_i^2) per diagonal entry, which is even.  At-most sums add a factor
1/(1 - v) per variable v, which takes its line's shortfall.

A series is a plain dict from exponent multi-index to integer coefficient,
truncated at each variable's exponent in the target, which no term past it
can reach, so extraction replaces contour quadrature in exact integers.
"""

from __future__ import annotations

from .counting import _checked, _index_sums, contingency_spec, pseudomagic_spec
from .errors import BudgetError

DEFAULT_TERM_BUDGET = 10**7


def _times_geometric(terms: dict, target, var_indices) -> dict:
    """``terms`` times sum_{t>=0} (prod of the given variables)^t, truncated at ``target``.

    A variable listed twice is squared in the product.
    """
    steps = [(v, var_indices.count(v)) for v in dict.fromkeys(var_indices)]
    out = {}
    for idx, coef in terms.items():
        lim = min([(target[v] - idx[v]) // m for v, m in steps])
        cur = list(idx)
        key = idx
        for _ in range(lim + 1):
            out[key] = out.get(key, 0) + coef
            for v, m in steps:
                cur[v] += m
            key = tuple(cur)
    return out


def _check_budget(num_vars: int, cap: int, term_budget: int):
    # (cap+1)^num_vars exceeds the budget once (cap+1)^(bits + 1) does, for cap >= 1
    if (cap + 1) ** min(num_vars, term_budget.bit_length() + 1) > term_budget:
        raise BudgetError(
            f"series with {num_vars} vars at cap {cap} exceeds term budget {term_budget}"
        )


def series_count(spec, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Number of matrices satisfying ``spec``, as a coefficient of its generating function.

    Each variable is truncated at its own limit.  A malformed spec is a
    ValueError; a series that could hold more than ``term_budget`` terms at
    the largest limit in every variable is refused before any is built.
    """
    rows, cols, exact, symmetric = _checked(spec)
    if symmetric:
        target = _index_sums(spec)
        if target is None:
            return 0
        n = len(target)
        factors = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        target, m = (*rows, *cols), len(rows)
        factors = [(i, m + j) for i in range(m) for j in range(len(cols))]
    if not exact:
        factors += [(v,) for v in range(len(target))]
    _check_budget(len(target), max(target), term_budget)
    s = {(0,) * len(target): 1}
    for f in factors:
        s = _times_geometric(s, target, f)
    return s.get(tuple(target), 0)


def contour_coefficient(k: int, l: int, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Coefficient of (w_1...w_k z_1...z_k)^l in the bounded kernel: the bounded count."""
    if k > 0 and l >= 0:  # a refusal comes before the k-long spec is built
        _check_budget(2 * k, l, term_budget)
    return series_count(pseudomagic_spec(k, l), term_budget=term_budget)


def expansion_count(alpha, beta, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Coefficient of w^alpha z^beta in 1/prod_{i,j}(1 - w_i z_j): the contingency count."""
    return series_count(contingency_spec(alpha, beta), term_budget)
